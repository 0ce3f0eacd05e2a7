// Package ruu implements the Register Update Unit and Load/Store Queue of
// the simulated machine — the same machine model as SimpleScalar's
// sim-outorder, which the REESE paper modified.
//
// The RUU is a circular queue that serves as combined reorder buffer,
// issue window, and renaming mechanism: dispatch allocates entries in
// program order at the tail, a create vector maps each architectural
// register to its most recent in-flight producer, and instructions leave
// from the head in program order once complete. Under REESE the head
// entries move into the R-stream Queue instead of committing directly.
//
// Entries are addressed by sequence number; an entry with sequence s
// occupies slot s & mask while resident (the slot array's length is the
// capacity rounded up to a power of two), so lookups are O(1) with no
// generation counters or division.
//
// Besides the window itself the RUU keeps derived bookkeeping that lets
// the per-cycle stages visit only entries that can act: an
// oldest-unissued cursor (Unissued), an oldest-uncompleted cursor and an
// earliest-DoneAt watermark (CompleteDue). Each is a conservative bound
// — it only ever skips entries a full scan would skip too — so it is
// copied by CloneInto but never compared by Converged.
package ruu

import (
	"fmt"
	"math/bits"

	"reese/internal/emu"
	"reese/internal/isa"
)

// NoProducer marks an operand whose value is already architectural (no
// in-flight producer).
const NoProducer = ^uint64(0)

// Entry is one in-flight instruction in the RUU.
type Entry struct {
	// Seq is the global program-order sequence number (also the slot
	// key).
	Seq uint64
	// Trace is the oracle record: decoded instruction, true operand
	// values, true result, true next PC.
	Trace emu.Trace

	// Dep1 and Dep2 are the sequence numbers of the in-flight producers
	// of the two source operands, or NoProducer when the operand is
	// architectural.
	Dep1, Dep2 uint64

	// Issued and Completed track execution state. DoneAt is the cycle
	// execution finishes (valid once Issued).
	Issued    bool
	Completed bool
	IssuedAt  uint64
	DoneAt    uint64

	// FUKind/FUUnit record which functional unit executed the
	// instruction (-1 = none acquired, e.g. forwarded loads), for
	// unit-level fault modelling.
	FUKind uint8
	FUUnit int

	// Mispredicted records that fetch predicted this control transfer
	// wrong; resolution unblocks fetch. BpHistory is the predictor
	// history snapshot the prediction used (trained at resolution).
	Mispredicted bool
	BpHistory    uint32

	// LSQSeq is the instruction's load/store queue sequence number, or
	// NoProducer for non-memory instructions.
	LSQSeq uint64

	// Dup marks a duplicate-at-dispatch redundant copy (the Franklin
	// [24] comparison scheme). PairSeq links it to its original.
	Dup     bool
	PairSeq uint64

	// Bogus marks a wrong-path instruction (fetched past a mispredicted
	// branch when wrong-path modelling is on). Bogus entries consume
	// resources but never resolve branches, train predictors, take
	// faults, or commit — they are squashed when the branch resolves.
	Bogus bool

	// destIdx/prevProducer record the create-vector slot this entry
	// claimed and its previous value, so TruncateAfter can unwind the
	// rename state when squashing wrong-path tails.
	destIdx      int
	prevProducer uint64

	// ResultP, NextPCP, AddrP and StoreValueP are the P-stream outcomes
	// as latched by the pipeline — normally equal to the trace, but a
	// fault injector may corrupt one of them at writeback.
	ResultP     uint32
	NextPCP     uint32
	AddrP       uint32
	StoreValueP uint32
	// FaultBit is the bit flipped by the injector (255 = none).
	FaultBit uint8
	// FaultCycle is the cycle the fault was injected (valid when
	// FaultBit != 255).
	FaultCycle uint64
}

// HasFault reports whether a fault was injected into this instruction.
func (e *Entry) HasFault() bool { return e.FaultBit != 255 }

// never is a cycle no execution finishes by: the DoneAt watermark of a
// window with nothing executing.
const never = ^uint64(0)

// RUU is the register update unit.
type RUU struct {
	slots []Entry // power-of-two length; sequence s lives in slot s&mask
	mask  uint64
	size  uint64 // logical capacity: Full and Cap use it, not len(slots)

	headSeq uint64 // sequence number of the oldest resident entry
	nextSeq uint64 // sequence number the next dispatch receives

	// issueFrom and completeFrom are lower bounds on the sequence of
	// every resident unissued and uncompleted entry; doneMin is a lower
	// bound on the DoneAt of every issued, uncompleted entry.
	issueFrom    uint64
	completeFrom uint64
	doneMin      uint64

	// producer maps each architectural register (integer file first,
	// then FP file) to the sequence number of its latest in-flight
	// producer (the create vector).
	producer [2 * isa.NumRegs]uint64
}

// regIndex flattens (register, file) into the create-vector index.
func regIndex(r isa.Reg, f isa.RegFile) int {
	if f == isa.FileFP {
		return int(r) + isa.NumRegs
	}
	return int(r)
}

// New builds an RUU with the given capacity.
func New(size int) (*RUU, error) {
	if size < 2 {
		return nil, fmt.Errorf("ruu: size %d too small", size)
	}
	n := 1 << bits.Len(uint(size-1))
	r := &RUU{slots: make([]Entry, n), mask: uint64(n - 1), size: uint64(size), doneMin: never}
	for i := range r.producer {
		r.producer[i] = NoProducer
	}
	return r, nil
}

// Len returns the number of resident entries.
func (r *RUU) Len() int { return int(r.nextSeq - r.headSeq) }

// Cap returns the capacity.
func (r *RUU) Cap() int { return int(r.size) }

// Full reports whether dispatch must stall.
func (r *RUU) Full() bool { return r.nextSeq-r.headSeq >= r.size }

// Empty reports whether no instructions are in flight.
func (r *RUU) Empty() bool { return r.nextSeq == r.headSeq }

// NextSeq returns the sequence number the next dispatched instruction
// will receive.
func (r *RUU) NextSeq() uint64 { return r.nextSeq }

// HeadSeq returns the sequence number of the oldest resident entry
// (meaningless when empty).
func (r *RUU) HeadSeq() uint64 { return r.headSeq }

// Resident reports whether the entry with sequence seq is still in the
// RUU.
func (r *RUU) Resident(seq uint64) bool {
	return seq >= r.headSeq && seq < r.nextSeq
}

// Get returns the resident entry with sequence seq.
func (r *RUU) Get(seq uint64) *Entry {
	if !r.Resident(seq) {
		panic(notResident{"ruu: Get", seq, r.headSeq, r.nextSeq})
	}
	return &r.slots[seq&r.mask]
}

// notResident is the panic value of a lookup outside the resident
// window; formatting it lazily keeps the lookups inlinable.
type notResident struct {
	op              string
	seq, head, next uint64
}

func (e notResident) Error() string {
	return fmt.Sprintf("%s(%d) not resident [%d,%d)", e.op, e.seq, e.head, e.next)
}

// Head returns the oldest entry, or nil when empty.
func (r *RUU) Head() *Entry {
	if r.Empty() {
		return nil
	}
	return &r.slots[r.headSeq&r.mask]
}

// Dispatch allocates the tail entry for tr, wiring operand dependencies
// through the create vector and updating it for the destination. lsqSeq
// is the memory-order sequence for loads/stores (NoProducer otherwise).
// It returns nil if the RUU is full.
func (r *RUU) Dispatch(tr emu.Trace, lsqSeq uint64) *Entry {
	if r.Full() {
		return nil
	}
	seq := r.nextSeq
	e := &r.slots[seq&r.mask]
	*e = Entry{
		Seq:         seq,
		Trace:       tr,
		Dep1:        NoProducer,
		Dep2:        NoProducer,
		LSQSeq:      lsqSeq,
		ResultP:     tr.Result,
		NextPCP:     tr.NextPC,
		AddrP:       tr.Addr,
		StoreValueP: tr.StoreValue,
		FaultBit:    255,
	}
	e.destIdx = -1
	e.FUUnit = -1
	rs1, uses1, rs2, uses2 := tr.Inst.Sources()
	rs1File, rs2File := tr.Inst.Op.SourceFiles()
	if uses1 && !(rs1File == isa.FileInt && rs1 == isa.RegZero) {
		if p := r.producer[regIndex(rs1, rs1File)]; p != NoProducer && r.Resident(p) {
			e.Dep1 = p
		}
	}
	if uses2 && !(rs2File == isa.FileInt && rs2 == isa.RegZero) {
		if p := r.producer[regIndex(rs2, rs2File)]; p != NoProducer && r.Resident(p) {
			e.Dep2 = p
		}
	}
	if rd, ok := tr.Inst.Dest(); ok {
		rdFile := tr.Inst.Op.DestFile()
		if !(rdFile == isa.FileInt && rd == isa.RegZero) {
			idx := regIndex(rd, rdFile)
			e.destIdx = idx
			e.prevProducer = r.producer[idx]
			r.producer[idx] = seq
		}
	}
	r.nextSeq = seq + 1
	return e
}

// DispatchDup allocates the tail entry for a redundant duplicate of the
// instruction with the given dependencies (copied from the original, so
// the duplicate waits on the same producers — it inherits the
// original's scheduling constraints, unlike an R-stream copy). It does
// not touch the create vector. Returns nil if full.
func (r *RUU) DispatchDup(tr emu.Trace, pairSeq, dep1, dep2, lsqSeq uint64) *Entry {
	if r.Full() {
		return nil
	}
	seq := r.nextSeq
	e := &r.slots[seq&r.mask]
	*e = Entry{
		Seq:         seq,
		Trace:       tr,
		Dep1:        dep1,
		Dep2:        dep2,
		LSQSeq:      lsqSeq,
		Dup:         true,
		PairSeq:     pairSeq,
		ResultP:     tr.Result,
		NextPCP:     tr.NextPC,
		AddrP:       tr.Addr,
		StoreValueP: tr.StoreValue,
		FaultBit:    255,
	}
	e.destIdx = -1
	e.FUUnit = -1
	r.nextSeq = seq + 1
	return e
}

// TruncateAfter squashes every entry younger than seq (the wrong-path
// tail behind a resolved mispredicted branch), unwinding the create
// vector so rename state is as if they were never dispatched.
func (r *RUU) TruncateAfter(seq uint64) {
	if seq+1 >= r.nextSeq {
		return
	}
	for s := r.nextSeq - 1; s > seq; s-- {
		e := &r.slots[s&r.mask]
		if e.destIdx >= 0 && r.producer[e.destIdx] == e.Seq {
			r.producer[e.destIdx] = e.prevProducer
		}
	}
	r.nextSeq = seq + 1
	// The squashed slots are dispatched again: the cursors must not
	// stay past them.
	r.issueFrom = min(r.issueFrom, r.nextSeq)
	r.completeFrom = min(r.completeFrom, r.nextSeq)
}

// depReady reports whether the producer with sequence dep has made its
// value available by cycle now.
func (r *RUU) depReady(dep uint64, now uint64) bool {
	if dep == NoProducer {
		return true
	}
	if !r.Resident(dep) {
		// Producer already left the RUU: value is architectural (or in
		// the R-stream Queue carrying its result), so it is available.
		return true
	}
	p := &r.slots[dep&r.mask]
	return p.Completed && p.DoneAt <= now
}

// OperandsReady reports whether both source operands of e are available
// at cycle now (results forward the cycle they complete).
func (r *RUU) OperandsReady(e *Entry, now uint64) bool {
	return r.depReady(e.Dep1, now) && r.depReady(e.Dep2, now)
}

// RemoveHead pops the oldest entry. The caller must have decided it is
// allowed to leave (completed, and under REESE that the R-stream Queue
// has room); Head, read first, stays valid until the next dispatch.
func (r *RUU) RemoveHead() {
	if r.Empty() {
		panic("ruu: RemoveHead on empty RUU")
	}
	r.headSeq++
}

// Scan calls fn for each resident entry in program order, stopping early
// if fn returns false.
func (r *RUU) Scan(fn func(*Entry) bool) {
	for seq := r.headSeq; seq < r.nextSeq; seq++ {
		if !fn(&r.slots[seq&r.mask]) {
			return
		}
	}
}

// Unissued returns the sequence window [from, to) that holds every
// resident entry not yet issued, in program order; entries inside it
// may have issued already. Each call first moves the oldest-unissued
// cursor past the issued prefix, so over a run every entry is stepped
// over once.
func (r *RUU) Unissued() (from, to uint64) {
	s := max(r.issueFrom, r.headSeq)
	for s < r.nextSeq && r.slots[s&r.mask].Issued {
		s++
	}
	r.issueFrom = s
	return s, r.nextSeq
}

// MarkIssued records that e started executing at cycle now and finishes
// at doneAt.
func (r *RUU) MarkIssued(e *Entry, now, doneAt uint64) {
	e.Issued = true
	e.IssuedAt = now
	e.DoneAt = doneAt
	r.doneMin = min(r.doneMin, doneAt)
}

// CompleteDue completes, in program order, every issued entry whose
// execution has finished by cycle now: it sets Completed and calls fn,
// which may squash the window's tail (TruncateAfter). It returns at
// once while the earliest-DoneAt watermark is still in the future, and
// otherwise visits only the window from the oldest uncompleted entry.
func (r *RUU) CompleteDue(now uint64, fn func(*Entry)) {
	if r.doneMin > now {
		return
	}
	s := max(r.completeFrom, r.headSeq)
	for s < r.nextSeq && r.slots[s&r.mask].Completed {
		s++
	}
	r.completeFrom = s
	next := never
	for ; s < r.nextSeq; s++ {
		e := &r.slots[s&r.mask]
		if !e.Issued || e.Completed {
			continue
		}
		if e.DoneAt > now {
			next = min(next, e.DoneAt)
			continue
		}
		e.Completed = true
		fn(e)
	}
	r.doneMin = next
}

// Flush discards every in-flight instruction and clears the create
// vector (used for fault recovery; with oracle-path fetch there are no
// branch-mispredict flushes).
func (r *RUU) Flush() {
	r.headSeq = r.nextSeq
	r.doneMin = never // nothing executes; the cursors clamp to the head at use
	for i := range r.producer {
		r.producer[i] = NoProducer
	}
}
