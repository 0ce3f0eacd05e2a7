// Package reese implements the paper's contribution: the R-stream Queue
// (RSQ) and the redundant-execution machinery around it.
//
// A P-stream instruction that is ready to commit enters the RSQ at the
// tail carrying its opcode, operand values, and P-stream result. Because
// the operands are carried along, R-stream instructions have no data
// dependencies, and because the outcome of every branch is already
// known, they have no control dependencies either (paper §4.4): any
// R-stream instruction at or behind the issue pointer may issue to any
// idle functional unit. When the re-execution finishes, its result is
// compared against the stored P result; on a match the instruction is
// verified and may commit architecturally from the head of the queue, in
// program order. On a mismatch a soft error has been detected.
//
// The scheduler normally gives P-stream instructions priority and lets
// R-stream instructions soak up idle capacity; when RSQ occupancy
// crosses a high-water mark, R-stream instructions take priority so the
// queue drains (the paper's counter-based overflow avoidance, §4.3).
//
// The queue is a ring indexed by mask (its slot array is the capacity
// rounded up to a power of two) with in-order cursors for the pipeline's
// per-cycle work: a dispatch cursor (copies dispatch in FIFO order), an
// oldest-unissued and an oldest-uncompared cursor, and an
// earliest-DoneAt watermark. They are derived, conservative bounds —
// they skip only entries a full scan would skip — so CloneInto copies
// them and StateConverged ignores them.
package reese

import (
	"fmt"
	"math/bits"

	"reese/internal/emu"
	"reese/internal/isa"
)

// Entry is one instruction awaiting or undergoing redundant execution.
type Entry struct {
	// Seq is the instruction's program-order sequence number.
	Seq uint64
	// Trace is the oracle record of the P-stream execution.
	Trace emu.Trace

	// ResultP is the result latched from the P-stream datapath. A fault
	// injector may have corrupted it relative to Trace.
	ResultP uint32
	// NextPCP, AddrP and StoreValueP are the latched control/memory
	// outcomes of the P-stream execution (corruptible likewise).
	NextPCP     uint32
	AddrP       uint32
	StoreValueP uint32
	// FaultBit/FaultCycle record an injected fault (255 = none).
	FaultBit   uint8
	FaultCycle uint64

	// LSQSeq links memory instructions to their load/store queue entry.
	LSQSeq uint64

	// QSeq is the entry's R-stream-Queue order number (assigned at
	// enqueue; the slot key).
	QSeq uint64
	// EnqueuedAt is the cycle the entry entered the queue.
	EnqueuedAt uint64
	// Dispatched is set when the R copy re-enters the pipeline through
	// the dispatch stage (paper §4.3: the scheduler chooses between a
	// decoded P instruction and the head of the R-stream Queue). A
	// dispatched, unfinished copy occupies a window slot.
	Dispatched bool
	// Issued/IssuedAt/DoneAt track the re-execution on its functional
	// unit. Done is set when it has completed and compared. RUnit
	// records which unit ran it (-1 = none).
	Issued   bool
	IssuedAt uint64
	DoneAt   uint64
	Done     bool
	RKind    uint8
	RUnit    int
	// Verified means the comparison succeeded; Mismatch means it failed.
	Verified bool
	Mismatch bool
	// Skipped marks instructions exempted by partial re-execution
	// (paper §7); they verify vacuously.
	Skipped bool

	// RFaultMask is the corruption a permanent functional-unit fault
	// applies to the R-stream execution itself (set at R issue when the
	// copy lands on a stuck unit). Under RESO the recomputation runs on
	// shifted operands, so the same stuck bit lands one position lower
	// after unshifting — which is what makes the fault visible.
	RFaultMask uint32

	// OperandAMask/OperandBMask model a transient in the RSQ's operand
	// copies: the recomputation reads the corrupted operand while
	// Trace.A/B (what the P-stream used, and what recovery replays)
	// stay clean. CompIgnore blinds the comparator to those bit lanes —
	// a fault in the checker itself.
	OperandAMask uint32
	OperandBMask uint32
	CompIgnore   uint32
}

// HasFault reports whether a fault was injected into this instruction's
// P-stream outcome.
func (e *Entry) HasFault() bool { return e.FaultBit != 255 }

// Stats counts R-stream activity.
type Stats struct {
	// Enqueued is the number of instructions that entered the RSQ.
	Enqueued uint64
	// Reexecuted is the number of R-stream executions issued.
	Reexecuted uint64
	// Verified is the number of successful comparisons.
	Verified uint64
	// Mismatches is the number of failed comparisons (detected faults).
	Mismatches uint64
	// Skipped counts instructions exempted by partial re-execution.
	Skipped uint64
	// FullStalls counts cycles in which a completed RUU head could not
	// move into the RSQ because it was full.
	FullStalls uint64
	// PriorityCycles counts cycles the high-water mark gave R-stream
	// instructions scheduling priority.
	PriorityCycles uint64
	// OccupancySum and OccupancyMax sample the queue's fill level once
	// per cycle (SampleOccupancy) — the machine's P-to-R-stream
	// separation in instructions, the paper's Δt (§2). The pipeline's
	// Result reports them as RSQOccupancyMean/Max, so they stay out of
	// the Stats encoding.
	OccupancySum uint64 `json:"-"`
	OccupancyMax uint64 `json:"-"`
}

// Queue is the R-stream Queue: a FIFO whose entries issue (possibly out
// of order with respect to completion) and retire in order once
// verified.
type Queue struct {
	slots   []Entry // power-of-two length; queue sequence s lives in slot s&mask
	mask    uint64
	size    uint64 // logical capacity: Full and Cap use it, not len(slots)
	headSeq uint64 // oldest resident (rsq-order sequence)
	nextSeq uint64 // next rsq-order sequence to allocate

	// dispatchEnd bounds the dispatched prefix: every resident entry
	// below it is Dispatched, and every copy dispatched to re-execute
	// lies below it. issueFrom and compareFrom are lower bounds on the
	// queue sequence of every dispatched, unissued and every issued,
	// uncompared entry; doneMin bounds the latter's DoneAt from below.
	dispatchEnd uint64
	issueFrom   uint64
	compareFrom uint64
	doneMin     uint64

	// inFlight counts dispatched R copies whose comparison has not
	// completed (each holds a pipeline window slot).
	inFlight int

	highWater int
	every     int // re-execute 1 in every N instructions (1 = all)
	reso      bool
	stats     Stats
}

// New builds an R-stream Queue.
//
// size is the queue capacity (the paper starts at 32). highWater is the
// occupancy at which R-stream instructions get issue priority; 0 selects
// the default of size-8 (clamped to at least 1). reexecuteEvery enables
// partial re-execution: only one in every N instructions is re-executed
// (0 and 1 both mean every instruction).
func New(size, highWater, reexecuteEvery int) (*Queue, error) {
	if size < 1 {
		return nil, fmt.Errorf("reese: rsq size %d", size)
	}
	if highWater == 0 {
		highWater = size - 8
		if highWater < 1 {
			highWater = 1
		}
	}
	if highWater < 0 || highWater > size {
		return nil, fmt.Errorf("reese: high-water %d out of [1,%d]", highWater, size)
	}
	if reexecuteEvery < 0 {
		return nil, fmt.Errorf("reese: re-execute every %d", reexecuteEvery)
	}
	if reexecuteEvery == 0 {
		reexecuteEvery = 1
	}
	n := 1 << bits.Len(uint(size-1))
	return &Queue{
		slots:     make([]Entry, n),
		mask:      uint64(n - 1),
		size:      uint64(size),
		doneMin:   never,
		highWater: highWater,
		every:     reexecuteEvery,
	}, nil
}

// SetRESO enables recomputation with shifted operands (Patel & Fung,
// the paper's reference [15]): the R-stream execution is transformed so
// a permanent fault in a functional unit corrupts the two executions
// differently, making it detectable even when both land on the same
// unit. RESO itself is timing-neutral here (the shift stages are folded
// into the unit's latency).
func (q *Queue) SetRESO(on bool) { q.reso = on }

// RESO reports whether shifted-operand recomputation is enabled.
func (q *Queue) RESO() bool { return q.reso }

// Len returns current occupancy.
func (q *Queue) Len() int { return int(q.nextSeq - q.headSeq) }

// Cap returns the capacity.
func (q *Queue) Cap() int { return int(q.size) }

// Full reports whether the queue can accept no more entries. A full RSQ
// blocks the RUU head — the only way REESE inhibits the P stream.
func (q *Queue) Full() bool { return q.nextSeq-q.headSeq >= q.size }

// Empty reports whether the queue is empty.
func (q *Queue) Empty() bool { return q.nextSeq == q.headSeq }

// PressureHigh reports whether occupancy has crossed the high-water
// mark, giving R-stream instructions priority this cycle.
func (q *Queue) PressureHigh() bool { return q.Len() >= q.highWater }

// NotePriorityCycle records a cycle during which R-stream priority was
// in force (called once per such cycle by the pipeline).
func (q *Queue) NotePriorityCycle() { q.stats.PriorityCycles++ }

// SampleOccupancy adds the current fill level to the occupancy
// statistics (called once per cycle by the pipeline).
func (q *Queue) SampleOccupancy() {
	occ := uint64(q.Len())
	q.stats.OccupancySum += occ
	q.stats.OccupancyMax = max(q.stats.OccupancyMax, occ)
}

// NoteFullStall records a cycle in which the RUU head was blocked by a
// full RSQ.
func (q *Queue) NoteFullStall() { q.stats.FullStalls++ }

// never is a cycle no re-execution finishes by: the DoneAt watermark of
// a queue with nothing executing.
const never = ^uint64(0)

// Enqueue allocates the tail entry for the instruction with program
// sequence seq leaving the RUU head at cycle now, and returns it for the
// caller to fill in place with the P-stream record (Trace, the latched
// outcomes, FaultBit — preset to 255, no fault — and LSQSeq). Returns
// nil if full.
func (q *Queue) Enqueue(seq, now uint64) *Entry {
	if q.Full() {
		return nil
	}
	slot := &q.slots[q.nextSeq&q.mask]
	*slot = Entry{Seq: seq, QSeq: q.nextSeq, EnqueuedAt: now, FaultBit: 255}
	if q.every > 1 && seq%uint64(q.every) != 0 {
		// Partial re-execution: this instruction is not re-executed and
		// verifies vacuously (coverage is sacrificed, paper §7).
		slot.Skipped = true
		slot.Dispatched = true
		slot.Issued = true
		slot.Done = true
		slot.Verified = true
		q.stats.Skipped++
	}
	q.nextSeq++
	q.stats.Enqueued++
	return slot
}

// undispatched moves the dispatch cursor past entries already
// dispatched (partial re-execution's skipped entries dispatch
// vacuously at enqueue) and returns it: the oldest copy still to
// re-enter the pipeline, or nextSeq when none waits.
func (q *Queue) undispatched() uint64 {
	s := max(q.dispatchEnd, q.headSeq)
	for s < q.nextSeq && q.slots[s&q.mask].Dispatched {
		s++
	}
	q.dispatchEnd = s
	return s
}

// DispatchPending reports whether an R copy waits to re-enter the
// pipeline.
func (q *Queue) DispatchPending() bool { return q.undispatched() < q.nextSeq }

// DispatchNext sends the oldest undispatched R copy back into the
// pipeline and returns it, or nil when none waits. The queue is a FIFO:
// copies re-enter in order.
func (q *Queue) DispatchNext() *Entry {
	s := q.undispatched()
	if s == q.nextSeq {
		return nil
	}
	e := &q.slots[s&q.mask]
	e.Dispatched = true
	q.dispatchEnd = s + 1
	q.inFlight++
	q.stats.Reexecuted++
	return e
}

// InFlight returns the number of dispatched R copies whose comparison
// has not completed.
func (q *Queue) InFlight() int { return q.inFlight }

// MarkIssued records that e's re-execution started at cycle now and
// will finish at done.
func (q *Queue) MarkIssued(e *Entry, now, done uint64) {
	e.Issued = true
	e.IssuedAt = now
	e.DoneAt = done
	q.doneMin = min(q.doneMin, done)
}

// Unissued returns the queue-sequence window [from, to) that holds
// every dispatched copy not yet issued, oldest first; entries inside it
// may have issued already. It lies inside the dispatched prefix, and
// each call first moves the oldest-unissued cursor past its issued
// head.
func (q *Queue) Unissued() (from, to uint64) {
	s, end := max(q.issueFrom, q.headSeq), max(q.dispatchEnd, q.headSeq)
	for s < end && q.slots[s&q.mask].Issued {
		s++
	}
	q.issueFrom = s
	return s, end
}

// CompareDue runs the comparator (Compare) on every issued copy whose
// re-execution has finished by cycle now, in queue order, calling
// verified for each match. It stops at the first mismatch and returns
// that entry — recovery flushes the queue — or nil. It returns at once
// while the earliest-DoneAt watermark is still in the future, and
// otherwise visits only the dispatched window from the oldest
// uncompared copy.
func (q *Queue) CompareDue(now uint64, verified func(*Entry)) *Entry {
	if q.doneMin > now {
		return nil
	}
	s, end := max(q.compareFrom, q.headSeq), max(q.dispatchEnd, q.headSeq)
	for s < end && q.slots[s&q.mask].Done {
		s++
	}
	q.compareFrom = s
	next := never
	for ; s < end; s++ {
		e := &q.slots[s&q.mask]
		if !e.Issued || e.Done {
			continue
		}
		if e.DoneAt > now {
			next = min(next, e.DoneAt)
			continue
		}
		if !q.Compare(e) {
			// The copies not visited keep the old watermark, which
			// still bounds them.
			return e
		}
		verified(e)
	}
	q.doneMin = next
	return nil
}

// Resident reports whether qseq is still queued.
func (q *Queue) Resident(qseq uint64) bool {
	return qseq >= q.headSeq && qseq < q.nextSeq
}

// Get returns the resident entry with queue sequence qseq.
func (q *Queue) Get(qseq uint64) *Entry {
	if !q.Resident(qseq) {
		panic(notResident{qseq, q.headSeq, q.nextSeq})
	}
	return &q.slots[qseq&q.mask]
}

// notResident is Get's panic value; formatting it lazily keeps Get
// inlinable.
type notResident struct{ qseq, head, next uint64 }

func (e notResident) Error() string {
	return fmt.Sprintf("reese: Get(%d) not resident [%d,%d)", e.qseq, e.head, e.next)
}

// Scan calls fn for each resident entry in queue order, stopping early
// if fn returns false.
func (q *Queue) Scan(fn func(*Entry) bool) {
	for s := q.headSeq; s < q.nextSeq; s++ {
		if !fn(&q.slots[s&q.mask]) {
			return
		}
	}
}

// Head returns the oldest entry, or nil.
func (q *Queue) Head() *Entry {
	if q.Empty() {
		return nil
	}
	return &q.slots[q.headSeq&q.mask]
}

// RetireHead removes the verified head entry (read it with Head first;
// the slot stays valid until the next Enqueue).
func (q *Queue) RetireHead() {
	if q.Empty() {
		panic("reese: RetireHead on empty queue")
	}
	if !q.slots[q.headSeq&q.mask].Verified {
		panic("reese: RetireHead on unverified entry")
	}
	q.headSeq++
}

// Flush empties the queue (fault recovery clears the RSQ, §4.3).
func (q *Queue) Flush() {
	q.headSeq = q.nextSeq
	q.doneMin = never // nothing executes; the cursors clamp to the head at use
	q.inFlight = 0
}

// Stats returns a copy of the counters.
func (q *Queue) Stats() Stats { return q.stats }

// Compare re-executes e's operation from its carried operands and
// compares every latched P-stream outcome with the recomputed one. It
// returns true when they all match. This is the comparator between
// writeback and commit (paper §4.3), and the recomputation uses exactly
// the same semantic functions as the P stream, so a mismatch implies a
// fault.
func (q *Queue) Compare(e *Entry) bool {
	tr := e.Trace
	op := tr.Inst.Op
	// rMask is how a stuck functional unit corrupted the R execution.
	// Without RESO the stuck bit corrupts the recomputation in the same
	// position as it corrupted the P execution; with RESO the
	// recomputation ran on left-shifted operands, so after the final
	// unshift the corruption lands one bit lower (and bit 0 vanishes).
	rMask := e.RFaultMask
	if q.reso {
		rMask >>= 1
	}
	// The R-stream reads its operands from the RSQ's stored copies; a
	// transient in those slots corrupts the recomputation while the
	// architectural values (and recovery replay) stay clean.
	a := tr.A ^ e.OperandAMask
	b := tr.B ^ e.OperandBMask
	// eq is the comparator: bit lanes in CompIgnore are dead (a fault in
	// the checker itself), so corruption there passes unnoticed.
	eq := func(p, r uint32) bool { return (p^r)&^e.CompIgnore == 0 }
	ok := true
	switch {
	case op == isa.OpHalt || op == isa.OpOut:
		// No result to verify.
	case op.IsLoad():
		// The R-stream load re-reads the cache; memory is unchanged
		// between the two executions (stores drain in order), so the
		// true value is the oracle's. Verify both address and value.
		ok = eq(e.AddrP, isa.EffectiveAddress(a, tr.Inst.Imm)) &&
			eq(e.ResultP, tr.Result^rMask)
	case op.IsStore():
		ok = eq(e.AddrP, isa.EffectiveAddress(a, tr.Inst.Imm)) &&
			eq(e.StoreValueP, b^rMask)
	case op.IsBranch():
		taken := isa.BranchTaken(op, a, b)
		next := tr.PC + isa.WordBytes
		if taken {
			next = tr.Inst.BranchTarget(tr.PC)
		}
		ok = eq(e.NextPCP, next)
	case op.IsJump():
		next := tr.Inst.BranchTarget(tr.PC)
		if op.IsIndirect() {
			next = a
		}
		ok = eq(e.NextPCP, next)
		if op == isa.OpJal || op == isa.OpJalr {
			ok = ok && eq(e.ResultP, tr.PC+isa.WordBytes)
		}
	case op.IsFP():
		ok = eq(e.ResultP, isa.EvalFP(op, a, b)^rMask)
	default:
		ok = eq(e.ResultP, isa.EvalALU(op, a, b, tr.Inst.Imm)^rMask)
	}
	e.Done = true
	q.inFlight--
	if ok {
		e.Verified = true
		q.stats.Verified++
	} else {
		e.Mismatch = true
		q.stats.Mismatches++
	}
	return ok
}
