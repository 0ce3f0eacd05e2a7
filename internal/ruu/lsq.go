package ruu

import (
	"fmt"
	"math/bits"

	"reese/internal/emu"
)

// LSQEntry is one in-flight memory instruction in the load/store queue.
type LSQEntry struct {
	// MemSeq is the memory-order sequence number (slot key).
	MemSeq uint64
	// Seq is the owning instruction's RUU sequence number.
	Seq uint64
	// IsStore distinguishes stores from loads.
	IsStore bool
	// Addr and Width describe the access (known from the oracle; the
	// timing model releases them when the instruction issues).
	Addr  uint32
	Width uint32

	// Issued is set when the owning instruction issues (address and, for
	// stores, data are then known to the queue).
	Issued bool
	// Forwarded marks loads satisfied by store-to-load forwarding.
	Forwarded bool
}

// LSQ is the load/store queue: memory instructions in program order.
// Entries are freed at commit (baseline) or after R-stream verification
// (REESE), which is what makes the LSQ a REESE pressure point.
type LSQ struct {
	slots   []LSQEntry // power-of-two length; memSeq s lives in slot s&mask
	mask    uint64
	size    uint64 // logical capacity
	headSeq uint64
	nextSeq uint64
}

// NewLSQ builds a load/store queue with the given capacity.
func NewLSQ(size int) (*LSQ, error) {
	if size < 1 {
		return nil, fmt.Errorf("ruu: lsq size %d too small", size)
	}
	n := 1 << bits.Len(uint(size-1))
	return &LSQ{slots: make([]LSQEntry, n), mask: uint64(n - 1), size: uint64(size)}, nil
}

// Len returns the number of resident entries.
func (q *LSQ) Len() int { return int(q.nextSeq - q.headSeq) }

// Cap returns the capacity.
func (q *LSQ) Cap() int { return int(q.size) }

// Full reports whether dispatch of a memory instruction must stall.
func (q *LSQ) Full() bool { return q.nextSeq-q.headSeq >= q.size }

// Empty reports whether the queue is empty.
func (q *LSQ) Empty() bool { return q.nextSeq == q.headSeq }

// Resident reports whether memSeq is still queued.
func (q *LSQ) Resident(memSeq uint64) bool {
	return memSeq >= q.headSeq && memSeq < q.nextSeq
}

// Get returns the resident entry with sequence memSeq.
func (q *LSQ) Get(memSeq uint64) *LSQEntry {
	if !q.Resident(memSeq) {
		panic(notResident{"ruu: LSQ.Get", memSeq, q.headSeq, q.nextSeq})
	}
	return &q.slots[memSeq&q.mask]
}

// Dispatch allocates the tail entry for the memory instruction in tr.
// It returns nil if the queue is full.
func (q *LSQ) Dispatch(tr emu.Trace, seq uint64) *LSQEntry {
	if q.Full() {
		return nil
	}
	ms := q.nextSeq
	e := &q.slots[ms&q.mask]
	*e = LSQEntry{
		MemSeq:  ms,
		Seq:     seq,
		IsStore: tr.Inst.Op.IsStore(),
		Addr:    tr.Addr,
		Width:   tr.MemWidth,
	}
	q.nextSeq = ms + 1
	return e
}

// overlap reports whether two accesses touch any common byte.
func overlap(a1 uint32, w1 uint32, a2 uint32, w2 uint32) bool {
	return a1 < a2+w2 && a2 < a1+w1
}

// LoadDisposition classifies how a load may proceed.
type LoadDisposition uint8

// Load dispositions.
const (
	// LoadBlocked: an earlier store's address is still unknown; the load
	// must wait (conservative memory disambiguation).
	LoadBlocked LoadDisposition = iota
	// LoadForward: an earlier resident store to an overlapping address
	// supplies the value directly (1-cycle forwarding).
	LoadForward
	// LoadFromCache: no conflicts; the load accesses the data cache.
	LoadFromCache
)

// CheckLoad decides the disposition of the load with sequence memSeq
// against all earlier resident stores.
func (q *LSQ) CheckLoad(memSeq uint64) LoadDisposition {
	e := q.Get(memSeq)
	disp := LoadFromCache
	for ms := q.headSeq; ms < memSeq; ms++ {
		s := &q.slots[ms&q.mask]
		if !s.IsStore {
			continue
		}
		if !s.Issued {
			// Unknown address: conservatively block.
			return LoadBlocked
		}
		if overlap(s.Addr, s.Width, e.Addr, e.Width) {
			// Youngest matching store wins; keep scanning so a later
			// unissued store can still block.
			disp = LoadForward
		}
	}
	return disp
}

// RemoveHead pops the oldest entry (read it with Head first).
func (q *LSQ) RemoveHead() {
	if q.Empty() {
		panic("ruu: RemoveHead on empty LSQ")
	}
	q.headSeq++
}

// Head returns the oldest entry, or nil when empty.
func (q *LSQ) Head() *LSQEntry {
	if q.Empty() {
		return nil
	}
	return &q.slots[q.headSeq&q.mask]
}

// Flush discards all entries.
func (q *LSQ) Flush() { q.headSeq = q.nextSeq }

// TruncateTo squashes every entry with sequence >= memSeq (the
// wrong-path tail).
func (q *LSQ) TruncateTo(memSeq uint64) {
	if memSeq < q.headSeq {
		memSeq = q.headSeq
	}
	if memSeq < q.nextSeq {
		q.nextSeq = memSeq
	}
}

// NextSeq returns the sequence number the next dispatched memory
// instruction will receive.
func (q *LSQ) NextSeq() uint64 { return q.nextSeq }
