package ruu

import (
	"testing"
	"testing/quick"

	"reese/internal/emu"
	"reese/internal/isa"
)

func trace(op isa.Op, rd, rs1, rs2 isa.Reg) emu.Trace {
	return emu.Trace{Inst: isa.Instruction{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(1); err == nil {
		t.Error("size 1 should fail")
	}
	if _, err := NewLSQ(0); err == nil {
		t.Error("lsq size 0 should fail")
	}
}

func TestDispatchFillAndDrain(t *testing.T) {
	r, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if e := r.Dispatch(trace(isa.OpAdd, 1, 2, 3), NoProducer); e == nil {
			t.Fatalf("dispatch %d failed", i)
		}
	}
	if !r.Full() || r.Len() != 4 {
		t.Error("should be full")
	}
	if r.Dispatch(trace(isa.OpAdd, 1, 2, 3), NoProducer) != nil {
		t.Error("dispatch into full RUU should fail")
	}
	for i := 0; i < 4; i++ {
		r.RemoveHead()
	}
	if !r.Empty() {
		t.Error("should be empty")
	}
}

func TestDependencyWiring(t *testing.T) {
	r, _ := New(8)
	producer := r.Dispatch(trace(isa.OpAdd, 5, 1, 2), NoProducer)
	consumer := r.Dispatch(trace(isa.OpSub, 6, 5, 3), NoProducer)
	if consumer.Dep1 != producer.Seq {
		t.Errorf("consumer Dep1 = %d, want %d", consumer.Dep1, producer.Seq)
	}
	if consumer.Dep2 != NoProducer {
		t.Errorf("consumer Dep2 = %d, want none (r3 has no producer)", consumer.Dep2)
	}
	// Not ready until the producer completes.
	if r.OperandsReady(consumer, 10) {
		t.Error("consumer should wait for producer")
	}
	producer.Issued = true
	producer.Completed = true
	producer.DoneAt = 12
	if r.OperandsReady(consumer, 11) {
		t.Error("result not available before DoneAt")
	}
	if !r.OperandsReady(consumer, 12) {
		t.Error("result should forward at DoneAt")
	}
}

func TestLatestProducerWins(t *testing.T) {
	r, _ := New(8)
	r.Dispatch(trace(isa.OpAdd, 5, 1, 2), NoProducer)
	second := r.Dispatch(trace(isa.OpSub, 5, 1, 2), NoProducer)
	consumer := r.Dispatch(trace(isa.OpXor, 6, 5, 0), NoProducer)
	if consumer.Dep1 != second.Seq {
		t.Errorf("consumer should depend on the latest writer of r5")
	}
}

func TestR0NeverTracked(t *testing.T) {
	r, _ := New(8)
	r.Dispatch(trace(isa.OpAdd, 0, 1, 2), NoProducer) // writes r0: discarded
	consumer := r.Dispatch(trace(isa.OpAdd, 3, 0, 0), NoProducer)
	if consumer.Dep1 != NoProducer || consumer.Dep2 != NoProducer {
		t.Error("reads of r0 must never have producers")
	}
}

func TestProducerLeavingRUUMakesOperandReady(t *testing.T) {
	r, _ := New(8)
	p := r.Dispatch(trace(isa.OpAdd, 5, 1, 2), NoProducer)
	p.Issued, p.Completed = true, true
	r.RemoveHead()
	consumer := r.Dispatch(trace(isa.OpSub, 6, 5, 3), NoProducer)
	if consumer.Dep1 != NoProducer {
		t.Error("departed producer should not be referenced")
	}
	if !r.OperandsReady(consumer, 0) {
		t.Error("operand from departed producer is architectural")
	}
}

func TestSlotReuseAfterWrap(t *testing.T) {
	r, _ := New(4)
	for i := 0; i < 20; i++ {
		e := r.Dispatch(trace(isa.OpAdd, 1, 1, 1), NoProducer)
		if e == nil {
			t.Fatal("dispatch failed")
		}
		if e.Seq != uint64(i) {
			t.Errorf("seq = %d, want %d", e.Seq, i)
		}
		if got := r.Head(); got.Seq != uint64(i) {
			t.Errorf("head seq = %d, want %d", got.Seq, i)
		}
		r.RemoveHead()
	}
}

func TestFlushClearsProducers(t *testing.T) {
	r, _ := New(8)
	r.Dispatch(trace(isa.OpAdd, 5, 1, 2), NoProducer)
	r.Flush()
	if !r.Empty() {
		t.Error("flush should empty the RUU")
	}
	consumer := r.Dispatch(trace(isa.OpSub, 6, 5, 3), NoProducer)
	if consumer.Dep1 != NoProducer {
		t.Error("flushed producer must not be referenced")
	}
}

func TestScanOrder(t *testing.T) {
	r, _ := New(8)
	for i := 0; i < 5; i++ {
		r.Dispatch(trace(isa.OpAdd, 1, 2, 3), NoProducer)
	}
	var seqs []uint64
	r.Scan(func(e *Entry) bool {
		seqs = append(seqs, e.Seq)
		return true
	})
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Errorf("scan out of order: %v", seqs)
		}
	}
	// Early stop.
	n := 0
	r.Scan(func(e *Entry) bool {
		n++
		return false
	})
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestJalWiresLinkRegister(t *testing.T) {
	r, _ := New(8)
	jal := r.Dispatch(emu.Trace{Inst: isa.Instruction{Op: isa.OpJal}}, NoProducer)
	consumer := r.Dispatch(trace(isa.OpJr, 0, isa.LinkReg, 0), NoProducer)
	if consumer.Dep1 != jal.Seq {
		t.Error("jr ra should depend on jal's link write")
	}
}

// Property: after any sequence of dispatch/remove operations the RUU's
// occupancy equals dispatches minus removals and never exceeds capacity.
func TestOccupancyInvariant(t *testing.T) {
	f := func(ops []bool) bool {
		r, _ := New(8)
		disp, rem := 0, 0
		for _, dispatch := range ops {
			if dispatch {
				if e := r.Dispatch(trace(isa.OpAdd, 1, 2, 3), NoProducer); e != nil {
					disp++
				}
			} else if !r.Empty() {
				r.RemoveHead()
				rem++
			}
			if r.Len() != disp-rem || r.Len() > r.Cap() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// --- LSQ tests ---

func memTrace(op isa.Op, addr, width uint32) emu.Trace {
	return emu.Trace{Inst: isa.Instruction{Op: op}, Addr: addr, MemWidth: width}
}

func TestLSQBasics(t *testing.T) {
	q, err := NewLSQ(4)
	if err != nil {
		t.Fatal(err)
	}
	st := q.Dispatch(memTrace(isa.OpSw, 100, 4), 0)
	ld := q.Dispatch(memTrace(isa.OpLw, 100, 4), 1)
	if !st.IsStore || ld.IsStore {
		t.Error("store/load classification")
	}
	if q.Len() != 2 {
		t.Errorf("len = %d", q.Len())
	}
	// Load blocked while the store's address is unknown.
	if got := q.CheckLoad(ld.MemSeq); got != LoadBlocked {
		t.Errorf("disposition = %v, want blocked", got)
	}
	st.Issued = true
	if got := q.CheckLoad(ld.MemSeq); got != LoadForward {
		t.Errorf("disposition = %v, want forward", got)
	}
}

func TestLSQNonOverlappingStoreDoesNotForward(t *testing.T) {
	q, _ := NewLSQ(4)
	st := q.Dispatch(memTrace(isa.OpSw, 100, 4), 0)
	ld := q.Dispatch(memTrace(isa.OpLw, 200, 4), 1)
	st.Issued = true
	if got := q.CheckLoad(ld.MemSeq); got != LoadFromCache {
		t.Errorf("disposition = %v, want cache", got)
	}
}

func TestLSQPartialOverlapForwards(t *testing.T) {
	q, _ := NewLSQ(4)
	st := q.Dispatch(memTrace(isa.OpSw, 100, 4), 0)
	st.Issued = true
	// Byte load inside the stored word.
	ld := q.Dispatch(memTrace(isa.OpLb, 102, 1), 1)
	if got := q.CheckLoad(ld.MemSeq); got != LoadForward {
		t.Errorf("disposition = %v, want forward (overlap)", got)
	}
	// Adjacent but non-overlapping byte.
	ld2 := q.Dispatch(memTrace(isa.OpLb, 104, 1), 2)
	if got := q.CheckLoad(ld2.MemSeq); got != LoadFromCache {
		t.Errorf("disposition = %v, want cache (adjacent)", got)
	}
}

func TestLSQLaterUnissuedStoreStillBlocks(t *testing.T) {
	q, _ := NewLSQ(8)
	s1 := q.Dispatch(memTrace(isa.OpSw, 100, 4), 0)
	q.Dispatch(memTrace(isa.OpSw, 200, 4), 1) // unissued
	ld := q.Dispatch(memTrace(isa.OpLw, 100, 4), 2)
	s1.Issued = true
	if got := q.CheckLoad(ld.MemSeq); got != LoadBlocked {
		t.Errorf("disposition = %v, want blocked (unknown address between)", got)
	}
}

func TestLSQFullAndFlush(t *testing.T) {
	q, _ := NewLSQ(2)
	q.Dispatch(memTrace(isa.OpLw, 0, 4), 0)
	q.Dispatch(memTrace(isa.OpLw, 4, 4), 1)
	if !q.Full() {
		t.Error("should be full")
	}
	if q.Dispatch(memTrace(isa.OpLw, 8, 4), 2) != nil {
		t.Error("dispatch into full LSQ should fail")
	}
	q.Flush()
	if !q.Empty() {
		t.Error("flush should empty")
	}
}

func TestLSQRemoveHeadOrder(t *testing.T) {
	q, _ := NewLSQ(4)
	q.Dispatch(memTrace(isa.OpSw, 0, 4), 10)
	q.Dispatch(memTrace(isa.OpLw, 4, 4), 11)
	if e := q.Head(); e.Seq != 10 || !e.IsStore {
		t.Errorf("head = %+v", e)
	}
	q.RemoveHead()
	if q.Head().Seq != 11 {
		t.Errorf("new head = %+v", q.Head())
	}
}

func TestTruncateAfterRestoresCreateVector(t *testing.T) {
	r, _ := New(8)
	// Producer chain: p1 writes r5; p2 (squashed) also writes r5.
	p1 := r.Dispatch(trace(isa.OpAdd, 5, 1, 2), NoProducer)
	branch := r.Dispatch(trace(isa.OpBeq, 0, 5, 0), NoProducer)
	p2 := r.Dispatch(trace(isa.OpSub, 5, 1, 2), NoProducer) // wrong path
	r.Dispatch(trace(isa.OpXor, 6, 5, 0), NoProducer)       // wrong path
	_ = p2
	r.TruncateAfter(branch.Seq)
	if r.Len() != 2 {
		t.Fatalf("len = %d, want 2", r.Len())
	}
	// A new consumer of r5 must depend on p1 again, not the squashed p2.
	consumer := r.Dispatch(trace(isa.OpOr, 7, 5, 0), NoProducer)
	if consumer.Dep1 != p1.Seq {
		t.Errorf("consumer Dep1 = %d, want %d (rollback failed)", consumer.Dep1, p1.Seq)
	}
}

func TestTruncateAfterNestedWriters(t *testing.T) {
	r, _ := New(8)
	p1 := r.Dispatch(trace(isa.OpAdd, 3, 1, 2), NoProducer)
	keep := r.Dispatch(trace(isa.OpAdd, 4, 1, 2), NoProducer)
	// Two squashed writers of the same register: rollback must unwind
	// both, in reverse, landing back on p1.
	r.Dispatch(trace(isa.OpSub, 3, 1, 2), NoProducer)
	r.Dispatch(trace(isa.OpXor, 3, 1, 2), NoProducer)
	r.TruncateAfter(keep.Seq)
	consumer := r.Dispatch(trace(isa.OpOr, 7, 3, 0), NoProducer)
	if consumer.Dep1 != p1.Seq {
		t.Errorf("consumer Dep1 = %d, want %d", consumer.Dep1, p1.Seq)
	}
}

func TestTruncateAfterNoop(t *testing.T) {
	r, _ := New(4)
	e := r.Dispatch(trace(isa.OpAdd, 1, 2, 3), NoProducer)
	r.TruncateAfter(e.Seq) // nothing younger
	if r.Len() != 1 {
		t.Errorf("len = %d", r.Len())
	}
}

func TestLSQTruncateTo(t *testing.T) {
	q, _ := NewLSQ(8)
	q.Dispatch(memTrace(isa.OpLw, 0, 4), 0)
	mark := q.NextSeq()
	q.Dispatch(memTrace(isa.OpSw, 4, 4), 1)
	q.Dispatch(memTrace(isa.OpLw, 8, 4), 2)
	q.TruncateTo(mark)
	if q.Len() != 1 {
		t.Errorf("len = %d, want 1", q.Len())
	}
	// Truncating below the head clamps.
	q.RemoveHead()
	q.TruncateTo(0)
	if q.Len() != 0 {
		t.Errorf("len = %d", q.Len())
	}
}
