package pipeline

import (
	"fmt"

	"reese/internal/obs"
	"reese/internal/ruu"
)

// dupDetector is duplicate-at-the-scheduler detection (Franklin [24]),
// the scheme the paper positions REESE against: every instruction
// dispatches as an adjacent (original, duplicate) pair, the duplicate
// inheriting the original's register dependencies, and the pair's
// latched outcomes are compared at commit.
type dupDetector struct{ stateless }

func (d *dupDetector) dispatch(c *CPU) int {
	n := 0
	for n < c.cfg.Width && d.dispatchPair(c) {
		n++
	}
	return n
}

// dispatchPair dispatches the next instruction together with its
// duplicate, reporting whether it did. The pair needs room for both
// halves before either dispatches; wrong-path entries stay single.
func (*dupDetector) dispatchPair(c *CPU) bool {
	if c.fetchLen > 0 && !c.fetchQFront().bogus {
		if c.windowFree() < 2 {
			c.dispatchRUUFull++
			c.noteDispatchBlock(obs.CauseDispatchRUUFull)
			return false
		}
		if c.fetchQFront().tr.Inst.Op.IsMem() && c.lsq.Cap()-c.lsq.Len() < 2 {
			c.dispatchLSQFull++
			c.noteDispatchBlock(obs.CauseDispatchLSQFull)
			return false
		}
	}
	e := c.dispatchP(0)
	if e == nil {
		return false
	}
	if !e.Bogus {
		lsqSeq := ruu.NoProducer
		if e.Trace.Inst.Op.IsMem() {
			lsqSeq = c.lsq.Dispatch(e.Trace, c.ruu.NextSeq()).MemSeq
		}
		c.ruu.DispatchDup(e.Trace, e.Seq, e.Dep1, e.Dep2, lsqSeq)
	}
	return true
}

// The architectural cache write happens once, on the duplicate.
func (*dupDetector) writesCache(e *ruu.Entry) bool { return e.Dup }

// nextRetire retires the (original, duplicate) pair at the RUU head
// once both halves completed and their latched outcomes agree. Both
// halves consume commit bandwidth.
func (*dupDetector) nextRetire(c *CPU, free int) (retiring, bool) {
	if free < 2 || c.ruu.Len() < 2 {
		return retiring{}, false
	}
	h := c.completedHead()
	if h == nil {
		return retiring{}, false
	}
	d := c.ruu.Get(h.Seq + 1)
	if !d.Dup || d.PairSeq != h.Seq {
		panic(fmt.Sprintf("pipeline: dup pairing broken at seq %d", h.Seq))
	}
	if !d.Completed || d.DoneAt > c.cycle {
		return retiring{}, false
	}
	if h.ResultP != d.ResultP || h.NextPCP != d.NextPCP ||
		h.AddrP != d.AddrP || h.StoreValueP != d.StoreValueP {
		faulty, at := h.HasFault(), h.FaultCycle
		if !faulty && d.HasFault() {
			faulty, at = true, d.FaultCycle
		}
		c.onMismatch(h.Seq, &h.Trace, 0, -1, faulty, at)
		return retiring{}, false
	}
	// A fault that corrupted BOTH copies identically (a common-mode or
	// permanent fault hitting the same computation twice) passes the
	// comparator: that is pure duplication's blind spot, and it retires
	// as silent corruption. REESE's recomputation-based comparator does
	// not share it.
	c.popRUU(h)
	c.popRUU(d)
	return retireRUU(h, 2, h.HasFault() || d.HasFault()), true
}

func (d *dupDetector) clone(detector) detector { return d }

func (*dupDetector) converged(_, g *CPU) bool {
	_, ok := g.det.(*dupDetector)
	return ok
}
