package pipeline

// The redundancy seam: a machine's error-detection scheme is one
// detector, chosen once in New from cfg.Reese, and the stages call its
// hooks instead of branching on the scheme. noneDetector is the
// unprotected baseline, rsqDetector (rsq.go) REESE's R-stream Queue and
// dupDetector (dup.go) duplicate-at-the-scheduler. They live here
// rather than in internal/reese because they drive the FU pool, the
// memory hierarchy, retire and the flight recorder; internal/reese
// stays the queue and comparator data structure.

import (
	"fmt"

	"reese/internal/config"
	"reese/internal/emu"
	"reese/internal/obs"
	"reese/internal/reese"
	"reese/internal/ruu"
)

// detector is one redundancy scheme's hooks into the pipeline.
type detector interface {
	// dispatch fills the cycle's dispatch slots with P-stream
	// instructions (CPU.dispatchP) and the scheme's copies.
	dispatch(c *CPU) int
	// held counts window slots the scheme's copies occupy outside the RUU.
	held() int
	// issue spends up to budget slots on P-stream instructions
	// (CPU.issueP) and the scheme's copies; it returns the slots left.
	issue(c *CPU, budget int) int
	// writesCache reports whether issuing store e is its one
	// architectural cache write.
	writesCache(e *ruu.Entry) bool
	// verify runs the scheme's comparator after writeback.
	verify(c *CPU)
	// nextRetire removes the oldest instruction allowed to retire within
	// free commit slots and hands it to the shared retire loop.
	nextRetire(c *CPU, free int) (retiring, bool)
	// enter moves completed instructions into the scheme's queue after
	// the cycle's retirement.
	enter(c *CPU)
	// commitStall names the scheme's commit blocker (obs.CauseNone
	// defers to the RUU head).
	commitStall(c *CPU) obs.StallCause
	// recover retires the scheme's queued instructions older than
	// faultSeq, appends the rest to replay and flushes.
	recover(c *CPU, faultSeq uint64, replay []emu.Trace) []emu.Trace
	// clone deep-copies the scheme state, reusing dst's allocations.
	clone(dst detector) detector
	// converged reports whether the receiver (c's state) behaves like
	// g's from each machine's now on.
	converged(c, g *CPU) bool
	// extrapolate advances per-cycle statistics by k periods of their
	// growth since prev (the hang fast-forward).
	extrapolate(prev detector, k uint64)
	// stats returns the R-stream statistics, or nil.
	stats() *reese.Stats
}

// retiring is an instruction handed to the shared retire loop: what
// leaves the machine, the latched values that commit and the commit
// slots it takes. tr points into a queue slot that stays valid until
// the next dispatch or enqueue.
type retiring struct {
	seq                 uint64
	tr                  *emu.Trace
	faulty              bool // an injected fault reached the latched values
	result, addr, store uint32
	slots               int
}

// newDetector picks the redundancy scheme cfg describes. The stateless
// schemes are zero-size, so their pointers cost no allocation, and
// pointer receivers spare every hook call the wrapper a value receiver
// would add (about 10% of baseline simulation speed, measured on a
// 2-vCPU Xeon host).
func newDetector(cfg config.Machine) (detector, error) {
	switch {
	case !cfg.Reese.Enabled:
		return &noneDetector{}, nil
	case cfg.HasRSQ():
		q, err := reese.New(cfg.Reese.RSQSize, cfg.Reese.HighWater, cfg.Reese.ReexecuteEvery)
		if err != nil {
			return nil, err
		}
		q.SetRESO(cfg.Reese.RESO)
		return rsqDetector{q}, nil
	case cfg.Reese.Mode == config.ModeDupDispatch:
		return &dupDetector{}, nil
	}
	return nil, fmt.Errorf("pipeline: unknown redundancy mode %v", cfg.Reese.Mode)
}

// stateless holds the hooks of a scheme that keeps no state outside the
// RUU: nothing held, queued, verified after writeback or extrapolated.
type stateless struct{}

func (stateless) held() int                       { return 0 }
func (stateless) issue(c *CPU, budget int) int    { return c.issueP(budget) }
func (stateless) verify(*CPU)                     {}
func (stateless) enter(*CPU)                      {}
func (stateless) commitStall(*CPU) obs.StallCause { return obs.CauseNone }
func (stateless) extrapolate(detector, uint64)    {}
func (stateless) stats() *reese.Stats             { return nil }

func (stateless) recover(_ *CPU, _ uint64, replay []emu.Trace) []emu.Trace {
	return replay
}

// noneDetector is the unprotected baseline machine.
type noneDetector struct{ stateless }

func (*noneDetector) dispatch(c *CPU) int {
	n := 0
	for n < c.cfg.Width && c.dispatchP(0) != nil {
		n++
	}
	return n
}

// A baseline store writes the cache when it issues.
func (*noneDetector) writesCache(*ruu.Entry) bool { return true }

func (*noneDetector) nextRetire(c *CPU, _ int) (retiring, bool) {
	h := c.completedHead()
	if h == nil {
		return retiring{}, false
	}
	c.popRUU(h)
	return retireRUU(h, 1, h.HasFault()), true
}

func (d *noneDetector) clone(detector) detector { return d }

func (*noneDetector) converged(_, g *CPU) bool {
	_, ok := g.det.(*noneDetector)
	return ok
}
