package pipeline

// Convergence detection for checkpoint/fork fault replay (snapshot.go):
// ConvergedWith decides whether a forked trial has returned to the
// golden run's state at a commit boundary (so the rest of the run can
// be spliced from the golden result instead of simulated), and the hang
// fast-forward proves a wedged machine repeats a finite cycle of states
// forever and jumps straight to the watchdog threshold.

import (
	"reese/internal/bpred"
	"reese/internal/emu"
	"reese/internal/isa"
	"reese/internal/mem"
	"reese/internal/ruu"
)

// hangProbeMin is the commit-drought depth at which periodicity probing
// starts; the probe is refreshed at every power-of-two depth after it,
// so a loop of period p is caught once the probe is at least p cycles
// old (Brent's cycle-finding). Real stalls (a full window behind an L2
// miss) resolve in hundreds of cycles, so probing from 1024 keeps the
// clone and compare cost off every path that will ever commit again.
const hangProbeMin = 1024

func relTime(v, now uint64) uint64 {
	if v <= now {
		return 0
	}
	return v - now
}

// Suffix is what the golden run observes after one checkpoint — the
// state a forked trial must match there to be future-equivalent. Trial
// state the suffix never observes may differ: the splicer carries such
// differences into the trial's final digests and memory diff instead.
type Suffix struct {
	// PredReads marks the branch-predictor pattern-table entries the
	// golden suffix consults (bpred.ReadSet; see readset.go for the
	// soundness argument). Recovery replay retrains the tables, so exact
	// equality would reject most recovered trials over counters that
	// are never read again. Nil compares the predictor exactly.
	PredReads *bpred.ReadSet
	// Accesses is the golden run's cache/TLB access log and At this
	// checkpoint's position in it; differing sets are compared by
	// replaying the suffix's accesses (mem.Hierarchy.FutureEqual). A nil
	// log compares the hierarchy exactly.
	Accesses *mem.HierLog
	At       mem.AccessPos
	// LiveInt and LiveFP mark the registers the golden oracle reads
	// before writing them at or after the checkpoint's ICount; only
	// those must match. The oracle store hash need not match either —
	// the splicer folds it — but the store count must.
	LiveInt, LiveFP uint32
}

// oracleEqual compares the oracles' scalar architectural state (memory
// is the caller's job — trial memory is compared word-wise against the
// golden boundary image by the campaign, and the hang probe needs no
// memory check because an equal instruction count means the oracle —
// the only memory writer — did not step). A nil fut compares exactly;
// otherwise registers are compared on fut's live-in sets and the store
// hash is left to the splicer's fold. Sound because the oracle reads a
// register only as an instruction source: equal live-ins, PC and memory
// reads make every suffix instruction compute the golden values, and a
// register the suffix writes before reading ends at its golden value
// whatever it held at the boundary.
func oracleEqual(a, b *emu.Machine, fut *Suffix) bool {
	if a.PC() != b.PC() || a.InstCount() != b.InstCount() || a.Halted() != b.Halted() ||
		a.StoreCount() != b.StoreCount() {
		return false
	}
	if fut == nil {
		if a.RegFile() != b.RegFile() || a.FRegFile() != b.FRegFile() || a.StoreHash() != b.StoreHash() {
			return false
		}
	} else {
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if fut.LiveInt&(1<<r) != 0 && a.Reg(r) != b.Reg(r) {
				return false
			}
			if fut.LiveFP&(1<<r) != 0 && a.FReg(r) != b.FReg(r) {
				return false
			}
		}
	}
	ao, bo := a.Output(), b.Output()
	if len(ao) != len(bo) {
		return false
	}
	for i := range ao {
		if ao[i] != bo[i] {
			return false
		}
	}
	return true
}

// ConvergedWith reports whether this machine's microarchitectural and
// oracle state matches g's under sequence/time normalization — i.e.
// whether both machines provably behave identically from their
// respective "now" onward. Shadow commit state (registers, store
// digest) is deliberately excluded: it is output-only, and splicing
// folds it separately. Statistics counters are excluded likewise.
//
// Memory is NOT compared here; callers must establish it separately.
func (c *CPU) ConvergedWith(g *CPU) bool { return c.convergedAt(g, 0, nil) }

// convergedAt is ConvergedWith with two refinements. droughtDelta is an
// expected commit-drought skew: c's distance into its current no-commit
// stretch must exceed g's by exactly that much. Boundary splicing uses
// 0 (both machines must hang at the same relative time, or not at all);
// the hang probe uses the candidate period p, because it compares a
// machine against its own state p cycles earlier, mid-drought.
//
// fut, when non-nil, bounds the predictor, cache/TLB and oracle
// register comparisons to what the golden suffix after g observes (see
// Suffix). The hang probe passes nil: it compares a machine with its
// own past, which has no logged future, so it compares exactly.
func (c *CPU) convergedAt(g *CPU, droughtDelta uint64, fut *Suffix) bool {
	// A stuck-unit fault makes past unit assignments behaviorally
	// relevant (they are excluded from the entry comparison), so refuse
	// outright.
	if c.stuck != nil || g.stuck != nil {
		return false
	}
	if c.dupMode != g.dupMode || c.hangLimit != g.hangLimit {
		return false
	}
	if c.committed != g.committed || c.done != g.done || c.permError != g.permError ||
		c.hanged != g.hanged || c.oracleDone != g.oracleDone {
		return false
	}
	// Watchdog window: the distance into the current commit drought must
	// match (up to the caller's expected skew) or the two machines hang
	// at different relative times.
	if c.lastCommitted != g.lastCommitted ||
		c.cycle-c.lastCommitCycle != g.cycle-g.lastCommitCycle+droughtDelta {
		return false
	}
	// Front end.
	if c.fetchStalled != g.fetchStalled ||
		relTime(c.fetchReadyAt, c.cycle) != relTime(g.fetchReadyAt, g.cycle) {
		return false
	}
	if c.wrongPath != g.wrongPath {
		return false
	}
	if c.wrongPath {
		if c.wpPC != g.wpPC || c.wpHistSnap != g.wpHistSnap || c.wpMarked != g.wpMarked {
			return false
		}
		if c.wpMarked && c.lsq.NormSeq(c.wpLsqMark) != g.lsq.NormSeq(g.wpLsqMark) {
			return false
		}
	}
	if c.hasPending != g.hasPending || (c.hasPending && c.pending != g.pending) {
		return false
	}
	if c.hasWPPending != g.hasWPPending || (c.hasWPPending && c.wpPending != g.wpPending) {
		return false
	}
	if c.fetchLen != g.fetchLen {
		return false
	}
	for i := 0; i < c.fetchLen; i++ {
		a, b := c.fetchQAt(i), g.fetchQAt(i)
		if a.tr != b.tr || a.mispredicted != b.mispredicted ||
			a.histSnap != b.histSnap || a.bogus != b.bogus {
			return false
		}
		// fetchedAt is observability backdating only, always in the past:
		// it normalizes to zero on both sides.
	}
	if len(c.replayQ)-c.replayHead != len(g.replayQ)-g.replayHead {
		return false
	}
	for i := 0; i < len(c.replayQ)-c.replayHead; i++ {
		if c.replayQ[c.replayHead+i] != g.replayQ[g.replayHead+i] {
			return false
		}
	}
	if c.rLive != g.rLive {
		return false
	}
	// Oracle plane.
	if !oracleEqual(c.oracle, g.oracle, fut) {
		return false
	}
	// Predictors and timing structures.
	if rl, ok := c.pred.(bpred.ReadLogger); fut != nil && fut.PredReads != nil && ok {
		if !rl.StateEqualOn(g.pred, fut.PredReads) {
			return false
		}
	} else if !c.pred.StateEqual(g.pred) {
		return false
	}
	if !c.btb.StateEqualRanked(g.btb) || !c.ras.StateEqual(g.ras) {
		return false
	}
	if fut != nil && fut.Accesses != nil {
		if !c.hier.FutureEqual(g.hier, fut.Accesses, fut.At) {
			return false
		}
	} else if !c.hier.StateEqualRanked(g.hier) {
		return false
	}
	if !c.pool.StateEqualAt(g.pool, c.cycle, g.cycle) {
		return false
	}
	// Window state.
	if !ruu.Converged(c.ruu, g.ruu, c.lsq, g.lsq, c.cycle, g.cycle) {
		return false
	}
	if (c.rsq == nil) != (g.rsq == nil) {
		return false
	}
	if c.rsq != nil {
		if !c.rsq.StateConverged(g.rsq, c.cycle, g.cycle, c.lsq.NormSeq, g.lsq.NormSeq) {
			return false
		}
		// Under partial re-execution the skip decision of FUTURE enqueues
		// depends on absolute sequence numbers, so relative convergence
		// is not enough: require exact alignment.
		if c.rsq.Every() > 1 && c.ruu.NextSeq() != g.ruu.NextSeq() {
			return false
		}
	}
	return true
}

// hangCounters is the per-cycle accumulator snapshot the hang
// fast-forward extrapolates: every counter that feeds Result and can
// advance during a wedged cycle.
type hangCounters struct {
	fetchICacheStallCycles uint64
	fetchBranchStallCycles uint64
	dispatchRUUFull        uint64
	dispatchLSQFull        uint64
	branches               uint64
	mispredicts            uint64
	wpFetched              uint64
	wpSquashed             uint64
	rsqOccSum              uint64
	detected               uint64
	recoveries             uint64
}

func (c *CPU) hangCounters() hangCounters {
	return hangCounters{
		fetchICacheStallCycles: c.fetchICacheStallCycles,
		fetchBranchStallCycles: c.fetchBranchStallCycles,
		dispatchRUUFull:        c.dispatchRUUFull,
		dispatchLSQFull:        c.dispatchLSQFull,
		branches:               c.branches,
		mispredicts:            c.mispredicts,
		wpFetched:              c.wpFetched,
		wpSquashed:             c.wpSquashed,
		rsqOccSum:              c.rsqOccSum,
		detected:               c.detected,
		recoveries:             c.recoveries,
	}
}

// tryHangFastForward checks whether the machine has become periodic —
// behaviorally identical to the probe snapshot g taken p = c.cycle -
// g.cycle cycles earlier in the same commit drought — and if so jumps
// the clock to the exact cycle at which the no-commit watchdog fires.
// Sound by induction: a deterministic machine whose complete behavioral
// state repeats after p cycles repeats it forever, so it can never
// commit again and the watchdog verdict is already decided.
//
// Two hang shapes occur in practice: a truly wedged machine (fetch PC
// off the text segment, oracle stream exhausted) reaches a period-1
// fixed point, while a REESE detection/recovery livelock — recovery
// restores clean state, replay re-derives the corruption, detection
// fires again — cycles with the period of the whole recovery loop.
// Holding one probe and comparing every subsequent cycle catches any
// period up to the probe's age (Brent's cycle-finding).
//
// Per-cycle accumulators (stall ledger, cache/FU stats, fault and
// recovery counters, latency histogram) are extrapolated over the k =
// floor((target-now)/p) whole periods that fit before the watchdog;
// the final sub-period tail (< p cycles) is attributed as if the loop
// stopped at its last whole period. The watchdog cycle count itself,
// the frozen commit state, and the hang verdict are exact.
func (c *CPU) tryHangFastForward(g *CPU) bool {
	if c.hanged || c.done || c.permError || c.committed != g.committed {
		return false
	}
	p := c.cycle - g.cycle
	if p == 0 {
		return false
	}
	// Detection bookkeeping that is behavioral (feeds recovery
	// decisions) must match at the same phase of the loop.
	if c.lastBadLive != g.lastBadLive || c.lastBadPC != g.lastBadPC {
		return false
	}
	if !c.convergedAt(g, p, nil) {
		return false
	}
	target := c.lastCommitCycle + c.hangLimit
	if target <= c.cycle {
		return false
	}
	k := (target - c.cycle) / p
	if k == 0 {
		return false
	}

	// Extrapolate accumulators: cur + (cur - prev) * k, where cur - prev
	// is exactly one period's growth.
	cur, prev := c.hangCounters(), g.hangCounters()
	c.fetchICacheStallCycles += (cur.fetchICacheStallCycles - prev.fetchICacheStallCycles) * k
	c.fetchBranchStallCycles += (cur.fetchBranchStallCycles - prev.fetchBranchStallCycles) * k
	c.dispatchRUUFull += (cur.dispatchRUUFull - prev.dispatchRUUFull) * k
	c.dispatchLSQFull += (cur.dispatchLSQFull - prev.dispatchLSQFull) * k
	c.branches += (cur.branches - prev.branches) * k
	c.mispredicts += (cur.mispredicts - prev.mispredicts) * k
	c.wpFetched += (cur.wpFetched - prev.wpFetched) * k
	c.wpSquashed += (cur.wpSquashed - prev.wpSquashed) * k
	c.rsqOccSum += (cur.rsqOccSum - prev.rsqOccSum) * k
	c.detected += (cur.detected - prev.detected) * k
	c.recoveries += (cur.recoveries - prev.recoveries) * k
	c.detectLat.ExtrapolateFrom(g.detectLat, k)
	for s := range c.stalls.Used {
		c.stalls.Used[s] += (c.stalls.Used[s] - g.stalls.Used[s]) * k
		for cause := range c.stalls.Stalls[s] {
			c.stalls.Stalls[s][cause] += (c.stalls.Stalls[s][cause] - g.stalls.Stalls[s][cause]) * k
		}
	}
	c.pool.ExtrapolateStats(g.pool.Stats(), k)
	c.hier.L1I.ExtrapolateStats(g.hier.L1I.Stats(), k)
	c.hier.L1D.ExtrapolateStats(g.hier.L1D.Stats(), k)
	c.hier.L2.ExtrapolateStats(g.hier.L2.Stats(), k)
	if c.rsq != nil {
		c.rsq.ExtrapolateStats(g.rsq.Stats(), k)
	}
	c.hangPeriod = p
	c.ffSkipped = target - c.cycle
	c.cycle = target
	return true
}
