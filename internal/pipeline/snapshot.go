package pipeline

// Checkpoint/fork support for fault campaigns: a golden instrumented
// run takes periodic full-machine snapshots, and each injection trial
// forks from the nearest safe checkpoint instead of re-simulating the
// prefix. Architectural memory travels separately as a copy-on-write
// page image (internal/mem.PageImage) so snapshots share clean pages;
// everything else — pipeline, oracle scalars, predictors, caches,
// queues — is deep-copied here.

import (
	"fmt"

	"reese/internal/bpred"
	"reese/internal/fault"
	"reese/internal/mem"
	"reese/internal/program"
)

// Checkpoint is a resumable machine state captured at a commit-count
// boundary of the golden run.
type Checkpoint struct {
	// Committed is the exact architectural position (retired
	// instruction count) of the snapshot.
	Committed uint64
	// Cycle is the simulated cycle the snapshot was taken at.
	Cycle uint64
	// ICount is the oracle's instruction count — the oracle runs ahead
	// of commit, and an architectural-site fault at sequence s has not
	// fired yet only if ICount <= s.
	ICount uint64
	// HookHorizon is one past the highest sequence number the machine
	// had presented to the writeback/RSQ injection sites. A latch-site
	// fault at sequence s has not fired yet only if HookHorizon <= s.
	HookHorizon uint64
	// StoreCount is the committed-store count at the boundary (the
	// suffix fold of a spliced trial's store digest starts here).
	StoreCount uint64
	// Mem is the architectural memory image at the boundary (pages
	// shared copy-on-write with neighbouring checkpoints).
	Mem *mem.PageImage
	// Accesses is the position in the cache/TLB access logs at the
	// boundary (zeros unless the machine was logging; see
	// StartAccessLog).
	Accesses mem.AccessPos

	cpu *CPU // deep clone; its oracle is detached from any live memory
}

// Snapshot captures the machine into a new Checkpoint. img must be the
// architectural memory image at this instant (the caller owns dirty
// tracking and page sharing); the embedded clone's oracle is detached
// from live memory until Fork rewires it.
func (c *CPU) Snapshot(img *mem.PageImage) *Checkpoint {
	return &Checkpoint{
		Committed:   c.committed,
		Cycle:       c.cycle,
		ICount:      c.oracle.InstCount(),
		HookHorizon: c.hookHorizon,
		StoreCount:  c.storeCount,
		Mem:         img,
		Accesses:    c.hier.AccessPos(),
		cpu:         c.cloneInto(nil, nil),
	}
}

// ForkEligible reports whether a fault targeting sequence number seq
// can be injected into a run forked from this checkpoint: every
// injection site the machine fired before the snapshot must have been
// below seq, so a fresh (unfired) injector behaves exactly as it would
// have in a full run.
func (ck *Checkpoint) ForkEligible(seq uint64) bool {
	return ck.ICount <= seq && ck.HookHorizon <= seq
}

// StateConverged reports whether a live machine has reconverged with
// the golden state this checkpoint captured (see CPU.ConvergedWith).
// Memory is excluded: the campaign compares the live machine's memory
// page-wise against ck.Mem separately.
func (ck *Checkpoint) StateConverged(c *CPU) bool { return c.ConvergedWith(ck.cpu) }

// StateConvergedMasked is StateConverged restricted to what the golden
// suffix after this checkpoint observes (see Suffix): the pattern-table
// entries it reads, the cache and TLB accesses it makes, and the oracle
// registers live at ck.ICount. A nil fut compares exactly.
func (ck *Checkpoint) StateConvergedMasked(c *CPU, fut *Suffix) bool {
	return c.convergedAt(ck.cpu, 0, fut)
}

// PredReadEntries returns the branch predictor's pattern-table size —
// what a bpred.ReadSet must cover — or 0 when the predictor cannot log
// reads (no masked comparison available).
func (c *CPU) PredReadEntries() int {
	if rl, ok := c.pred.(bpred.ReadLogger); ok {
		return rl.NumEntries()
	}
	return 0
}

// SetPredReadLog installs the read-set the branch predictor marks
// consulted pattern-table entries in (nil stops logging). The golden
// instrumented run swaps per-interval sets at each checkpoint boundary
// to build the suffix masks StateConvergedMasked consumes. A no-op for
// predictors that cannot log reads.
func (c *CPU) SetPredReadLog(rs *bpred.ReadSet) {
	if rl, ok := c.pred.(bpred.ReadLogger); ok {
		rl.SetReadLog(rs)
	}
}

// StartAccessLog makes the memory hierarchy log every cache and TLB
// access (a golden instrumented run does, to build Suffix.Accesses);
// checkpoints taken while logging record their log position.
func (c *CPU) StartAccessLog() { c.hier.StartAccessLog() }

// FinishAccessLog stops access logging and returns the indexed log.
func (c *CPU) FinishAccessLog() *mem.HierLog { return c.hier.FinishAccessLog() }

// Fork instantiates a runnable machine from the checkpoint. memory must
// already hold the checkpoint's architectural image (the caller
// restores it from ck.Mem — typically diffing against whatever the
// reused worker memory last held); injector supplies the trial's fault
// (nil for none). dst, when non-nil, is recycled so per-trial forking
// reuses one worker machine's allocations.
func (ck *Checkpoint) Fork(memory *program.Memory, injector fault.Injector, dst *CPU) (*CPU, error) {
	if memory == nil {
		return nil, fmt.Errorf("pipeline: Fork needs a restored memory image")
	}
	cpu := ck.cpu.cloneInto(dst, memory)
	cpu.injector = nil
	if _, none := injector.(fault.None); !none {
		cpu.injector = injector
	}
	return cpu, nil
}

// SetBoundaryHook installs commit-count marks (strictly ascending) and
// a callback the cycle loop invokes once whenever committed first
// reaches the next mark. Returning true stops the run (RunContext
// returns the current state's result). Call before Run.
func (c *CPU) SetBoundaryHook(marks []uint64, fn func(*CPU) bool) {
	c.hookMarks = marks
	c.hookIdx = 0
	c.hookFn = fn
}

// SetHangFastForward enables the fixed-point hang accelerator
// (converge.go): commit droughts are probed at power-of-two depths and,
// once the machine provably repeats the same cycle forever, the run
// jumps straight to the watchdog threshold. Off by default.
func (c *CPU) SetHangFastForward(on bool) { c.hangFF = on }

// OracleMemory exposes the oracle's architectural memory — the single
// data-memory image of the machine — so campaign code can snapshot and
// restore it around forks.
func (c *CPU) OracleMemory() *program.Memory { return c.oracle.Mem() }

// cloneInto deep-copies the whole machine into dst (allocating when dst
// is nil), reusing dst's component allocations where possible. memory
// becomes the clone's architectural memory (nil leaves the cloned
// oracle detached — only valid for stored snapshots that Fork will
// rewire). Instruments and hook state deliberately do not survive the
// copy.
func (c *CPU) cloneInto(dst *CPU, memory *program.Memory) *CPU {
	if dst == nil {
		dst = &CPU{}
	}
	oracle := dst.oracle
	hier := dst.hier
	pool := dst.pool
	r := dst.ruu
	lq := dst.lsq
	det := dst.det
	fq := dst.fetchQ
	rpq := dst.replayQ
	rps := dst.replayScratch

	*dst = *c
	dst.oracle = c.oracle.CloneInto(oracle, memory)
	dst.hier = c.hier.CloneInto(hier)
	// The clone copied the source's word-plane pointer; re-point cache
	// data faults at the clone's own architectural memory.
	if memory != nil {
		dst.hier.SetWordPlane(memory)
	} else {
		dst.hier.SetWordPlane(nil)
	}
	dst.pool = c.pool.CloneInto(pool)
	dst.pred = c.pred.Clone()
	dst.btb = c.btb.Clone()
	dst.ras = c.ras.Clone()
	dst.ruu = c.ruu.CloneInto(r)
	dst.lsq = c.lsq.CloneInto(lq)
	dst.det = c.det.clone(det)
	dst.fetchQ = append(fq[:0], c.fetchQ...)
	dst.replayQ = append(rpq[:0], c.replayQ...)
	// replayScratch contents are dead outside recover(); keep only the
	// backing array for reuse.
	dst.replayScratch = rps[:0]
	dst.detectLat = c.detectLat.Clone()

	dst.inst = Instruments{}
	dst.hookMarks = nil
	dst.hookIdx = 0
	dst.hookFn = nil
	dst.hangFF = false
	dst.ffScratch = nil
	dst.ffProbeAge = 0
	return dst
}

// probeSnapshot captures the machine for a hang fixed-point check,
// recycling the ffScratch clone. The probe shares the live memory
// image: it is read-only, and a wedged machine cannot mutate memory
// anyway (stores drain only at retire, and the oracle — the only
// writer — is not stepping, which the icount comparison enforces).
func (c *CPU) probeSnapshot() *CPU {
	c.ffScratch = c.cloneInto(c.ffScratch, c.oracle.Mem())
	return c.ffScratch
}
