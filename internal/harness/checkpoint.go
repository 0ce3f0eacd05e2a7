package harness

// Checkpoint/fork fast-forward for fault campaigns.
//
// The old campaign engine simulated every trial from cycle 0, even
// though a trial's execution is byte-identical to the uninjected golden
// run until its fault fires, and usually reconverges with the golden
// run shortly after the fault is detected or dies out. This file
// removes both redundancies:
//
//   - One instrumented golden run per (workload, target, machine,
//     interval) takes periodic full-machine snapshots
//     (pipeline.Checkpoint: pipeline + oracle scalars, predictors,
//     caches, queues, plus a copy-on-write page image of architectural
//     memory). Each trial forks from the latest checkpoint that
//     provably precedes its injection point and simulates only the
//     suffix.
//   - At every later golden commit boundary the trial is compared
//     against the golden machine under sequence/cycle normalization, on
//     everything the golden suffix will observe (pipeline.Suffix:
//     predictor reads, cache/TLB accesses, live registers, memory words
//     it loads or stores). Once future-equivalent, the rest of the run
//     is spliced from the golden result instead of simulated: final
//     digests are reconstructed by folding the trial's divergent state
//     with the golden suffix, the memory diff is the boundary diff, and
//     the cycle count is the golden total shifted by the trial's
//     boundary offset. Trials that never reconverge (SDC, hangs) simply
//     keep simulating — the fallback is always sound.
//
// Everything here preserves the engine's core contract: equal specs
// produce byte-identical reports at any parallelism, and every
// per-trial record matches what a full from-scratch simulation of that
// trial would have produced.

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"

	"reese/internal/bpred"
	"reese/internal/config"
	"reese/internal/emu"
	"reese/internal/fault"
	"reese/internal/isa"
	"reese/internal/mem"
	"reese/internal/obs"
	"reese/internal/pipeline"
	"reese/internal/program"
	"reese/internal/workload"
)

// DefaultCheckpointInterval is the golden-run snapshot spacing in
// committed instructions when CampaignSpec.CheckpointInterval is 0.
// Smaller intervals shorten the simulated suffix per trial but grow
// snapshot cost and memory; 512 keeps both small at campaign scale.
const DefaultCheckpointInterval = 512

// storeRec is one architectural store of the golden run, in commit
// order — the suffix material for splicing a trial's store digest.
type storeRec struct {
	addr, width, value uint32
}

// destNone marks a dynamic instruction that writes no register.
const destNone = 0xFF

// emuGoldenCache memoizes the emulator-plane golden scan per
// (workload, target): the digest, victim-eligibility lists, store
// trace, and per-instruction destination registers are pure functions
// of those two keys and are shared by every campaign — REESE and
// baseline machines alike.
var emuGoldenCache sync.Map // emuGoldenKey -> *emuGoldenEntry

type emuGoldenKey struct {
	workload string
	target   uint64
}

type emuGoldenEntry struct {
	once sync.Once
	g    *golden
	prog *program.Program
	err  error
}

// goldenForSpec is the memoizing front end to goldenScan. The returned
// golden is shared and must be treated as immutable.
func goldenForSpec(wspec workload.Spec, target uint64) (*golden, *program.Program, error) {
	v, _ := emuGoldenCache.LoadOrStore(emuGoldenKey{wspec.Name, target}, &emuGoldenEntry{})
	e := v.(*emuGoldenEntry)
	e.once.Do(func() {
		e.g, e.prog, e.err = goldenScan(wspec, target)
	})
	return e.g, e.prog, e.err
}

// bundleCache memoizes the instrumented golden pipeline run (snapshots
// and all) per (workload, target, machine, interval). A sweep that runs
// many campaigns on the same configuration — or a server replaying the
// same request — pays for the golden run once per process.
var bundleCache sync.Map // bundleKey -> *bundleEntry

type bundleKey struct {
	workload string
	target   uint64
	machine  uint64
	interval uint64
}

type bundleEntry struct {
	once sync.Once
	b    *campaignBundle
	err  error
}

// machineHash fingerprints a machine configuration for memo keys. The
// %#v rendering covers every field, nested structs included, so two
// configs hash equal only when they simulate identically.
func machineHash(m config.Machine) uint64 {
	return emu.HashBytes([]byte(fmt.Sprintf("%#v", m)))
}

// campaignBundle is everything one (workload, machine) pair's trials
// fork from: the emulator-plane golden, the golden pipeline run's final
// result and digests, the checkpoint chain, and per-boundary metadata
// for splicing.
type campaignBundle struct {
	g    *golden
	prog *program.Program

	// checkpoints[0] is the pre-run state (committed 0, always fork-
	// eligible); the rest land one per crossed interval boundary, at the
	// exact committed counts in marks (marks[i] ==
	// checkpoints[i+1].Committed).
	checkpoints []*pipeline.Checkpoint
	marks       []uint64
	// written[i] is the set of (int, fp) registers the golden run
	// writes at or after checkpoints[i].Committed — the registers whose
	// final committed value the golden suffix determines regardless of
	// a trial's shadow state at the boundary. oracleWritten[i] is the
	// same from the oracle's position checkpoints[i].ICount, for the
	// oracle digest fold.
	written       [][2]uint32
	oracleWritten [][2]uint32
	// suffix[i] is what the golden run observes after checkpoints[i]:
	// predictor reads, cache/TLB accesses and live-in registers (see
	// pipeline.Suffix). A trial is compared at a boundary only on those;
	// whatever else differs is carried into its final digests and
	// memory diff by the splicer.
	suffix []pipeline.Suffix

	finalRes    pipeline.Result
	finalCommit emu.Digest
	finalOracle emu.Digest
	// finalMem is the golden run's final architectural memory image.
	// Direct memory-plane corruption (a flipped RAM word no instruction
	// ever reloads, a lost write-back) is invisible to the register/
	// store/output digests; trials that run to completion compare their
	// final memory against this image to catch such escapes.
	finalMem *mem.PageImage

	budget uint64

	// workers recycles per-trial machines and memory images: forking
	// into a recycled CPU reuses its slice allocations, and the memory
	// image is restored by page diffing instead of a full 8 MiB copy.
	workers sync.Pool

	// locks recycles lockstep golden emulators for the triage pass
	// (triage.go). lockSnaps (built on first use) holds detached golden
	// emulator scalars at every checkpoint boundary, so a replay's
	// lockstep golden starts at the fork — no per-escape fast-forward
	// from instruction zero — with its memory page-diffed from the
	// checkpoint image like any trial worker.
	locks     sync.Pool
	lockOnce  sync.Once
	lockSnaps []*emu.Machine
	lockErr   error
}

// bundleForSpec builds (or returns the memoized) campaign bundle for a
// defaulted spec.
func bundleForSpec(spec CampaignSpec, wspec workload.Spec) (*campaignBundle, error) {
	key := bundleKey{
		workload: spec.Workload,
		target:   spec.TargetInsts,
		machine:  machineHash(spec.Machine),
		interval: spec.CheckpointInterval,
	}
	v, _ := bundleCache.LoadOrStore(key, &bundleEntry{})
	e := v.(*bundleEntry)
	e.once.Do(func() {
		e.b, e.err = buildBundle(spec, wspec)
	})
	return e.b, e.err
}

// buildBundle runs the instrumented golden pipeline simulation: one
// full run with dirty-tracked memory, snapshotting the whole machine at
// every interval boundary, then derives the splice metadata.
func buildBundle(spec CampaignSpec, wspec workload.Spec) (*campaignBundle, error) {
	g, prog, err := goldenForSpec(wspec, spec.TargetInsts)
	if err != nil {
		return nil, err
	}
	cpu, err := pipeline.New(spec.Machine, prog, fault.None{})
	if err != nil {
		return nil, err
	}
	b := &campaignBundle{
		g:      g,
		prog:   prog,
		budget: 2*g.total + 20_000,
	}

	interval := spec.CheckpointInterval
	var hookMarks []uint64
	for m := interval; m < g.total; m += interval {
		hookMarks = append(hookMarks, m)
	}
	// Cache/TLB access log for the golden-suffix comparison. Without a
	// boundary no trial can splice, so a single-checkpoint bundle keeps
	// none.
	if len(hookMarks) > 0 {
		cpu.StartAccessLog()
	}

	memory := cpu.OracleMemory()
	memory.EnableDirtyTracking()
	img := mem.SnapshotPages(memory.Bytes(), nil, nil)
	memory.ClearDirty()
	b.checkpoints = append(b.checkpoints, cpu.Snapshot(img))

	// Per-interval predictor read logs; reverse-accumulated into suffix
	// masks below. predEntries is 0 for predictors that cannot log.
	predEntries := cpu.PredReadEntries()
	var intervals []*bpred.ReadSet
	var curReads *bpred.ReadSet
	if predEntries > 0 {
		curReads = bpred.NewReadSet(predEntries)
		cpu.SetPredReadLog(curReads)
	}

	cpu.SetBoundaryHook(hookMarks, func(c *pipeline.CPU) bool {
		next := mem.SnapshotPages(memory.Bytes(), memory.DirtyPages(), img)
		memory.ClearDirty()
		img = next
		b.checkpoints = append(b.checkpoints, c.Snapshot(img))
		if curReads != nil {
			intervals = append(intervals, curReads)
			curReads = bpred.NewReadSet(predEntries)
			cpu.SetPredReadLog(curReads)
		}
		return false
	})

	res, err := cpu.Run(b.budget)
	if err != nil {
		return nil, fmt.Errorf("harness: golden pipeline run of %s on %s: %w", spec.Workload, spec.Machine.Name, err)
	}
	var accesses *mem.HierLog
	if len(hookMarks) > 0 {
		accesses = cpu.FinishAccessLog()
	}
	b.finalRes = res
	b.finalCommit = cpu.CommitDigest()
	b.finalOracle = cpu.OracleDigest()
	b.finalMem = mem.SnapshotPages(memory.Bytes(), memory.DirtyPages(), img)
	// The splice algebra assumes the golden pipeline run retires the
	// exact architectural work of the emulator reference. A mismatch is
	// a simulator bug; refusing here beats silently misclassifying
	// every spliced trial.
	if b.finalCommit != g.digest || b.finalOracle != g.digest {
		return nil, fmt.Errorf("harness: golden pipeline run of %s on %s diverged from the emulator reference", spec.Workload, spec.Machine.Name)
	}

	b.marks = make([]uint64, 0, len(b.checkpoints)-1)
	for _, ck := range b.checkpoints[1:] {
		b.marks = append(b.marks, ck.Committed)
	}

	// predReads[i]: pattern-table entries consulted at or after
	// checkpoints[i], by reverse union of the interval logs (intervals[j]
	// covers checkpoint j to j+1; the tail after the last checkpoint is
	// appended here).
	var predReads []*bpred.ReadSet
	if curReads != nil {
		cpu.SetPredReadLog(nil)
		intervals = append(intervals, curReads)
		if len(intervals) != len(b.checkpoints) {
			return nil, fmt.Errorf("harness: %d predictor read intervals for %d checkpoints", len(intervals), len(b.checkpoints))
		}
		predReads = make([]*bpred.ReadSet, len(b.checkpoints))
		acc := bpred.NewReadSet(predEntries)
		for i := len(intervals) - 1; i >= 0; i-- {
			intervals[i].OrInto(acc)
			predReads[i] = acc.Clone()
		}
	}

	// One backward scan over the golden instruction stream. At position
	// p (before instruction p), w holds the registers written at or after
	// p and live those read at or after p before being written there:
	// live(p) = uses(p) | live(p+1) &^ defs(p). written samples w at each
	// checkpoint's commit position; oracleWritten and the live-in masks
	// sample w and live at its oracle position. Sources are decoded from
	// the golden PC stream, destinations come from the golden scan.
	n := len(b.checkpoints)
	b.written = make([][2]uint32, n)
	b.oracleWritten = make([][2]uint32, n)
	b.suffix = make([]pipeline.Suffix, n)
	dec := prog.Decoded()
	var w, live [2]uint32
	ci, oi := n-1, n-1
	for p := int64(g.total); p >= 0; p-- {
		if p < int64(g.total) {
			if r := g.destReg[p]; r != destNone {
				f := b2i(g.destFP[p])
				w[f] |= 1 << (r & 31)
				live[f] &^= 1 << (r & 31)
			}
			if in, ok := dec.At(g.pcs[p]); ok {
				f1, f2 := in.Op.SourceFiles()
				if in.Op.ReadsRs1() {
					live[b2i(f1 == isa.FileFP)] |= 1 << (in.Rs1 & 31)
				}
				if in.Op.ReadsRs2() {
					live[b2i(f2 == isa.FileFP)] |= 1 << (in.Rs2 & 31)
				}
			} else {
				live = [2]uint32{^uint32(0), ^uint32(0)}
			}
		}
		for ; ci >= 0 && b.checkpoints[ci].Committed >= uint64(p); ci-- {
			b.written[ci] = w
		}
		for ; oi >= 0 && b.checkpoints[oi].ICount >= uint64(p); oi-- {
			b.oracleWritten[oi] = w
			b.suffix[oi] = pipeline.Suffix{
				Accesses: accesses,
				At:       b.checkpoints[oi].Accesses,
				LiveInt:  live[0],
				LiveFP:   live[1],
			}
			if predReads != nil {
				b.suffix[oi].PredReads = predReads[oi]
			}
		}
	}
	return b, nil
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

// forkPoint returns the index of the latest checkpoint a fault aimed at
// seq can fork from. Checkpoint 0 (the pre-run state) is always
// eligible.
func (b *campaignBundle) forkPoint(seq uint64) int {
	for i := len(b.checkpoints) - 1; i > 0; i-- {
		if b.checkpoints[i].ForkEligible(seq) {
			return i
		}
	}
	return 0
}

// boundaryIndex maps a trial's committed count at a boundary hook to
// the matching checkpoint index. A miss (the trial's commit bundle
// overshot the golden boundary by a different amount) means states
// cannot be aligned at this boundary; the caller keeps simulating.
func (b *campaignBundle) boundaryIndex(committed uint64) (int, bool) {
	i := sort.Search(len(b.marks), func(i int) bool { return b.marks[i] >= committed })
	if i < len(b.marks) && b.marks[i] == committed {
		return i + 1, true
	}
	return 0, false
}

// campaignWorker is one recycled trial executor: a fork-destination CPU
// and a memory image restored by page diffing between trials. The
// bundle's locks pool recycles the same type for triage lockstep
// goldens, filling lock instead of cpu.
type campaignWorker struct {
	cpu *pipeline.CPU
	mem *program.Memory
	// prov[p] identifies (by page-content address) which snapshot page
	// the worker's page p currently equals; nil means unknown. Pages the
	// previous trial dirtied are invalidated, so adoption copies only
	// pages that actually differ from the wanted image.
	prov []*byte
	// lock is the recycled lockstep golden emulator (locks pool only).
	lock *emu.Machine
	// rec is the recycled triage flight-recorder ring (locks pool only).
	rec *obs.Recorder
}

// adopt restores the worker's memory to the checkpoint image, copying
// only pages whose provenance differs, and resets dirty tracking so the
// trial's own writes can be diffed at reconvergence boundaries.
func (w *campaignWorker) adopt(prog *program.Program, img *mem.PageImage) error {
	if w.mem == nil {
		m, err := program.LoadMemory(prog)
		if err != nil {
			return err
		}
		w.mem = m
		w.mem.EnableDirtyTracking()
		w.prov = make([]*byte, img.NumPages())
	}
	for p, d := range w.mem.DirtyPages() {
		if d {
			w.prov[p] = nil
		}
	}
	for p := 0; p < img.NumPages(); p++ {
		pg := img.PageAt(p)
		ptr := &pg[0]
		if w.prov[p] == ptr {
			continue
		}
		w.mem.Overwrite(p*mem.PageSize, pg)
		w.prov[p] = ptr
	}
	w.mem.ClearDirty()
	return nil
}

// memDiff measures how the worker's live memory differs from img: the
// count of differing 32-bit words and the address span [lo, hi] they
// cover. Pages neither the trial wrote since the fork nor the golden
// run changed between fork and img (same page identity) are identical
// by construction and are skipped. ok is false — and the scan stops —
// at the first differing word the golden run loads or stores at or
// after dynamic index from: at a splice boundary (from = the
// checkpoint's oracle position) only words the golden suffix never
// touches may differ, and those then stay different to the end, so the
// boundary diff is the trial's final diff. The final diff passes from
// = g.total, which no access reaches.
func (w *campaignWorker) memDiff(fork, img *mem.PageImage, g *golden, from uint64) (words int, lo, hi uint32, ok bool) {
	dirty := w.mem.DirtyPages()
	live := w.mem.Bytes()
	lo = ^uint32(0)
	for p := 0; p < img.NumPages(); p++ {
		bp := img.PageAt(p)
		fp := fork.PageAt(p)
		if !dirty[p] && &fp[0] == &bp[0] {
			continue
		}
		base := p * mem.PageSize
		lv := live[base : base+len(bp)]
		if bytes.Equal(lv, bp) {
			continue
		}
		for o := 0; o+4 <= len(bp); o += 4 {
			if lv[o] != bp[o] || lv[o+1] != bp[o+1] || lv[o+2] != bp[o+2] || lv[o+3] != bp[o+3] {
				a := uint32(base + o)
				if !g.lastUseBefore(a, from) {
					return 0, 0, 0, false
				}
				words++
				lo, hi = min(lo, a), max(hi, a)
			}
		}
	}
	if words == 0 {
		lo = 0
	}
	return words, lo, hi, true
}

// getWorker pops a recycled worker (or makes a fresh one).
func (b *campaignBundle) getWorker() *campaignWorker {
	if w, ok := b.workers.Get().(*campaignWorker); ok {
		return w
	}
	return &campaignWorker{}
}

// runTrial executes one planned trial by forking from the nearest
// eligible checkpoint, filling in the trial's outcome fields exactly as
// a full from-scratch simulation would have.
func (b *campaignBundle) runTrial(ctx context.Context, t *Trial, opt Options) error {
	return b.simulate(ctx, t, opt, pipeline.Instruments{}, false)
}

// simulate is runTrial with extra instruments armed on the forked
// machine (opt.Progress is always added). The triage replay (triage.go)
// arms the flight recorder and the lockstep commit watch through it,
// with replay set: a replay never splices — its instruments must see
// the run itself, not a boundary where it stopped early, so its record
// cannot depend on the checkpoint schedule — and records no trial cost.
// Instruments are pure observers, so an instrumented run is
// byte-identical to a bare one.
func (b *campaignBundle) simulate(ctx context.Context, t *Trial, opt Options, inst pipeline.Instruments, replay bool) error {
	st, _ := fault.ParseStruct(t.Structure)
	inj := &fault.AtStruct{Struct: st, Seq: t.Seq, Bit: t.Bit, Reg: t.Reg, Addr: t.Addr, Seq2: t.Seq2}

	w := b.getWorker()
	defer b.workers.Put(w)

	fork := b.checkpoints[b.forkPoint(t.Seq)]
	if err := w.adopt(b.prog, fork.Mem); err != nil {
		return err
	}
	cpu, err := fork.Fork(w.mem, inj, w.cpu)
	if err != nil {
		return err
	}
	w.cpu = cpu
	inst.Progress = opt.Progress
	cpu.Instrument(inst)
	cpu.SetHangFastForward(true)

	// At every golden boundary after the fault fires, try to splice: if
	// the trial is future-equivalent to the golden state — everything
	// the golden suffix observes (micro-architecture, predictor reads,
	// cache/TLB accesses, live registers, memory words) matches — the
	// rest of the run is the golden suffix and needs no simulation.
	// What the suffix never observes (dead registers, unread memory
	// words, the oracle's store-hash prefix) is carried into the final
	// digests and memory diff.
	splicedAt := -1
	var splicedCommit, splicedOracle emu.Digest
	var diffWords int
	var diffLo, diffHi uint32
	if !replay {
		cpu.SetBoundaryHook(b.marks, func(c *pipeline.CPU) bool {
			if !inj.Fired() {
				return false
			}
			bi, ok := b.boundaryIndex(c.Committed())
			if !ok {
				return false
			}
			ck := b.checkpoints[bi]
			if !ck.StateConvergedMasked(c, &b.suffix[bi]) {
				return false
			}
			words, lo, hi, ok := w.memDiff(fork.Mem, ck.Mem, b.g, ck.ICount)
			if !ok {
				return false
			}
			splicedAt = bi
			diffWords, diffLo, diffHi = words, lo, hi
			splicedCommit = b.spliceDigest(b.finalCommit, c.CommitDigest(), b.written[bi], ck.StoreCount)
			od := c.OracleDigest()
			splicedOracle = b.spliceDigest(b.finalOracle, od, b.oracleWritten[bi], od.StoreCount)
			return true
		})
	}

	res, err := cpu.RunContext(ctx, b.budget)
	if err != nil {
		return err
	}
	simCycles := res.Cycles - fork.Cycle - cpu.SkippedCycles()

	commit, oracle := cpu.CommitDigest(), cpu.OracleDigest()
	if splicedAt >= 0 {
		ck := b.checkpoints[splicedAt]
		// The trial ran [fork, boundary] live; the golden run covers the
		// rest. Total cycles are the golden total shifted by how far the
		// trial's boundary arrival drifted from the golden run's (a
		// recovery replays instructions, so the drift is the recovery
		// penalty and stays in the final count).
		res.Cycles = b.finalRes.Cycles + (res.Cycles - ck.Cycle)
		res.Committed = b.finalRes.Committed
		res.Hanged = false
		commit, oracle = splicedCommit, splicedOracle
	}

	t.Fired = inj.Fired()
	t.outcome = classify(res, commit, oracle, b.g.digest)
	// Carried for the triage pass: the exact digests classification saw
	// (spliced when the trial spliced) verify a replay byte for byte, the
	// Brent probe's loop period explains hangs, and the injection cycle
	// anchors prefix verification of early-stopped replays.
	t.commitDig, t.oracleDig = commit, oracle
	t.hangPeriod = res.HangPeriod
	t.faultCycle = cpu.FaultCycle()

	// Direct memory-plane corruption can escape every digest: a flipped
	// RAM word nothing reloads, a reverted write-back. Trials that ran
	// live to completion compare their final memory against the golden
	// image; a spliced trial's final diff is its boundary diff (above),
	// a hung trial's memory is mid-flight (the hang verdict already
	// stands on its own), and an early-stopped triage replay's memory is
	// mid-flight too — its caller ignores the classification fields
	// entirely.
	trialOut := b.g.out
	if splicedAt < 0 && !res.Hanged && !cpu.StopRequested() {
		diffWords, diffLo, diffHi, _ = w.memDiff(fork.Mem, b.finalMem, b.g, b.g.total)
		trialOut = cpu.Output()
	}
	t.diffWords, t.diffLo = diffWords, diffLo
	switch {
	case inj.EccCorrected():
		// SECDED absorbed a single-bit flip: effective, never an escape.
		t.outcome = fault.OutcomeCorrected
	case inj.EccDetected() && t.outcome != fault.OutcomeHang:
		// Double-bit flip flagged detected-uncorrectable by SECDED.
		t.outcome = fault.OutcomeDetected
	case diffWords > 0 && t.outcome == fault.OutcomeMasked:
		t.outcome = fault.OutcomeSDC
	case diffWords > 0 && t.outcome == fault.OutcomeRecovered:
		t.outcome = fault.OutcomeDetected
	}
	t.Outcome = t.outcome.String()
	t.Cycles = res.Cycles
	t.Committed = res.Committed
	t.Latency = 0
	if t.outcome == fault.OutcomeDetected || t.outcome == fault.OutcomeRecovered {
		t.Latency = res.DetectionLatencyMax
	}
	t.Locale = ""
	if t.outcome != fault.OutcomeMasked {
		t.Locale = localize(symptoms{
			eccCorrected: inj.EccCorrected(),
			eccDetected:  inj.EccDetected(),
			detections:   res.FaultsDetected,
			hanged:       t.outcome == fault.OutcomeHang,
			diffWords:    diffWords,
			diffLo:       diffLo,
			diffHi:       diffHi,
		}, b.g.out, trialOut)
	}
	if opt.TrialCost && !replay {
		end := "ran"
		switch {
		case splicedAt >= 0:
			end = "spliced"
		case res.Hanged:
			end = "hang"
		}
		t.TrialCost = &TrialCost{End: end, ForkSeq: fork.Committed, SimCycles: simCycles}
	}
	return nil
}

// spliceDigest reconstructs the final digest (commit or oracle) of a
// trial that reconverged at a boundary, without simulating the suffix.
// final is the golden run's final digest of the same kind, boundary the
// trial's at the boundary, written the registers the golden run writes
// from the boundary's position on, and from the number of golden stores
// before that position:
//
//   - registers the golden run writes in the suffix end at their golden
//     final values; the rest keep the trial's boundary values (this is
//     how a committed-but-dead corruption, or a dead oracle register,
//     still surfaces as SDC);
//   - the store digest folds the golden suffix store sequence onto the
//     trial's boundary hash (the suffix's stores match the golden
//     suffix exactly once converged — only the prefix hash can differ);
//   - output, halt state, and counts are the golden finals (the oracle
//     comparison behind StateConvergedMasked requires the boundary
//     output and store count to match).
func (b *campaignBundle) spliceDigest(final, boundary emu.Digest, written [2]uint32, from uint64) emu.Digest {
	out := final
	for r := 0; r < 32; r++ {
		if written[0]&(1<<r) == 0 {
			out.Regs[r] = boundary.Regs[r]
		}
		if written[1]&(1<<r) == 0 {
			out.FRegs[r] = boundary.FRegs[r]
		}
	}
	h := boundary.StoreHash
	for _, s := range b.g.storeRecs[from:] {
		h = emu.MixStore(h, s.addr, s.width, s.value)
	}
	out.StoreHash = h
	return out
}
