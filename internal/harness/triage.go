package harness

// Automatic SDC triage: time-travel replay with flight-recorder traces
// and first-divergence attribution.
//
// A campaign classifies escapes (SDC, hangs) but says nothing about
// *how* the corruption propagated — debugging one still meant re-running
// the trial by hand with tracing on. With CampaignSpec.Triage set, every
// trial that classifies as SDC or Hang (optionally Detected) is
// immediately re-run from the same checkpoint it originally forked from,
// with three instruments armed that the original run did not carry:
//
//   - the flight recorder, windowed around the injection cycle
//     (pipeline.CPU.SetRecorderWindow): the ring holds the pre-injection
//     context and freezes shortly after the fault fires, so the Perfetto
//     trace shows the corruption being planted instead of the tail of
//     the run;
//   - a lockstep golden emulator driven from the commit watch
//     (pipeline.CPU.SetCommitWatch): every architectural retire is
//     compared in program order against an independent emu.Machine, and
//     the first mismatch — register value, store address/value, or fetch
//     PC — is the first divergent commit, stamped into the trace as a
//     DIVERGENCE marker;
//   - the Brent hang probe's detected loop period
//     (pipeline.Result.HangPeriod) for hangs.
//
// The replay reuses the trial's exact fork and splice machinery, so it
// is byte-identical to the original run. Non-hang replays stop early
// once attribution is settled — the recorder window frozen and the
// divergence search resolved (see triageHorizon) — because the skipped
// tail is verification-only; TriageRecord.ReplayOK then asserts prefix
// fidelity (same fault, same cycle, within the original's commit
// budget), while replays that run to the end are held to exact
// reproduction: same outcome, cycle count, and digests. A replay that
// disagrees either way is reported rather than trusted.
//
// The lockstep emulator is deliberately independent of the pipeline's
// own oracle: oracle-site faults (regfile, fetch-pc) and memory-plane
// faults corrupt the oracle itself, so "compare against the oracle"
// would compare corrupted state against corrupted state and see nothing.

import (
	"bytes"
	"context"
	"fmt"

	"reese/internal/emu"
	"reese/internal/fault"
	"reese/internal/obs"
	"reese/internal/pipeline"
)

// triageRingCap is the flight-recorder ring size for triage replays:
// large enough to hold the full lifecycle of a few hundred instructions
// around the injection.
const triageRingCap = 8192

// triageWindow is the post-injection recording window in cycles:
// lifecycle recording freezes this many cycles after the fault fires
// (marker events still land), keeping the ring centred on the injection.
// It is sized well below the ring: a window's worth of lifecycle events
// must not wrap the ring, or the FAULT marker itself would be evicted.
// At ~10 events per instruction and IPC near 2, 128 cycles is ~2500
// events — comfortably under the 8192-event ring, leaving most of the
// ring for pre-injection context. The window does not bound the
// divergence search (triageHorizon does), and marker events — late
// detections, the divergence instant — record regardless.
const triageWindow = 128

// triageHorizon bounds the lockstep divergence search: a non-hang replay
// stops once the recorder window has frozen and either a divergence was
// found or this many cycles have passed since injection with every
// commit still matching the golden. Corruption that stays latent past
// the horizon is attributed from the original trial's final state
// ("memory" / "final-state") instead of a commit. The bound is what
// makes triage affordable — most of an escape's replay is tail the
// attribution never looks at — and it is generous: across the seeded
// gcc campaigns the slowest observed commit divergence lands ~4.6k
// cycles after injection, mean ~400.
const triageHorizon = 8192

// Divergence is the first architectural disagreement between a triaged
// trial's commit stream and the golden execution, found by lockstep
// comparison at retire.
type Divergence struct {
	// Seq is the global commit index (program-order instruction number)
	// of the first divergent commit.
	Seq uint64 `json:"seq"`
	// Kind says what disagreed first: "register" (destination value),
	// "store" (address or value), "pc" (control flow left the golden
	// path, including running past the golden halt), "memory" (no commit
	// diverged but the final memory image differs — a planted RAM fault
	// nothing reloaded, a lost write-back), or "final-state" (digest
	// mismatch with no attributable commit).
	Kind string `json:"kind"`
	// Reg is the destination register for "register" divergences.
	Reg uint8 `json:"reg,omitempty"`
	// Golden/Got are the disagreeing values: register results for
	// "register", store values (or addresses) for "store", fetch PCs for
	// "pc", and for "memory" Got is the lowest corrupted word address.
	Golden uint32 `json:"golden"`
	Got    uint32 `json:"got"`
	// Cycle is the replay cycle of the divergent commit; CycleDelta is
	// cycles from fault injection to that commit — how long the
	// corruption stayed latent before becoming architectural.
	Cycle      uint64 `json:"cycle,omitempty"`
	CycleDelta uint64 `json:"cycle_delta,omitempty"`
}

// TriageRecord is the triage pass's attachment to an escaped trial.
type TriageRecord struct {
	// ReplayOK reports the replay reproduced the original trial: a replay
	// that ran to the trial's natural end must match it exactly (outcome,
	// cycle count, committed count, final digests); a replay stopped
	// early — attribution complete, tail skipped (see triageHorizon) —
	// must have fired the same fault at the same cycle and stayed within
	// the original's cycle and commit counts. A false value means the
	// attribution below cannot be trusted.
	ReplayOK bool `json:"replay_ok"`
	// FirstDivergence is the first architectural divergence from the
	// golden execution (nil for hangs that wedge before any divergent
	// commit).
	FirstDivergence *Divergence `json:"first_divergence,omitempty"`
	// CyclesToDivergence mirrors FirstDivergence.CycleDelta at the top
	// level for aggregation.
	CyclesToDivergence uint64 `json:"cycles_to_divergence,omitempty"`
	// Transited is the ordered list of pipeline lifecycle stages the
	// victim instruction's corruption transited, from the flight
	// recorder's events for the victim sequence number.
	Transited []string `json:"transited,omitempty"`
	// HangPeriod is the cycle period of the wedged-machine loop the
	// Brent probe proved, for hang trials (0 otherwise).
	HangPeriod uint64 `json:"hang_period,omitempty"`
	// TraceEvents/TraceDropped describe the captured flight-recorder
	// ring: events retained and events the ring overwrote. A non-zero
	// TraceDropped means the Perfetto trace is a partial record. Both
	// depend on how much pre-injection context the replay recorded —
	// i.e. on the checkpoint schedule — so they are deliberately NOT
	// serialized into the trial record (which stays byte-identical at
	// any checkpoint interval); the trace blob's otherData carries the
	// same counters for consumers of the artifact itself.
	TraceEvents  int    `json:"-"`
	TraceDropped uint64 `json:"-"`
	// TracePath is where the Perfetto trace was written, when the caller
	// persists traces to disk (the CLI's -triage-dir).
	TracePath string `json:"trace_path,omitempty"`
	// Trace is the Perfetto (Chrome trace format) JSON blob. Excluded
	// from the trial's own JSON form — JSONL stays line-sized — and
	// shipped out of band (CLI trace files, server trace endpoints).
	Trace []byte `json:"-"`
}

// getLock returns a recycled lockstep golden emulator positioned at
// checkpoint bi: scalars cloned from the bundle's per-checkpoint golden
// snapshots (built once, lazily, by a single emulator pass over the
// program), memory page-diffed from the checkpoint image exactly like a
// trial worker's. No per-escape memory load, no fast-forward from
// instruction zero.
func (b *campaignBundle) getLock(bi int) (*campaignWorker, error) {
	b.lockOnce.Do(func() {
		m, err := emu.New(b.prog)
		if err != nil {
			b.lockErr = err
			return
		}
		snaps := make([]*emu.Machine, len(b.checkpoints))
		for i, ck := range b.checkpoints {
			if n := ck.Committed - m.InstCount(); n > 0 {
				if _, err := m.Run(n); err != nil {
					b.lockErr = fmt.Errorf("harness: golden emulator snapshot at %d insts: %w", ck.Committed, err)
					return
				}
			}
			if m.InstCount() != ck.Committed {
				b.lockErr = fmt.Errorf("harness: golden emulator stopped at %d insts, checkpoint at %d", m.InstCount(), ck.Committed)
				return
			}
			snaps[i] = m.Clone(nil) // detached: scalars only, memory comes from the checkpoint image
		}
		b.lockSnaps = snaps
	})
	if b.lockErr != nil {
		return nil, b.lockErr
	}
	w, _ := b.locks.Get().(*campaignWorker)
	if w == nil {
		w = &campaignWorker{}
	}
	if err := w.adopt(b.prog, b.checkpoints[bi].Mem); err != nil {
		return nil, err
	}
	w.lock = b.lockSnaps[bi].CloneInto(w.lock, w.mem)
	return w, nil
}

// triageWanted reports whether an outcome qualifies for the triage pass.
func triageWanted(o fault.Outcome, detected bool) bool {
	switch o {
	case fault.OutcomeSDC, fault.OutcomeHang:
		return true
	case fault.OutcomeDetected:
		return detected
	}
	return false
}

// triageTrial re-runs an escaped trial from its checkpoint with the
// flight recorder and the lockstep first-divergence watch armed, and
// attaches the TriageRecord to the trial. The replay reuses runTrial's
// fork/splice path unchanged, so it reproduces the original byte for
// byte; instruments are observers only.
func (b *campaignBundle) triageTrial(ctx context.Context, t *Trial, opt Options) error {
	// Replay into a scratch copy: the plan fields drive the re-run, the
	// result fields are recomputed and compared against the original.
	rt := *t
	rt.Triage = nil

	lw, err := b.getLock(b.forkPoint(t.Seq))
	if err != nil {
		return err
	}
	defer b.locks.Put(lw)
	lock := lw.lock
	// The flight-recorder ring rides the pooled worker: Reset reuses the
	// backing array instead of zeroing a fresh ~400KB ring per escape.
	if lw.rec == nil {
		lw.rec = obs.NewRecorder(triageRingCap)
	} else {
		lw.rec.Reset()
	}
	rec := lw.rec

	// Non-hang replays stop once attribution is settled: the recorder
	// window has frozen and the divergence search has either hit or
	// exhausted its horizon. The skipped tail is verification-only, and
	// for long trials it is most of the replay. Hang replays run to the
	// wedge — the Brent probe's loop period is the attribution.
	fullReplay := t.outcome == fault.OutcomeHang
	stopped := false

	var (
		cpu      *pipeline.CPU
		div      *Divergence
		divCycle uint64
		lockDead bool // lockstep emulator halted or errored; stop comparing
	)
	instrument := func(c *pipeline.CPU) {
		cpu = c
		c.SetRecorder(rec)
		c.SetRecorderWindow(triageWindow)
		// The lockstep golden was positioned at the fork checkpoint by
		// getLock; a mismatch here would mean the fork and the snapshot
		// chain disagree, so stop comparing rather than mis-attribute.
		if c.Committed() != lock.InstCount() {
			lockDead = true
		}
		c.SetCommitWatch(func(seq, cycle uint64, tr emu.Trace, resultP, addrP, storeValueP uint32) {
			if stopped {
				return
			}
			if !fullReplay {
				if fc := cpu.FaultCycle(); fc > 0 && cycle >= fc+triageWindow &&
					(div != nil || lockDead || cycle >= fc+triageHorizon) {
					stopped = true
					cpu.RequestStop()
					return
				}
			}
			if div != nil || lockDead {
				return
			}
			gtr, err := lock.Step()
			if err != nil {
				// The golden program is over but the replay is still
				// committing: control flow left the golden path.
				lockDead = true
				div = &Divergence{Seq: seq, Kind: "pc", Got: tr.PC}
				divCycle = cycle
				cpu.MarkDivergence(cycle, seq, tr)
				return
			}
			d := compareCommit(gtr, tr, resultP, addrP, storeValueP)
			if d == nil {
				return
			}
			d.Seq = seq
			div = d
			divCycle = cycle
			cpu.MarkDivergence(cycle, seq, tr)
		})
	}

	if err := b.runTrialInstr(ctx, &rt, opt, instrument); err != nil {
		return err
	}

	rec2 := &TriageRecord{
		HangPeriod:   rt.hangPeriod,
		TraceEvents:  rec.Len(),
		TraceDropped: rec.Dropped(),
	}
	if stopped {
		// The replay never reached the trial's end, so final state cannot
		// be compared; verify the replayed prefix instead. The injection
		// firing at the original's exact cycle pins the fault plant, and
		// the commit/cycle bounds catch a replay that ran away.
		rec2.ReplayOK = rt.Fired == t.Fired && rt.faultCycle == t.faultCycle &&
			rt.Committed <= t.Committed && rt.Cycles <= t.Cycles
	} else {
		rec2.ReplayOK = rt.Outcome == t.Outcome && rt.Cycles == t.Cycles &&
			rt.Committed == t.Committed && rt.Fired == t.Fired &&
			rt.commitDig == t.commitDig && rt.oracleDig == t.oracleDig
	}
	if div == nil {
		// No commit diverged within the horizon. Attribute what the
		// original trial's classifier saw instead: a corrupted final
		// memory image (a planted fault nothing reloaded, a lost
		// write-back), or — defensively — a digest mismatch with no
		// visible cause.
		switch {
		case t.diffWords > 0:
			div = &Divergence{Seq: t.Seq, Kind: "memory", Got: t.diffLo}
		case t.outcome == fault.OutcomeSDC:
			div = &Divergence{Seq: t.Seq, Kind: "final-state"}
		}
	}
	if div != nil {
		// Not cpu.FaultCycle(): cpu is back in the worker pool by now.
		if fc := rt.faultCycle; fc != 0 && divCycle > fc {
			div.Cycle = divCycle
			div.CycleDelta = divCycle - fc
		}
		rec2.FirstDivergence = div
		rec2.CyclesToDivergence = div.CycleDelta
	}
	rec2.Transited = transited(rec, t.Seq)

	var buf bytes.Buffer
	buf.Grow(110*rec.Len() + 1024) // compact events run ~100 bytes each; skip doubling churn
	if err := rec.WriteChromeTrace(&buf); err != nil {
		return fmt.Errorf("harness: triage trace for trial %d: %w", t.Index, err)
	}
	rec2.Trace = buf.Bytes()

	t.Triage = rec2
	return nil
}

// compareCommit checks one architectural retire against the lockstep
// golden step and returns the divergence, or nil when they agree. The
// comparison order matches severity: control flow first, then the
// destination-register value, then the store.
func compareCommit(gtr, tr emu.Trace, resultP, addrP, storeValueP uint32) *Divergence {
	if gtr.PC != tr.PC {
		return &Divergence{Kind: "pc", Golden: gtr.PC, Got: tr.PC}
	}
	if r, isFP, ok := tr.DestReg(); ok && (isFP || r != 0) {
		if resultP != gtr.Result {
			return &Divergence{Kind: "register", Reg: uint8(r), Golden: gtr.Result, Got: resultP}
		}
	}
	if tr.Inst.Op.IsStore() {
		if addrP != gtr.Addr {
			return &Divergence{Kind: "store", Golden: gtr.Addr, Got: addrP}
		}
		if storeValueP != gtr.StoreValue {
			return &Divergence{Kind: "store", Golden: gtr.StoreValue, Got: storeValueP}
		}
	}
	return nil
}

// transited lists the distinct lifecycle stages the victim sequence
// number's events moved through, in first-seen order — the structures
// the corruption transited on its way to (or past) the comparator.
func transited(rec *obs.Recorder, victim uint64) []string {
	var out []string
	var seen [obs.NumEventKinds]bool
	rec.Scan(func(e obs.Event) {
		if e.Seq != victim || seen[e.Kind] {
			return
		}
		seen[e.Kind] = true
		out = append(out, e.Kind.String())
	})
	return out
}
