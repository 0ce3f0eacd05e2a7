package pipeline

// The CPU's instrument seam. Every observer — the text event trace
// (SimpleScalar's ptrace equivalent), the flight-recorder ring, the
// triage commit watch and the progress heartbeat — is armed through one
// Instruments value. Lifecycle sites (fetch, dispatch, issue, writeback,
// RSQ entry, R-dispatch, verify, commit, mispredict, squash, fault,
// mismatch, recovery) build one obs.Event each and hand it to one
// emitter behind one inlinable guard, so a run with no instruments pays
// a single branch per site and the text trace is a rendering of the
// same event stream the ring records.

import (
	"io"
	"sync/atomic"

	"reese/internal/emu"
	"reese/internal/obs"
)

// Instruments are the CPU's observers. None of them perturbs the
// machine: an instrumented run is identical to a bare one. The zero
// value arms nothing.
type Instruments struct {
	// Trace receives one text line per lifecycle event
	// (obs.Event.AppendText). Tracing large runs produces a lot of
	// output.
	Trace io.Writer
	// Recorder is the flight-recorder ring every lifecycle event is
	// appended to (fixed cost, no allocation). Dump it with
	// WriteChromeTrace after the run.
	Recorder *obs.Recorder
	// RecorderWindow, when non-zero, freezes the event stream that many
	// cycles after the injector first fires: the ring then holds the
	// window around the injection (ring capacity bounds the
	// pre-context) instead of the tail of the run. Marker events —
	// fault, mismatch, recovery, divergence — bypass the freeze.
	RecorderWindow uint64
	// CommitWatch observes every architectural retire in program order
	// with the global commit index (seq), the retire cycle, the
	// committed trace, and the latched result / store address / store
	// value the shadow state is rebuilt from. It must not mutate the
	// machine beyond RequestStop and MarkDivergence; it is the triage
	// pass's lockstep tap.
	CommitWatch func(c *CPU, seq, cycle uint64, tr emu.Trace, resultP, addrP, storeValueP uint32)
	// Progress receives committed-instruction deltas at every
	// context-check interval, so a watchdog sampling it can tell a slow
	// simulation from a hung one. Several CPUs may share one counter
	// (a figure grid); the sum stays monotonic.
	Progress *atomic.Uint64
}

// Instrument replaces the CPU's instruments (the zero value disarms
// them all). Call before Run. Progress counts only commits made after
// the call, so a forked CPU never credits its checkpoint prefix.
// Instruments do not survive Snapshot or Fork.
func (c *CPU) Instrument(in Instruments) {
	c.inst = in
	c.progressSeen = c.committed
}

func (c *CPU) reportProgress() {
	if c.inst.Progress != nil && c.committed > c.progressSeen {
		c.inst.Progress.Add(c.committed - c.progressSeen)
		c.progressSeen = c.committed
	}
}

// observed is the guard in front of every lifecycle site: true when an
// event stream sink is armed.
func (c *CPU) observed() bool { return c.inst.Recorder != nil || c.inst.Trace != nil }

// emit streams one lifecycle event stamped with the current cycle.
// Callers guard with observed.
func (c *CPU) emit(kind obs.EventKind, seq uint64, tr *emu.Trace, fuKind uint8, unit int16) {
	c.emitAt(c.cycle, kind, seq, tr, fuKind, unit)
}

// emitAt is emit with an explicit cycle stamp — used to backdate the
// fetch event to the cycle the instruction actually entered the fetch
// queue (its sequence number only exists from dispatch on).
func (c *CPU) emitAt(cycle uint64, kind obs.EventKind, seq uint64, tr *emu.Trace, fuKind uint8, unit int16) {
	if w := c.inst.RecorderWindow; w != 0 && c.faultCycle != 0 && cycle > c.faultCycle+w {
		switch kind {
		case obs.EvFaultInjected, obs.EvMismatch, obs.EvRecovery, obs.EvDivergence:
		default:
			return
		}
	}
	e := obs.Event{Cycle: cycle, Seq: seq, PC: tr.PC, Inst: tr.Inst, Kind: kind, FU: fuKind, Unit: unit}
	if c.inst.Recorder != nil {
		c.inst.Recorder.Record(e)
	}
	if c.inst.Trace != nil {
		c.inst.Trace.Write(e.AppendText(nil))
	}
}

// MarkDivergence streams a DIVERGENCE marker (no-op when no event sink
// is armed). The triage pass calls it from its commit watch when the
// lockstep golden comparison finds the first divergent commit; markers
// bypass the recorder window.
func (c *CPU) MarkDivergence(cycle, seq uint64, tr emu.Trace) {
	if c.observed() {
		c.emitAt(cycle, obs.EvDivergence, seq, &tr, 0, -1)
	}
}

// faultFired books an injector firing at one of the four hook sites:
// it stamps the first fault cycle (FaultCycle and the recorder window
// key on it) and streams the FAULT event. seq and tr name the victim.
func (c *CPU) faultFired(seq uint64, tr *emu.Trace) {
	if c.faultCycle == 0 {
		c.faultCycle = c.cycle
	}
	if c.observed() {
		c.emit(obs.EvFaultInjected, seq, tr, 0, -1)
	}
}
