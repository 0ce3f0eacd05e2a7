package pipeline

import (
	"reese/internal/emu"
	"reese/internal/obs"
	"reese/internal/reese"
	"reese/internal/ruu"
)

// rReserve is the number of RUU slots P-stream dispatch may never take
// on a REESE machine, guaranteeing the R-stream Queue can always
// dispatch copies and drain — without it a full RSQ and a P-full RUU
// would deadlock each other.
const rReserve = 2

// rsqDetector is REESE: completed instructions enter the R-stream Queue
// at commit, their R copies re-enter the pipeline through dispatch,
// issue to idle functional units free of dependencies, and are compared
// against the latched P-stream outcome between writeback and commit;
// verified instructions retire from the queue head (paper §4.3-4.4). A
// single pointer, it sits in the detector interface without an
// allocation of its own.
type rsqDetector struct{ q *reese.Queue }

// Dispatched R copies hold a window slot until their comparison
// completes.
func (d rsqDetector) held() int { return d.q.InFlight() }

// dispatch fills up to Width slots per cycle. Each slot chooses between
// the next decoded P-stream instruction and the head of the R-stream
// Queue (paper §4.3): P normally has priority, but once RSQ occupancy
// crosses the high-water mark the R stream goes first so the queue
// drains.
func (d rsqDetector) dispatch(c *CPU) int {
	rFirst := d.q.PressureHigh()
	if rFirst {
		d.q.NotePriorityCycle()
	}
	n := 0
	for n < c.cfg.Width {
		keep := d.q.InFlight() + rReserve
		if rFirst {
			if !d.dispatchR(c) && c.dispatchP(keep) == nil {
				break
			}
		} else if c.dispatchP(keep) == nil && !d.dispatchR(c) {
			break
		}
		n++
	}
	return n
}

// dispatchR moves the R-stream Queue's oldest undispatched copy into
// the execution window, reporting whether it did. R copies carry their
// operands, so they claim no rename slot and track no dependencies, but
// they occupy a window slot and a dispatch slot like any other
// instruction — this sharing is where REESE's overhead comes from.
func (d rsqDetector) dispatchR(c *CPU) bool {
	if !d.q.DispatchPending() {
		return false
	}
	if c.windowFree() <= d.q.InFlight() {
		c.dispatchRUUFull++
		c.noteDispatchBlock(obs.CauseDispatchRUUFull)
		return false
	}
	e := d.q.DispatchNext()
	if c.observed() {
		c.emit(obs.EvDispatchR, e.Seq, &e.Trace, 0, -1)
	}
	return true
}

// issue gives P-stream instructions priority and lets R-stream copies
// fill the remaining slots — unless the R-stream Queue has crossed its
// high-water mark, in which case the priorities invert so the queue
// drains (paper §4.3).
func (d rsqDetector) issue(c *CPU, budget int) int {
	if d.q.PressureHigh() {
		return c.issueP(d.issueR(c, budget))
	}
	return d.issueR(c, c.issueP(budget))
}

// issueR issues dispatched R-stream copies. They carry their operands,
// so readiness is never in question — only functional-unit
// availability. Copies blocked on a busy unit class are skipped; they
// hold their window slot until they get one, which is exactly how FU
// shortage turns into window pressure on the P stream (and why spare
// elements recover performance). Only the dispatched window from the
// oldest unissued copy on is visited.
func (d rsqDetector) issueR(c *CPU, budget int) int {
	from, to := d.q.Unissued()
	for s := from; s < to && budget > 0; s++ {
		e := d.q.Get(s)
		if e.Issued {
			continue
		}
		op := e.Trace.Inst.Op
		kind, unit, ok := c.acquireFU(op)
		if !ok {
			continue
		}
		var doneAt uint64
		switch {
		case op.IsLoad():
			// The R-stream load re-reads the D-cache; the P stream
			// brought the line in, so this almost always hits (§4.4).
			doneAt = c.cycle + uint64(c.hier.DataLatency(e.Trace.Addr, false))
		case op.IsStore():
			// This is the architectural cache write, performed only on
			// the verified path (the store buffer drains here).
			c.hier.DataLatency(e.Trace.Addr, true)
			doneAt = c.cycle + 1
		default:
			doneAt = c.cycle + uint64(op.OpLatency())
		}
		e.RKind, e.RUnit = uint8(kind), unit
		if c.stuck != nil && c.stuck.Hits(e.RKind, unit) {
			e.RFaultMask = c.stuck.Mask()
		}
		d.q.MarkIssued(e, c.cycle, doneAt)
		if c.observed() {
			c.emit(obs.EvIssueR, e.Seq, &e.Trace, e.RKind+1, int16(unit))
		}
		budget--
	}
	return budget
}

// Under REESE a store writes the cache at R-stream issue (issueR).
func (rsqDetector) writesCache(*ruu.Entry) bool { return false }

// verify is the comparator between writeback and commit: completed
// re-executions check against the latched P-stream outcome and release
// their window slot. It also samples the queue's occupancy, which is
// final for the cycle here — issue, dispatch and fetch never change it.
func (d rsqDetector) verify(c *CPU) {
	bad := d.q.CompareDue(c.cycle, func(e *reese.Entry) {
		if c.observed() {
			c.emit(obs.EvVerify, e.Seq, &e.Trace, e.RKind+1, int16(e.RUnit))
		}
	})
	if bad != nil {
		c.onMismatch(bad.Seq, &bad.Trace, bad.RKind+1, int16(bad.RUnit), bad.HasFault(), bad.FaultCycle)
	}
	d.q.SampleOccupancy()
}

// nextRetire retires verified instructions from the RSQ head. Their LSQ
// entries were already released when they entered the RSQ: the queue
// entry carries the operands and result, and unverified stores forward
// to younger loads from there (the paper's extra forwarding hardware,
// §4.3).
func (d rsqDetector) nextRetire(*CPU, int) (retiring, bool) {
	h := d.q.Head()
	if h == nil || !h.Verified {
		return retiring{}, false
	}
	d.q.RetireHead() // h stays valid until the next enqueue
	return retiring{seq: h.Seq, tr: &h.Trace, faulty: h.HasFault(),
		result: h.ResultP, addr: h.AddrP, store: h.StoreValueP, slots: 1}, true
}

// enter moves completed instructions from the RUU head into the RSQ —
// the only place a full RSQ back-pressures the P stream — and is the
// RSQ's fault-injection site.
func (d rsqDetector) enter(c *CPU) {
	for n := 0; n < c.cfg.Width; n++ {
		h := c.completedHead()
		if h == nil {
			break
		}
		if d.q.Full() {
			d.q.NoteFullStall()
			break
		}
		c.popRUU(h)
		if c.observed() {
			c.emit(obs.EvEnterRSQ, h.Seq, &h.Trace, 0, -1)
		}
		// The popped head's slot stays intact until the next dispatch,
		// so the queue's tail slot is filled straight from it.
		ent := d.q.Enqueue(h.Seq, c.cycle)
		ent.Trace = h.Trace
		ent.ResultP, ent.NextPCP, ent.AddrP, ent.StoreValueP = h.ResultP, h.NextPCP, h.AddrP, h.StoreValueP
		ent.FaultBit, ent.FaultCycle, ent.LSQSeq = h.FaultBit, h.FaultCycle, h.LSQSeq
		if h.Seq >= c.hookHorizon {
			c.hookHorizon = h.Seq + 1
		}
		if c.injector != nil {
			if cor, ok := c.injector.RSQEnqueue(h.Seq, h.Trace); ok {
				// A transient in the RSQ itself: the stored copies are
				// corrupted while the trace (what recovery replays) stays
				// clean, so a detected RSQ fault recovers cleanly.
				ent.ResultP ^= cor.ResultMask
				ent.NextPCP ^= cor.NextPCMask
				ent.AddrP ^= cor.AddrMask
				ent.StoreValueP ^= cor.StoreMask
				ent.OperandAMask = cor.OperandAMask
				ent.OperandBMask = cor.OperandBMask
				ent.CompIgnore = cor.CompIgnoreMask
				ent.FaultBit = cor.Bit % 32
				ent.FaultCycle = c.cycle
				c.faultFired(h.Seq, &h.Trace)
			}
		}
	}
}

// commitStall: an unverified RSQ head outranks anything upstream. When
// the queue is also full it is crammed faster than the R stream can
// drain it — the paper's overflow condition (§4.3) — which is the
// actionable signal, so it takes the charge. A latched RUU head that
// failed to enter the queue hit a full RSQ too.
func (d rsqDetector) commitStall(c *CPU) obs.StallCause {
	switch {
	case d.q.Full():
		return obs.CauseRSQFull
	case !d.q.Empty():
		return obs.CauseRecheckPending
	case c.completedHead() != nil:
		return obs.CauseRSQFull
	}
	return obs.CauseNone
}

// recover force-retires the queued instructions older than the fault
// (already executed; their verification outcome is what it is), queues
// the rest for replay and flushes the queue (§4.3).
func (d rsqDetector) recover(c *CPU, faultSeq uint64, replay []emu.Trace) []emu.Trace {
	d.q.Scan(func(e *reese.Entry) bool {
		if e.Seq >= faultSeq {
			replay = append(replay, e.Trace)
		} else {
			c.retire(&e.Trace, false, e.ResultP, e.AddrP, e.StoreValueP)
		}
		return true
	})
	d.q.Flush()
	return replay
}

// clone reuses dst's queue slots when dst is an RSQ detector.
func (d rsqDetector) clone(dst detector) detector {
	o, _ := dst.(rsqDetector)
	return rsqDetector{d.q.CloneInto(o.q)}
}

func (d rsqDetector) converged(c, g *CPU) bool {
	o, ok := g.det.(rsqDetector)
	if !ok || !d.q.StateConverged(o.q, c.cycle, g.cycle, c.lsq.NormSeq, g.lsq.NormSeq) {
		return false
	}
	// Under partial re-execution the skip decision of FUTURE enqueues
	// depends on absolute sequence numbers, so relative convergence is
	// not enough: require exact alignment.
	return d.q.Every() == 1 || c.ruu.NextSeq() == g.ruu.NextSeq()
}

func (d rsqDetector) extrapolate(prev detector, k uint64) {
	d.q.ExtrapolateStats(prev.(rsqDetector).q.Stats(), k)
}

func (d rsqDetector) stats() *reese.Stats {
	s := d.q.Stats()
	return &s
}
