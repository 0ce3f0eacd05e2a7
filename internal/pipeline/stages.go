package pipeline

import (
	"fmt"

	"reese/internal/emu"
	"reese/internal/fault"
	"reese/internal/fu"
	"reese/internal/isa"
	"reese/internal/obs"
	"reese/internal/program"
	"reese/internal/reese"
	"reese/internal/ruu"
)

// ---------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------

// nextTrace produces the next instruction on the (possibly replayed)
// program path, or nil when the oracle has halted and no replays remain.
// The returned pointer aliases c.trScratch and is only valid until the
// next call.
func (c *CPU) nextTrace() *emu.Trace {
	// Replayed traces are older than a pushed-back pending trace, so
	// they must drain first (only fault recovery populates replayQ).
	if c.replayHead < len(c.replayQ) {
		c.trScratch = c.replayQ[c.replayHead]
		c.replayHead++
		if c.replayHead == len(c.replayQ) {
			c.replayQ = c.replayQ[:0]
			c.replayHead = 0
		}
		return &c.trScratch
	}
	if c.hasPending {
		c.trScratch = c.pending
		c.hasPending = false
		return &c.trScratch
	}
	if c.oracleDone {
		return nil
	}
	if c.injector != nil {
		icount := c.oracle.InstCount()
		if c.injector.OracleStep(icount, c.oracle) {
			// An architectural-site fault (regfile, fetch PC) corrupted the
			// oracle directly; from here the machine executes the corrupted
			// program state — both streams, so the comparator sees nothing.
			c.faultFired(icount, &emu.Trace{PC: c.oracle.PC()})
		}
		if c.injector.MemStep(icount, hierPlane{c}) {
			// A memory-hierarchy fault fired: a flipped architectural word,
			// a perturbed cache line or TLB entry — all outside the sphere
			// of replication, so the comparator sees nothing here either.
			c.faultFired(icount, &emu.Trace{PC: c.oracle.PC()})
		}
	}
	tr, err := c.oracle.Step()
	if err != nil {
		// Off-the-end fetch or a memory fault in the workload itself:
		// treat as end of stream. Workloads in this repo always halt.
		c.oracleDone = true
		return nil
	}
	if tr.Halt {
		c.oracleDone = true
	}
	c.trScratch = tr
	return &c.trScratch
}

// fetch brings up to Width instructions into the fetch queue. It
// normally follows the oracle path; a mispredicted control transfer
// either stalls fetch until resolution (the default approximation) or,
// with config.ModelWrongPath, switches fetch onto the predicted (wrong)
// path until the branch resolves and the tail is squashed.
func (c *CPU) fetch() {
	if c.fetchStalled {
		c.fetchBranchStallCycles++
		return
	}
	if c.cycle < c.fetchReadyAt {
		c.fetchICacheStallCycles++
		return
	}
	var lastBlock uint32
	haveBlock := false
	blockMask := ^(c.cfg.Memory.L1I.BlockBytes - 1)
	for n := 0; n < c.cfg.Width && c.fetchLen < c.cfg.FetchQueueSize; n++ {
		var tr *emu.Trace
		if c.wrongPath {
			if c.hasWPPending {
				c.wpScratch = c.wpPending
				c.hasWPPending = false
				tr = &c.wpScratch
			} else {
				tr = c.wrongPathTrace()
			}
			if tr == nil {
				// Wrong path ran off decodable text: wait for the
				// branch to resolve.
				c.fetchBranchStallCycles++
				return
			}
		} else {
			tr = c.nextTrace()
		}
		if tr == nil {
			return
		}
		// Charge the I-cache once per block touched; a miss delivers
		// nothing this cycle — the instruction waits for the line.
		block := tr.PC & blockMask
		if !haveBlock || block != lastBlock {
			lat := c.hier.FetchLatency(tr.PC)
			lastBlock, haveBlock = block, true
			if lat > c.cfg.Memory.L1I.HitLatency {
				c.fetchReadyAt = c.cycle + uint64(lat)
				if c.wrongPath {
					c.wpPending = *tr
					c.hasWPPending = true
				} else {
					c.pending = *tr
					c.hasPending = true
				}
				return
			}
		}
		fe := c.fetchQPush(fetchEntry{tr: *tr, bogus: c.wrongPath, fetchedAt: c.cycle})
		if c.wrongPath {
			c.wpFetched++
			// Wrong-path control flow already chose its own next PC in
			// wrongPathTrace; taken transfers still break the group.
			if tr.Inst.Op.IsControl() && tr.NextPC != tr.PC+isa.WordBytes {
				return
			}
			continue
		}
		if tr.Halt {
			return
		}
		if tr.Inst.Op.IsControl() {
			c.branches++
			if c.predictAndMaybeStall(fe) {
				if fe.mispredicted && c.observed() {
					c.emit(obs.EvMispredict, 0, tr, 0, -1)
				}
				return
			}
		}
	}
}

// wrongPathTrace decodes the next wrong-path instruction at wpPC and
// predicts its successor. The pseudo-trace has no meaningful operand
// values — wrong-path instructions only consume resources. The returned
// pointer aliases c.wpScratch and is only valid until the next call.
func (c *CPU) wrongPathTrace() *emu.Trace {
	in, ok := c.dec.At(c.wpPC)
	if !ok {
		return nil
	}
	c.wpScratch = emu.Trace{PC: c.wpPC, Inst: in, NextPC: c.wpPC + isa.WordBytes}
	tr := &c.wpScratch
	// Wrong-path loads/stores get a placeholder address inside the data
	// segment so disambiguation logic sees something sane.
	if in.Op.IsMem() {
		tr.Addr = program.DataBase + uint32(in.Imm)&0xfff&^3
		tr.MemWidth = isa.MemWidth(in.Op)
	}
	op := in.Op
	pc := c.wpPC
	switch {
	case op == isa.OpHalt:
		// Treat as a fetch stop; the path parks here.
		c.wpPC = pc
		return tr
	case op.IsBranch():
		if c.pred.Predict(pc) {
			if tgt, ok := c.btb.Lookup(pc); ok {
				tr.NextPC = tgt
			}
		}
		// Speculative history shifts on the wrong path too; the squash
		// restores the snapshot.
		c.pred.ShiftHistory(tr.NextPC != pc+isa.WordBytes)
	case op == isa.OpJ || op == isa.OpJal:
		tr.NextPC = in.BranchTarget(pc)
	case op == isa.OpJr || op == isa.OpJalr:
		if op == isa.OpJr && in.Rs1 == isa.RegRA {
			if tgt, ok := c.ras.Pop(); ok {
				tr.NextPC = tgt
			}
		} else if tgt, ok := c.btb.Lookup(pc); ok {
			tr.NextPC = tgt
		}
	}
	c.wpPC = tr.NextPC
	return tr
}

// predictAndMaybeStall runs the front-end predictors for a control
// instruction, marks mispredictions, and reports whether fetch must stop
// this cycle (taken transfer or misprediction).
func (c *CPU) predictAndMaybeStall(fe *fetchEntry) (stop bool) {
	tr := &fe.tr
	op := tr.Inst.Op
	pc := tr.PC
	fallPC := pc + isa.WordBytes

	var predictedNext uint32
	switch {
	case op.IsBranch():
		// Speculative history update at fetch: a correct prediction
		// shifts the true outcome in; a misprediction stalls fetch, and
		// the redirect repairs the history — with oracle-path fetch the
		// repaired value is simply the true outcome, so shifting it
		// here models both cases. The pre-shift snapshot travels with
		// the branch so resolution trains the entry the prediction
		// actually consulted.
		fe.histSnap = c.pred.Snapshot()
		defer c.pred.ShiftHistory(tr.Taken)
		if c.pred.Predict(pc) {
			if tgt, ok := c.btb.Lookup(pc); ok {
				predictedNext = tgt
			} else {
				// Predicted taken but no target known: cannot redirect.
				predictedNext = fallPC
			}
		} else {
			predictedNext = fallPC
		}
	case op == isa.OpJ:
		predictedNext = tr.NextPC // direct target, decoded in fetch
	case op == isa.OpJal:
		predictedNext = tr.NextPC
		c.ras.Push(fallPC)
	case op == isa.OpJalr:
		c.ras.Push(fallPC)
		if tgt, ok := c.btb.Lookup(pc); ok {
			predictedNext = tgt
		} else {
			predictedNext = fallPC
		}
	case op == isa.OpJr:
		if tr.Inst.Rs1 == isa.RegRA {
			if tgt, ok := c.ras.Pop(); ok {
				predictedNext = tgt
			} else {
				predictedNext = fallPC
			}
		} else if tgt, ok := c.btb.Lookup(pc); ok {
			predictedNext = tgt
		} else {
			predictedNext = fallPC
		}
	}

	if predictedNext != tr.NextPC {
		fe.mispredicted = true
		c.mispredicts++
		if c.cfg.ModelWrongPath {
			// Fetch continues down the predicted (wrong) path; the
			// squash point is recorded for resolution. The history to
			// restore must already include THIS branch's true outcome
			// (the deferred ShiftHistory below applies it), so fold it
			// in here.
			c.wrongPath = true
			c.wpPC = predictedNext
			c.wpLsqMark = c.lsq.NextSeq()
			c.wpHistSnap = c.pred.Snapshot() << 1
			if tr.Taken {
				c.wpHistSnap |= 1
			}
			return true
		}
		c.fetchStalled = true
		return true
	}
	// Correctly predicted taken transfers still break the fetch group.
	return tr.NextPC != fallPC
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

// rReserve is the number of RUU slots P-stream dispatch may never take
// on a REESE machine, guaranteeing the R-stream Queue can always
// dispatch copies and drain — without it a full RSQ and a P-full RUU
// would deadlock each other.
const rReserve = 2

// dispatch fills up to Width slots per cycle. On a REESE machine each
// slot chooses between the next decoded P-stream instruction and the
// head of the R-stream Queue (paper §4.3): P normally has priority, but
// once RSQ occupancy crosses the high-water mark the R stream goes
// first so the queue drains.
func (c *CPU) dispatch() int {
	rFirst := c.rsq != nil && c.rsq.PressureHigh()
	if rFirst {
		c.rsq.NotePriorityCycle()
	}
	moved := 0
	for n := 0; n < c.cfg.Width; n++ {
		if rFirst {
			if c.dispatchR() || c.dispatchP() {
				moved++
				continue
			}
			break
		}
		if c.dispatchP() || (c.rsq != nil && c.dispatchR()) {
			moved++
			continue
		}
		break
	}
	return moved
}

// noteDispatchBlock records the first structural reason dispatch
// stopped this cycle, for the slot-attribution matrix. The first
// blocker wins: it is what actually ended the dispatch group.
func (c *CPU) noteDispatchBlock(cause obs.StallCause) {
	if c.dispCause == obs.CauseNone {
		c.dispCause = cause
	}
}

// dispatchCause resolves where this cycle's unused dispatch slots went:
// a recorded structural block, otherwise an empty front end (or the
// post-halt drain).
func (c *CPU) dispatchCause() obs.StallCause {
	if c.dispCause != obs.CauseNone {
		return c.dispCause
	}
	if c.oracleDone && c.fetchLen == 0 && !c.hasPending && c.replayHead >= len(c.replayQ) {
		return obs.CauseDrain
	}
	return obs.CauseFetchEmpty
}

// windowFree returns the number of unoccupied window slots. P-stream
// instructions occupy a slot while resident in the RUU; dispatched,
// unfinished R copies occupy one until their comparison completes (the
// slot collapses as soon as the re-execution is checked).
func (c *CPU) windowFree() int {
	return c.cfg.RUUSize - c.ruu.Len() - c.rLive
}

// dispatchP moves one instruction from the fetch queue into the RUU
// (and LSQ for memory operations), reporting whether it did.
func (c *CPU) dispatchP() bool {
	if c.fetchLen == 0 {
		return false
	}
	free := c.windowFree()
	if free <= 0 || (c.rsq != nil && free <= rReserve) || c.ruu.Full() {
		c.dispatchRUUFull++
		c.noteDispatchBlock(obs.CauseDispatchRUUFull)
		return false
	}
	fe := *c.fetchQFront()
	if fe.bogus && !c.wpMarked {
		// First wrong-path entry reaching dispatch: everything in the
		// LSQ from here on is squashable.
		c.wpLsqMark = c.lsq.NextSeq()
		c.wpMarked = true
	}
	// Duplicate-at-dispatch mode needs room for the whole pair before
	// dispatching either half (bogus wrong-path entries stay single).
	needDup := c.dupMode && !fe.bogus
	if needDup {
		isMem := fe.tr.Inst.Op.IsMem()
		if c.windowFree() < 2 || c.ruu.Cap()-c.ruu.Len() < 2 {
			c.dispatchRUUFull++
			c.noteDispatchBlock(obs.CauseDispatchRUUFull)
			return false
		}
		if isMem && c.lsq.Cap()-c.lsq.Len() < 2 {
			c.dispatchLSQFull++
			c.noteDispatchBlock(obs.CauseDispatchLSQFull)
			return false
		}
	}
	lsqSeq := ruu.NoProducer
	if fe.tr.Inst.Op.IsMem() {
		if c.lsq.Full() {
			c.dispatchLSQFull++
			c.noteDispatchBlock(obs.CauseDispatchLSQFull)
			return false
		}
		le := c.lsq.Dispatch(fe.tr, c.ruu.NextSeq())
		lsqSeq = le.MemSeq
	}
	e := c.ruu.Dispatch(fe.tr, lsqSeq)
	e.Mispredicted = fe.mispredicted && !fe.bogus
	e.Bogus = fe.bogus
	e.BpHistory = fe.histSnap
	c.fetchQPop()
	if c.observed() {
		// The fetch event is backdated to queue entry: its sequence
		// number only exists now.
		c.emitAt(fe.fetchedAt, obs.EvFetch, e.Seq, &e.Trace, 0, -1)
		c.emit(obs.EvDispatch, e.Seq, &e.Trace, 0, -1)
	}
	if needDup {
		dupLSQ := ruu.NoProducer
		if fe.tr.Inst.Op.IsMem() {
			le := c.lsq.Dispatch(fe.tr, c.ruu.NextSeq())
			dupLSQ = le.MemSeq
		}
		c.ruu.DispatchDup(fe.tr, e.Seq, e.Dep1, e.Dep2, dupLSQ)
	}
	return true
}

// dispatchR moves the R-stream Queue's oldest undispatched copy into
// the execution window, reporting whether it did. R copies carry their
// operands, so they claim no rename slot and track no dependencies, but
// they occupy a window slot and a dispatch slot like any other
// instruction — this sharing is where REESE's overhead comes from.
func (c *CPU) dispatchR() bool {
	e := c.rsq.NextToDispatch()
	if e == nil {
		return false
	}
	if c.windowFree() <= 0 {
		c.dispatchRUUFull++
		c.noteDispatchBlock(obs.CauseDispatchRUUFull)
		return false
	}
	c.rLive++
	c.rsq.MarkDispatched(e)
	if c.observed() {
		c.emit(obs.EvDispatchR, e.Seq, &e.Trace, 0, -1)
	}
	return true
}

// ---------------------------------------------------------------------
// Issue
// ---------------------------------------------------------------------

// issue selects up to IssueWidth ready instructions. P-stream
// instructions have priority; R-stream copies fill the remaining slots
// — unless the R-stream Queue has crossed its high-water mark, in which
// case the priorities invert so the queue drains (paper §4.3).
func (c *CPU) issue() int {
	budget := c.cfg.IssueWidth
	if c.rsq != nil && c.rsq.PressureHigh() {
		c.issueR(&budget)
		c.issueP(&budget)
		return c.cfg.IssueWidth - budget
	}
	c.issueP(&budget)
	if c.rsq != nil {
		c.issueR(&budget)
	}
	return c.cfg.IssueWidth - budget
}

// issueCause resolves where this cycle's unused issue slots went. A
// functional-unit shortage outranks operand waits — it is the signal
// REESE's spare elements act on; with neither recorded the window is
// either all in flight (execution latency) or empty (front end).
func (c *CPU) issueCause() obs.StallCause {
	if c.issueNoFU {
		return obs.CauseIssueNoFU
	}
	if c.issueNotReady {
		return obs.CauseIssueWait
	}
	if c.ruu.Len() > 0 || c.rLive > 0 {
		return obs.CauseExecLatency
	}
	if c.fetchLen > 0 {
		return obs.CauseFetchEmpty
	}
	if c.oracleDone && !c.hasPending && c.replayHead >= len(c.replayQ) {
		return obs.CauseDrain
	}
	return obs.CauseFetchEmpty
}

// issueP issues ready P-stream instructions from the RUU, oldest first.
func (c *CPU) issueP(budget *int) {
	c.ruu.Scan(func(e *ruu.Entry) bool {
		if *budget <= 0 {
			return false
		}
		if e.Issued {
			return true
		}
		if !c.ruu.OperandsReady(e, c.cycle) {
			c.issueNotReady = true
			return true
		}
		op := e.Trace.Inst.Op
		if e.Bogus && op.IsMem() {
			// Wrong-path memory operations consume a port but bypass
			// the data cache (their addresses are placeholders; real
			// hardware would access speculative state we don't model).
			unit, ok := c.pool.AcquireUnit(fu.MemPort, c.cycle, op.IssueLatency())
			if !ok {
				c.issueNoFU = true
				return true
			}
			e.FUKind, e.FUUnit = uint8(fu.MemPort), unit
			if e.LSQSeq != ruu.NoProducer && c.lsq.Resident(e.LSQSeq) {
				c.lsq.Get(e.LSQSeq).Issued = true
			}
			c.markIssued(e, c.cycle+uint64(c.cfg.Memory.L1D.HitLatency))
			*budget--
			return true
		}
		switch {
		case op.IsLoad():
			switch c.lsq.CheckLoad(e.LSQSeq) {
			case ruu.LoadBlocked:
				// Waiting for earlier store addresses: a readiness wait,
				// not an FU shortage.
				c.issueNotReady = true
				return true
			case ruu.LoadForward:
				// Store-to-load forwarding inside the LSQ: 1 cycle, no
				// cache port needed. The port fields are still stamped
				// (unit -1) so the recorder lanes stay truthful.
				le := c.lsq.Get(e.LSQSeq)
				le.Issued = true
				le.Forwarded = true
				e.FUKind, e.FUUnit = uint8(fu.MemPort), -1
				c.markIssued(e, c.cycle+1)
				*budget--
			case ruu.LoadFromCache:
				unit, ok := c.pool.AcquireUnit(fu.MemPort, c.cycle, op.IssueLatency())
				if !ok {
					c.issueNoFU = true
					return true
				}
				e.FUKind, e.FUUnit = uint8(fu.MemPort), unit
				lat := c.hier.DataLatency(e.Trace.Addr, false)
				c.lsq.Get(e.LSQSeq).Issued = true
				c.markIssued(e, c.cycle+uint64(lat))
				*budget--
			}
		case op.IsStore():
			unit, ok := c.pool.AcquireUnit(fu.MemPort, c.cycle, op.IssueLatency())
			if !ok {
				c.issueNoFU = true
				return true
			}
			e.FUKind, e.FUUnit = uint8(fu.MemPort), unit
			// The architectural cache write happens once, on the
			// verified side: at issue on a plain baseline, on the
			// duplicate copy in dup-dispatch mode, and at R-stream
			// issue under REESE.
			if (c.rsq == nil && !c.dupMode) || (c.dupMode && e.Dup) {
				c.hier.DataLatency(e.Trace.Addr, true)
			}
			c.lsq.Get(e.LSQSeq).Issued = true
			c.markIssued(e, c.cycle+1)
			*budget--
		default:
			kind := fu.KindFor(op.Class())
			unit, ok := c.pool.AcquireUnit(kind, c.cycle, op.IssueLatency())
			if !ok {
				c.issueNoFU = true
				return true
			}
			e.FUKind, e.FUUnit = uint8(kind), unit
			c.markIssued(e, c.cycle+uint64(op.OpLatency()))
			*budget--
		}
		return true
	})
}

func (c *CPU) markIssued(e *ruu.Entry, doneAt uint64) {
	e.Issued = true
	e.IssuedAt = c.cycle
	e.DoneAt = doneAt
	if c.observed() {
		c.emit(obs.EvIssue, e.Seq, &e.Trace, e.FUKind+1, int16(e.FUUnit))
	}
}

// issueR issues dispatched R-stream copies. They carry their operands,
// so readiness is never in question — only functional-unit
// availability. Copies blocked on a busy unit class are skipped; they
// hold their window slot until they get one, which is exactly how FU
// shortage turns into window pressure on the P stream (and why spare
// elements recover performance).
func (c *CPU) issueR(budget *int) {
	c.rsq.Scan(func(e *reese.Entry) bool {
		if *budget <= 0 {
			return false
		}
		if !e.Dispatched || e.Issued {
			return true
		}
		op := e.Trace.Inst.Op
		var doneAt uint64
		rKind := fu.MemPort
		rUnit := -1
		switch {
		case op.IsLoad():
			unit, ok := c.pool.AcquireUnit(fu.MemPort, c.cycle, op.IssueLatency())
			if !ok {
				c.issueNoFU = true
				return true
			}
			rUnit = unit
			// The R-stream load re-reads the D-cache; the P stream
			// brought the line in, so this almost always hits (§4.4).
			lat := c.hier.DataLatency(e.Trace.Addr, false)
			doneAt = c.cycle + uint64(lat)
		case op.IsStore():
			unit, ok := c.pool.AcquireUnit(fu.MemPort, c.cycle, op.IssueLatency())
			if !ok {
				c.issueNoFU = true
				return true
			}
			rUnit = unit
			// This is the architectural cache write, performed only on
			// the verified path (the store buffer drains here).
			c.hier.DataLatency(e.Trace.Addr, true)
			doneAt = c.cycle + 1
		default:
			kind := fu.KindFor(op.Class())
			unit, ok := c.pool.AcquireUnit(kind, c.cycle, op.IssueLatency())
			if !ok {
				c.issueNoFU = true
				return true
			}
			rKind, rUnit = kind, unit
			doneAt = c.cycle + uint64(op.OpLatency())
		}
		e.RKind, e.RUnit = uint8(rKind), rUnit
		if c.stuck != nil && c.stuck.Hits(uint8(rKind), rUnit) {
			e.RFaultMask = c.stuck.Mask()
		}
		c.rsq.MarkIssued(e, c.cycle, doneAt)
		if c.observed() {
			c.emit(obs.EvIssueR, e.Seq, &e.Trace, uint8(rKind)+1, int16(rUnit))
		}
		*budget--
		return true
	})
}

// ---------------------------------------------------------------------
// Writeback
// ---------------------------------------------------------------------

// writeback completes executions whose latency has elapsed: P-stream
// completions resolve branches (unblocking fetch on mispredictions) and
// latch results — the point where the fault injector may corrupt them.
// R-stream completions run the comparator.
func (c *CPU) writeback() {
	c.ruu.Scan(func(e *ruu.Entry) bool {
		if !e.Issued || e.Completed || e.DoneAt > c.cycle {
			return true
		}
		e.Completed = true
		if c.observed() {
			c.emit(obs.EvWriteback, e.Seq, &e.Trace, e.FUKind+1, int16(e.FUUnit))
		}
		if e.Bogus {
			// Wrong-path completions update nothing architectural: no
			// predictor training, no fault injection.
			return true
		}
		op := e.Trace.Inst.Op
		if op.IsControl() && !e.Dup {
			c.resolveControl(e)
		}
		if c.stuck != nil && c.stuck.Hits(e.FUKind, e.FUUnit) {
			// A permanent unit fault corrupts the latched outcome of
			// every computation it performs.
			switch {
			case e.Trace.HasResult:
				e.ResultP ^= c.stuck.Mask()
			case op.IsStore():
				e.StoreValueP ^= c.stuck.Mask()
			}
		}
		if e.Seq >= c.hookHorizon {
			c.hookHorizon = e.Seq + 1
		}
		if c.injector == nil {
			return true
		}
		if inj, ok := c.injector.Decide(e.Seq, e.Trace); ok {
			e.ResultP, e.NextPCP, e.AddrP, e.StoreValueP = fault.Apply(inj, e.Trace)
			e.FaultBit = inj.Bit % 32
			e.FaultCycle = c.cycle
			c.faultFired(e.Seq, &e.Trace)
		}
		return true
	})

	if c.rsq == nil {
		return
	}
	// The comparator sits between writeback and commit: completed
	// re-executions check against the latched P-stream outcome and
	// release their window slot.
	var bad *reese.Entry
	c.rsq.Scan(func(e *reese.Entry) bool {
		if !e.Issued || e.Done || e.DoneAt > c.cycle {
			return true
		}
		c.rLive--
		if !c.rsq.Compare(e) {
			bad = e
			if c.observed() {
				c.emit(obs.EvMismatch, e.Seq, &e.Trace, e.RKind+1, int16(e.RUnit))
			}
			return false // recovery flushes everything anyway
		}
		if c.observed() {
			c.emit(obs.EvVerify, e.Seq, &e.Trace, e.RKind+1, int16(e.RUnit))
		}
		return true
	})
	if bad != nil {
		c.onMismatch(bad)
	}
}

// resolveControl trains the predictors with the true outcome and, for
// mispredicted transfers, restarts fetch after the redirect penalty.
func (c *CPU) resolveControl(e *ruu.Entry) {
	tr := &e.Trace
	op := tr.Inst.Op
	if op.IsBranch() {
		c.pred.TrainAt(tr.PC, e.BpHistory, tr.Taken)
	}
	if tr.Taken && tr.NextPC != tr.PC+isa.WordBytes {
		c.btb.Insert(tr.PC, tr.NextPC)
	}
	if e.Mispredicted {
		if c.cfg.ModelWrongPath {
			c.squashWrongPath(e)
			return
		}
		c.fetchStalled = false
		resume := c.cycle + 1 + redirectPenalty
		if resume > c.fetchReadyAt {
			c.fetchReadyAt = resume
		}
	}
}

// squashWrongPath removes every wrong-path instruction behind the
// resolved branch and redirects fetch to the correct path. The squashed
// work consumed real bandwidth, window slots, and functional units —
// the cost the stall model approximates with a flat penalty.
func (c *CPU) squashWrongPath(branch *ruu.Entry) {
	cut := branch.Seq
	if c.dupMode {
		// The branch's duplicate (dispatched atomically with it, before
		// any wrong-path entry) must survive the squash.
		cut++
	}
	squashed := c.ruu.NextSeq() - cut - 1
	c.wpSquashed += squashed
	c.ruu.TruncateAfter(cut)
	if c.wpMarked {
		c.lsq.TruncateTo(c.wpLsqMark)
	}
	// Everything still in the fetch queue is bogus (nothing real is
	// fetched after a mispredicted branch).
	c.fetchQClear()
	c.hasWPPending = false
	c.pred.Restore(c.wpHistSnap)
	c.wrongPath = false
	c.wpMarked = false
	resume := c.cycle + 1
	if resume > c.fetchReadyAt {
		c.fetchReadyAt = resume
	}
	if c.observed() {
		c.emit(obs.EvSquash, 0, &branch.Trace, 0, -1)
	}
}

// ---------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------

// commit retires instructions in program order, returning how many
// commit slots did work this cycle. Baseline machines retire directly
// from the RUU head. REESE machines retire verified instructions from
// the R-stream Queue head and refill the queue from the RUU head (this
// is the only place a full RSQ back-pressures the P stream). When
// slots go unused, the blocking cause is resolved from the machine
// state the moment commit gave up — before writeback and issue mutate
// it — and charged in chargeStalls at the end of the cycle.
func (c *CPU) commit() int {
	var used int
	switch {
	case c.dupMode:
		used = c.commitDup()
	case c.rsq == nil:
		used = c.commitBaseline()
	default:
		used = c.commitReese()
	}
	if used < c.cfg.Width {
		c.commitBlock = c.commitCause()
	} else {
		c.commitBlock = obs.CauseNone
	}
	return used
}

// commitCause inspects the oldest blocked instruction and names the one
// thing stopping commit — top-down accounting in the style of the
// paper's utilization figures. Precedence runs back-to-front: an
// unverified RSQ head outranks anything upstream; an empty machine
// blames the front end (or the post-halt drain).
func (c *CPU) commitCause() obs.StallCause {
	if c.done || c.permError {
		return obs.CauseDrain
	}
	if c.rsq != nil && !c.rsq.Empty() {
		// The RSQ head has not been verified yet. When the queue is also
		// full it is crammed faster than the R stream can drain it — the
		// paper's overflow condition (§4.3) — which is the actionable
		// signal, so it takes the charge.
		if c.rsq.Full() {
			return obs.CauseRSQFull
		}
		return obs.CauseRecheckPending
	}
	if c.ruu.Empty() {
		if c.fetchLen == 0 && c.oracleDone && !c.hasPending && c.replayHead >= len(c.replayQ) {
			return obs.CauseDrain
		}
		return obs.CauseFetchEmpty
	}
	h := c.ruu.Head()
	if !h.Issued {
		if c.ruu.OperandsReady(h, c.cycle) {
			// Ready but never picked: every unit of its class was busy
			// (or, for loads, the LSQ blocked disambiguation).
			return obs.CauseIssueNoFU
		}
		return obs.CauseIssueWait
	}
	if !h.Completed || h.DoneAt > c.cycle {
		return obs.CauseExecLatency
	}
	// Head latched its result but could not move on. In dup mode it
	// waits for its duplicate; under REESE a latched head failing to
	// enter the queue means the refill loop hit a full RSQ.
	if c.rsq != nil {
		return obs.CauseRSQFull
	}
	return obs.CauseExecLatency
}

func (c *CPU) commitReese() int {
	// Retire verified instructions from the RSQ head. Their LSQ entries
	// were already released when they entered the RSQ: the queue entry
	// carries the operands and result, and unverified stores forward to
	// younger loads from there (the paper's extra forwarding hardware,
	// §4.3).
	used := 0
	for n := 0; n < c.cfg.Width && !c.rsq.Empty(); n++ {
		h := c.rsq.Head()
		if !h.Verified {
			break
		}
		e := c.rsq.RetireHead()
		used++
		if c.observed() {
			c.emit(obs.EvCommit, e.Seq, &e.Trace, 0, -1)
		}
		c.retire(e.Trace, false, e.HasFault(), e.ResultP, e.AddrP, e.StoreValueP)
		if c.done {
			return used
		}
	}

	// Move completed instructions from the RUU head into the RSQ.
	for n := 0; n < c.cfg.Width && !c.ruu.Empty(); n++ {
		h := c.ruu.Head()
		if !h.Completed || h.DoneAt > c.cycle {
			break
		}
		if c.rsq.Full() {
			c.rsq.NoteFullStall()
			break
		}
		e := c.ruu.RemoveHead()
		if e.Bogus {
			panic(fmt.Sprintf("pipeline: bogus instruction reached the R-stream Queue: seq=%d pc=%#x %s", e.Seq, e.Trace.PC, e.Trace.Inst))
		}
		if e.LSQSeq != ruu.NoProducer {
			c.lsq.RemoveHead()
		}
		if c.observed() {
			c.emit(obs.EvEnterRSQ, e.Seq, &e.Trace, 0, -1)
		}
		ent := reese.Entry{
			Seq:         e.Seq,
			Trace:       e.Trace,
			ResultP:     e.ResultP,
			NextPCP:     e.NextPCP,
			AddrP:       e.AddrP,
			StoreValueP: e.StoreValueP,
			FaultBit:    e.FaultBit,
			FaultCycle:  e.FaultCycle,
			LSQSeq:      e.LSQSeq,
		}
		if e.Seq >= c.hookHorizon {
			c.hookHorizon = e.Seq + 1
		}
		if c.injector != nil {
			if cor, ok := c.injector.RSQEnqueue(e.Seq, e.Trace); ok {
				// A transient in the RSQ itself: the stored copies are
				// corrupted while e.Trace (what recovery replays) stays
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
				c.faultFired(e.Seq, &e.Trace)
			}
		}
		c.rsq.Enqueue(ent, c.cycle)
	}
	return used
}

func (c *CPU) commitBaseline() int {
	used := 0
	for n := 0; n < c.cfg.Width && !c.ruu.Empty(); n++ {
		h := c.ruu.Head()
		if !h.Completed || h.DoneAt > c.cycle {
			break
		}
		e := c.ruu.RemoveHead()
		if e.Bogus {
			// A wrong-path instruction can never reach commit: its
			// mispredicted branch resolves (and squashes it) strictly
			// before leaving the window.
			panic(fmt.Sprintf("pipeline: bogus instruction reached commit: seq=%d pc=%#x %s", e.Seq, e.Trace.PC, e.Trace.Inst))
		}
		used++
		if c.observed() {
			c.emit(obs.EvCommit, e.Seq, &e.Trace, 0, -1)
		}
		c.retire(e.Trace, e.LSQSeq != ruu.NoProducer, e.HasFault(), e.ResultP, e.AddrP, e.StoreValueP)
		if c.done {
			break
		}
	}
	return used
}

// commitDup retires (original, duplicate) pairs in order, comparing the
// two executions' latched outcomes — the Franklin [24] scheme the paper
// positions REESE against. Both halves consume commit bandwidth.
func (c *CPU) commitDup() int {
	used := 0
	for n := 0; n+1 < c.cfg.Width && c.ruu.Len() >= 2; n += 2 {
		h := c.ruu.Head()
		if !h.Completed || h.DoneAt > c.cycle {
			return used
		}
		if h.Bogus {
			// Should be unreachable (squash precedes commit), but a
			// single bogus entry has no pair; guard explicitly.
			panic("pipeline: bogus instruction reached dup commit")
		}
		d := c.ruu.Get(h.Seq + 1)
		if !d.Dup || d.PairSeq != h.Seq {
			panic(fmt.Sprintf("pipeline: dup pairing broken at seq %d", h.Seq))
		}
		if !d.Completed || d.DoneAt > c.cycle {
			return used
		}
		match := h.ResultP == d.ResultP && h.NextPCP == d.NextPCP &&
			h.AddrP == d.AddrP && h.StoreValueP == d.StoreValueP
		if !match {
			c.onMismatchDup(h, d)
			return used
		}
		// A fault that corrupted BOTH copies identically (a common-mode
		// or permanent fault hitting the same computation twice) passes
		// the comparator: that is pure duplication's blind spot, and it
		// retires as silent corruption. REESE's recomputation-based
		// comparator does not share it.
		commonMode := h.HasFault() || d.HasFault()
		e := c.ruu.RemoveHead()
		c.ruu.RemoveHead()
		if e.LSQSeq != ruu.NoProducer {
			c.lsq.RemoveHead()
			c.lsq.RemoveHead() // the duplicate's entry is adjacent
		}
		used += 2 // both halves of the pair consume commit bandwidth
		if c.observed() {
			c.emit(obs.EvCommit, e.Seq, &e.Trace, 0, -1)
		}
		c.retire(e.Trace, false, commonMode, e.ResultP, e.AddrP, e.StoreValueP)
		if c.done {
			return used
		}
	}
	return used
}

// onMismatchDup handles a failed pair comparison: account the
// detection, then flush and replay, mirroring the RSQ path.
func (c *CPU) onMismatchDup(orig, dup *ruu.Entry) {
	c.detected++
	if c.observed() {
		c.emit(obs.EvMismatch, orig.Seq, &orig.Trace, 0, -1)
	}
	switch {
	case orig.HasFault():
		c.detectLat.Add(c.cycle - orig.FaultCycle)
	case dup.HasFault():
		c.detectLat.Add(c.cycle - dup.FaultCycle)
	}
	if c.lastBadLive && orig.Trace.PC == c.lastBadPC {
		c.permError = true
		return
	}
	c.lastBadPC = orig.Trace.PC
	c.lastBadLive = true
	c.recover(orig.Seq)
}

// retire performs the architectural retirement bookkeeping shared by
// both machines.
// retire commits one instruction architecturally. resultP, addrP and
// storeValueP are the latched values that actually commit (possibly
// corrupted by an undetected fault); they feed the shadow register file
// and store hash behind CommitDigest.
func (c *CPU) retire(tr emu.Trace, isMem, hadFault bool, resultP, addrP, storeValueP uint32) {
	if c.inst.CommitWatch != nil {
		// The commit index before increment is the instruction's global
		// program-order position — the lockstep alignment key.
		c.inst.CommitWatch(c, c.committed, c.cycle, tr, resultP, addrP, storeValueP)
	}
	c.committed++
	if r, fp, ok := tr.DestReg(); ok {
		if fp {
			c.shadowFRegs[r] = resultP
		} else if r != isa.RegZero {
			c.shadowRegs[r] = resultP
		}
	}
	if tr.Inst.Op.IsStore() {
		c.storeHash = emu.MixStore(c.storeHash, addrP, tr.MemWidth, storeValueP)
		c.storeCount++
	}
	op := tr.Inst.Op
	switch {
	case op.IsControl():
		c.classCommits[4]++
	case op.IsFP() && !op.IsMem():
		c.classCommits[5]++
	case op.IsLoad():
		c.classCommits[2]++
	case op.IsStore():
		c.classCommits[3]++
	case op.Class() == isa.ClassIntMult:
		c.classCommits[1]++
	default:
		c.classCommits[0]++
	}
	if isMem {
		c.lsq.RemoveHead()
	}
	if !hadFault && c.lastBadLive && tr.PC == c.lastBadPC {
		// The previously faulting instruction retired cleanly: the
		// transient is gone. (A corrupted instruction retiring without
		// detection is silent data corruption; the campaign oracle
		// classifies it from the final digests.)
		c.lastBadLive = false
	}
	if tr.Halt {
		c.done = true
	}
}

// ---------------------------------------------------------------------
// Fault recovery
// ---------------------------------------------------------------------

// onMismatch handles a comparator hit: account for the detection, then
// flush the pipeline and replay from the faulting instruction (§4.3). A
// second consecutive mismatch at the same PC is treated as a permanent
// error and stops the machine.
func (c *CPU) onMismatch(bad *reese.Entry) {
	c.detected++
	if bad.HasFault() {
		c.detectLat.Add(c.cycle - bad.FaultCycle)
	}
	if c.lastBadLive && bad.Trace.PC == c.lastBadPC {
		c.permError = true
		return
	}
	c.lastBadPC = bad.Trace.PC
	c.lastBadLive = true
	c.recover(bad.Seq)
}

// recover force-retires everything older than faultSeq, then flushes all
// in-flight state and queues the flushed instructions (from faultSeq on)
// for re-fetch.
func (c *CPU) recover(faultSeq uint64) {
	c.recoveries++
	if c.observed() {
		c.emit(obs.EvRecovery, faultSeq, &emu.Trace{PC: c.lastBadPC}, 0, -1)
	}

	// Rebuild the replay queue into the spare buffer, then swap the two
	// so the next recovery reuses this one's backing array: after the
	// first couple of recoveries the rebuild allocates nothing.
	replay := c.replayScratch[:0]
	if c.rsq != nil {
		c.rsq.Scan(func(e *reese.Entry) bool {
			if e.Seq >= faultSeq {
				replay = append(replay, e.Trace)
			} else {
				// Older than the fault: already executed; it retires
				// with the flush (its verification outcome is what it
				// is).
				c.retire(e.Trace, false, false, e.ResultP, e.AddrP, e.StoreValueP)
			}
			return true
		})
	}
	c.ruu.Scan(func(e *ruu.Entry) bool {
		if !e.Bogus && !e.Dup {
			replay = append(replay, e.Trace)
		}
		return true
	})
	for i := 0; i < c.fetchLen; i++ {
		// Wrong-path entries are squashed work, not program state; they
		// must never re-enter the real instruction stream.
		if fe := c.fetchQAt(i); !fe.bogus {
			replay = append(replay, fe.tr)
		}
	}
	replay = append(replay, c.replayQ[c.replayHead:]...)

	c.replayScratch = c.replayQ[:0]
	c.replayQ = replay
	c.replayHead = 0
	if c.rsq != nil {
		c.rsq.Flush()
	}
	c.ruu.Flush()
	c.lsq.Flush()
	c.fetchQClear()
	c.rLive = 0
	c.pool.Reset()
	c.fetchStalled = false
	c.wrongPath = false
	c.wpMarked = false
	c.hasWPPending = false
	c.fetchReadyAt = c.cycle + 1 + recoveryPenalty
}
