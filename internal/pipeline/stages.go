package pipeline

import (
	"fmt"

	"reese/internal/emu"
	"reese/internal/fault"
	"reese/internal/fu"
	"reese/internal/isa"
	"reese/internal/obs"
	"reese/internal/program"
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

// noteDispatchBlock records the first structural reason dispatch
// stopped this cycle, for the slot-attribution matrix. The first
// blocker wins: it is what actually ended the dispatch group.
func (c *CPU) noteDispatchBlock(cause obs.StallCause) {
	if c.dispCause == obs.CauseNone {
		c.dispCause = cause
	}
}

// dispatchCause resolves where this cycle's unused dispatch slots went:
// a recorded structural block, otherwise the front end.
func (c *CPU) dispatchCause() obs.StallCause {
	if c.dispCause != obs.CauseNone {
		return c.dispCause
	}
	return c.frontEndCause()
}

// frontEndCause charges an empty machine to the post-halt drain once
// every instruction source is exhausted, otherwise to an empty front end.
func (c *CPU) frontEndCause() obs.StallCause {
	if c.oracleDone && c.fetchLen == 0 && !c.hasPending && c.replayHead >= len(c.replayQ) {
		return obs.CauseDrain
	}
	return obs.CauseFetchEmpty
}

// windowFree returns the number of window slots the RUU leaves free. A
// detector's copies held outside the RUU (REESE's dispatched,
// uncompared R copies) occupy window slots too; their owner subtracts
// them.
func (c *CPU) windowFree() int { return c.cfg.RUUSize - c.ruu.Len() }

// dispatchP moves one instruction from the fetch queue into the RUU
// (and LSQ for memory operations), returning its RUU entry, or nil when
// nothing dispatched. keep window slots must stay free for the
// detector's copies.
func (c *CPU) dispatchP(keep int) *ruu.Entry {
	if c.fetchLen == 0 {
		return nil
	}
	if c.windowFree() <= keep {
		c.dispatchRUUFull++
		c.noteDispatchBlock(obs.CauseDispatchRUUFull)
		return nil
	}
	fe := *c.fetchQFront()
	if fe.bogus && !c.wpMarked {
		// First wrong-path entry reaching dispatch: everything in the
		// LSQ from here on is squashable.
		c.wpLsqMark = c.lsq.NextSeq()
		c.wpMarked = true
	}
	lsqSeq := ruu.NoProducer
	if fe.tr.Inst.Op.IsMem() {
		if c.lsq.Full() {
			c.dispatchLSQFull++
			c.noteDispatchBlock(obs.CauseDispatchLSQFull)
			return nil
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
	return e
}

// ---------------------------------------------------------------------
// Issue
// ---------------------------------------------------------------------

// issue selects up to IssueWidth ready instructions, P-stream and the
// detector's copies in the detector's priority order.
func (c *CPU) issue() int {
	return c.cfg.IssueWidth - c.det.issue(c, c.cfg.IssueWidth)
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
	if c.ruu.Len() > 0 || c.det.held() > 0 {
		return obs.CauseExecLatency
	}
	return c.frontEndCause()
}

// issueP issues ready P-stream instructions from the RUU, oldest first,
// on at most budget slots, and returns the slots left. It visits only
// the window from the oldest unissued instruction on.
func (c *CPU) issueP(budget int) int {
	from, to := c.ruu.Unissued()
	for s := from; s < to && budget > 0; s++ {
		e := c.ruu.Get(s)
		if e.Issued {
			continue
		}
		if !c.ruu.OperandsReady(e, c.cycle) {
			c.issueNotReady = true
			continue
		}
		op := e.Trace.Inst.Op
		if op.IsLoad() && !e.Bogus {
			switch c.lsq.CheckLoad(e.LSQSeq) {
			case ruu.LoadBlocked:
				// Waiting for earlier store addresses: a readiness wait,
				// not an FU shortage.
				c.issueNotReady = true
				continue
			case ruu.LoadForward:
				// Store-to-load forwarding inside the LSQ: 1 cycle, no
				// cache port needed. The port fields are still stamped
				// (unit -1) so the recorder lanes stay truthful.
				le := c.lsq.Get(e.LSQSeq)
				le.Issued = true
				le.Forwarded = true
				e.FUKind, e.FUUnit = uint8(fu.MemPort), -1
				c.markIssued(e, c.cycle+1)
				budget--
				continue
			}
		}
		kind, unit, ok := c.acquireFU(op)
		if !ok {
			continue
		}
		e.FUKind, e.FUUnit = uint8(kind), unit
		var doneAt uint64
		switch {
		case e.Bogus && op.IsMem():
			// Wrong-path memory operations consume a port but bypass
			// the data cache (their addresses are placeholders; real
			// hardware would access speculative state we don't model).
			if e.LSQSeq != ruu.NoProducer && c.lsq.Resident(e.LSQSeq) {
				c.lsq.Get(e.LSQSeq).Issued = true
			}
			doneAt = c.cycle + uint64(c.cfg.Memory.L1D.HitLatency)
		case op.IsLoad():
			doneAt = c.cycle + uint64(c.hier.DataLatency(e.Trace.Addr, false))
			c.lsq.Get(e.LSQSeq).Issued = true
		case op.IsStore():
			if c.det.writesCache(e) {
				c.hier.DataLatency(e.Trace.Addr, true)
			}
			c.lsq.Get(e.LSQSeq).Issued = true
			doneAt = c.cycle + 1
		default:
			doneAt = c.cycle + uint64(op.OpLatency())
		}
		c.markIssued(e, doneAt)
		budget--
	}
	return budget
}

// acquireFU claims a functional unit of op's class for this cycle,
// recording an FU shortage for stall attribution when none is free.
func (c *CPU) acquireFU(op isa.Op) (fu.Kind, int, bool) {
	kind := fu.KindFor(op.Class())
	unit, ok := c.pool.AcquireUnit(kind, c.cycle, op.IssueLatency())
	if !ok {
		c.issueNoFU = true
	}
	return kind, unit, ok
}

func (c *CPU) markIssued(e *ruu.Entry, doneAt uint64) {
	c.ruu.MarkIssued(e, c.cycle, doneAt)
	if c.observed() {
		c.emit(obs.EvIssue, e.Seq, &e.Trace, e.FUKind+1, int16(e.FUUnit))
	}
}

// ---------------------------------------------------------------------
// Writeback
// ---------------------------------------------------------------------

// writeback completes executions whose latency has elapsed: P-stream
// completions resolve branches (unblocking fetch on mispredictions) and
// latch results — the point where the fault injector may corrupt them.
// The detector's comparator then checks its completed copies.
func (c *CPU) writeback() {
	c.ruu.CompleteDue(c.cycle, c.complete)
	c.det.verify(c)
}

// complete latches the outcome of P-stream instruction e, whose
// execution finished this cycle.
func (c *CPU) complete(e *ruu.Entry) {
	if c.observed() {
		c.emit(obs.EvWriteback, e.Seq, &e.Trace, e.FUKind+1, int16(e.FUUnit))
	}
	if e.Bogus {
		// Wrong-path completions update nothing architectural: no
		// predictor training, no fault injection.
		return
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
		return
	}
	if inj, ok := c.injector.Decide(e.Seq, e.Trace); ok {
		e.ResultP, e.NextPCP, e.AddrP, e.StoreValueP = fault.Apply(inj, e.Trace)
		e.FaultBit = inj.Bit % 32
		e.FaultCycle = c.cycle
		c.faultFired(e.Seq, &e.Trace)
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
	if c.ruu.Resident(cut+1) && c.ruu.Get(cut+1).Dup {
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
// commit slots did work this cycle. One loop serves every scheme: the
// detector hands over the oldest instruction allowed to retire (from
// the RUU head, a verified R-stream Queue head, or a matching
// duplicate pair) until the slots run out, then moves completed
// instructions into its verification queue. When slots go unused, the
// blocking cause is resolved from the machine state the moment commit
// gave up — before writeback and issue mutate it — and charged in
// chargeStalls at the end of the cycle.
func (c *CPU) commit() int {
	used := 0
	for used < c.cfg.Width {
		r, ok := c.det.nextRetire(c, c.cfg.Width-used)
		if !ok {
			break
		}
		used += r.slots
		if c.observed() {
			c.emit(obs.EvCommit, r.seq, r.tr, 0, -1)
		}
		c.retire(r.tr, r.faulty, r.result, r.addr, r.store)
		if c.done {
			break
		}
	}
	if !c.done {
		c.det.enter(c)
	}
	c.commitBlock = obs.CauseNone
	if used < c.cfg.Width {
		c.commitBlock = c.commitCause()
	}
	return used
}

// completedHead returns the RUU head when its execution has completed
// by this cycle — the only instruction that may leave the window — or
// nil.
func (c *CPU) completedHead() *ruu.Entry {
	if h := c.ruu.Head(); h != nil && h.Completed && h.DoneAt <= c.cycle {
		return h
	}
	return nil
}

// popRUU removes the completed RUU head h, with its LSQ entry. A
// wrong-path instruction can never leave the window: its mispredicted
// branch resolves (and squashes it) strictly before.
func (c *CPU) popRUU(h *ruu.Entry) {
	if h.Bogus {
		panic(fmt.Sprintf("pipeline: bogus instruction reached commit: seq=%d pc=%#x %s", h.Seq, h.Trace.PC, h.Trace.Inst))
	}
	c.ruu.RemoveHead()
	if h.LSQSeq != ruu.NoProducer {
		c.lsq.RemoveHead()
	}
}

// retireRUU hands the popped RUU instruction h, taking n commit slots,
// to the retire loop.
func retireRUU(h *ruu.Entry, n int, faulty bool) retiring {
	return retiring{seq: h.Seq, tr: &h.Trace, faulty: faulty,
		result: h.ResultP, addr: h.AddrP, store: h.StoreValueP, slots: n}
}

// commitCause inspects the oldest blocked instruction and names the one
// thing stopping commit — top-down accounting in the style of the
// paper's utilization figures. Precedence runs back-to-front: the
// detector's own queue outranks anything upstream; an empty machine
// blames the front end (or the post-halt drain).
func (c *CPU) commitCause() obs.StallCause {
	if c.done || c.permError {
		return obs.CauseDrain
	}
	if cause := c.det.commitStall(c); cause != obs.CauseNone {
		return cause
	}
	if c.ruu.Empty() {
		return c.frontEndCause()
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
	// Still executing — or, in dup mode, latched and waiting for its
	// duplicate.
	return obs.CauseExecLatency
}

// retire commits one instruction architecturally. resultP, addrP and
// storeValueP are the latched values that actually commit (possibly
// corrupted by an undetected fault); they feed the shadow register file
// and store hash behind CommitDigest.
func (c *CPU) retire(tr *emu.Trace, hadFault bool, resultP, addrP, storeValueP uint32) {
	if c.inst.CommitWatch != nil {
		// The commit index before increment is the instruction's global
		// program-order position — the lockstep alignment key.
		c.inst.CommitWatch(c, c.committed, c.cycle, *tr, resultP, addrP, storeValueP)
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

// onMismatch handles a comparator hit on the instruction at seq: stream
// the MISMATCH event (fuKind/unit name the checking unit, 0/-1 for
// none), account the detection — faultCycle dates it when faulty says
// an injected fault is the cause — then flush the pipeline and replay
// from the faulting instruction (§4.3). A second consecutive mismatch
// at the same PC is treated as a permanent error and stops the machine.
func (c *CPU) onMismatch(seq uint64, tr *emu.Trace, fuKind uint8, unit int16, faulty bool, faultCycle uint64) {
	if c.observed() {
		c.emit(obs.EvMismatch, seq, tr, fuKind, unit)
	}
	c.detected++
	if faulty {
		c.detectLat.Add(c.cycle - faultCycle)
	}
	if c.lastBadLive && tr.PC == c.lastBadPC {
		c.permError = true
		return
	}
	c.lastBadPC = tr.PC
	c.lastBadLive = true
	c.recover(seq)
}

// recover force-retires everything older than faultSeq, then flushes all
// in-flight state and queues the flushed instructions (from faultSeq on)
// for re-fetch; the detector contributes its own queue first, as the
// oldest in-flight work.
func (c *CPU) recover(faultSeq uint64) {
	c.recoveries++
	if c.observed() {
		c.emit(obs.EvRecovery, faultSeq, &emu.Trace{PC: c.lastBadPC}, 0, -1)
	}

	// Rebuild the replay queue into the spare buffer, then swap the two
	// so the next recovery reuses this one's backing array: after the
	// first couple of recoveries the rebuild allocates nothing.
	replay := c.det.recover(c, faultSeq, c.replayScratch[:0])
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
	c.ruu.Flush()
	c.lsq.Flush()
	c.fetchQClear()
	c.pool.Reset()
	c.fetchStalled = false
	c.wrongPath = false
	c.wpMarked = false
	c.hasWPPending = false
	c.fetchReadyAt = c.cycle + 1 + recoveryPenalty
}
