// Package pipeline is the cycle-level out-of-order superscalar timing
// simulator — the equivalent of SimpleScalar 2.0's sim-outorder, which
// the REESE paper modified. It models fetch (with gshare branch
// prediction, BTB and return-address stack), dispatch into a Register
// Update Unit and Load/Store Queue, operand-ready issue to a
// functional-unit pool, writeback, and in-order commit. With REESE
// enabled, completed instructions pass through the R-stream Queue and a
// result comparator before retiring (internal/reese).
//
// The simulator is execution-driven: a functional emulator (the oracle)
// runs ahead at fetch time and supplies true values and branch outcomes;
// the pipeline decides *when* everything happens. Branch mispredictions
// stall fetch until the branch resolves — the standard approximation
// that charges the full misprediction penalty without simulating
// wrong-path instructions.
package pipeline

import (
	"context"
	"fmt"

	"reese/internal/bpred"
	"reese/internal/config"
	"reese/internal/emu"
	"reese/internal/fault"
	"reese/internal/fu"
	"reese/internal/isa"
	"reese/internal/mem"
	"reese/internal/obs"
	"reese/internal/program"
	"reese/internal/reese"
	"reese/internal/ruu"
	"reese/internal/stats"
)

// redirectPenalty is the extra front-end refill charged after a branch
// misprediction resolves (on top of waiting for resolution itself).
const redirectPenalty = 2

// recoveryPenalty is the pipeline-drain cost charged when a detected
// fault flushes the machine.
const recoveryPenalty = 4

// DefaultHangLimit is the no-commit watchdog threshold: a run that goes
// this many cycles without retiring a single instruction is declared
// hung and terminated cleanly (Result.Hanged). Even the deepest
// realistic stall (a full window behind an L2-missing load) resolves in
// hundreds of cycles, so 100k cycles of commit silence means a fault
// wedged the machine — e.g. a corrupted fetch PC marching off the text
// segment. SetHangLimit overrides it (tests use small values).
const DefaultHangLimit = 100_000

// fetchEntry is one instruction waiting in the fetch queue.
type fetchEntry struct {
	tr           emu.Trace
	mispredicted bool
	// histSnap is the predictor history this branch's prediction used,
	// carried to resolution so training hits the same table entry.
	histSnap uint32
	// bogus marks wrong-path instructions.
	bogus bool
	// fetchedAt is the cycle the entry entered the queue, carried so the
	// flight recorder can backdate the FETCH event at dispatch time.
	fetchedAt uint64
}

// CPU is one simulated processor instance. Create with New, run with
// Run; a CPU is single-use.
type CPU struct {
	cfg    config.Machine
	oracle *emu.Machine
	prog   *program.Program

	hier *mem.Hierarchy
	pool *fu.Pool
	pred bpred.Predictor
	btb  *bpred.BTB
	ras  *bpred.RAS

	ruu *ruu.RUU
	lsq *ruu.LSQ
	// det is the machine's redundancy scheme (detector.go), chosen once
	// in New: none, the R-stream Queue, or dup-dispatch.
	det detector

	// injector supplies transient faults at the four hook sites
	// (writeback latch, oracle step, RSQ enqueue, memory hierarchy). New
	// and Fork store nil for a nil or fault.None injector, so fault-free
	// runs pay a nil check per site instead of an interface call.
	injector fault.Injector
	// stuck, when non-nil, is a permanent single-unit fault (see
	// fault.StuckUnit and SetStuckUnit).
	stuck *fault.StuckUnit

	// fetchQ is a fixed-capacity ring buffer (FetchQueueSize entries);
	// fetchHead/fetchLen index it so steady-state fetch never allocates.
	fetchQ    []fetchEntry
	fetchHead int
	fetchLen  int
	// replayQ holds traces to re-fetch after fault recovery, consumed
	// from replayHead; replayScratch is the spare buffer recover() swaps
	// in when rebuilding the queue, so repeated recoveries reuse the
	// same two backing arrays.
	replayQ       []emu.Trace
	replayHead    int
	replayScratch []emu.Trace
	// pending is the real-path trace pushed back by an I-cache miss
	// (valid when hasPending). wpPending is its wrong-path equivalent,
	// kept separate so a wrong-path I-cache miss can never leak a bogus
	// trace into the real stream (it is dropped at squash).
	pending      emu.Trace
	hasPending   bool
	wpPending    emu.Trace
	hasWPPending bool
	// trScratch/wpScratch are the stable homes for the trace handed out
	// by nextTrace/wrongPathTrace each fetch slot, so returning a
	// pointer never forces a heap allocation.
	trScratch emu.Trace
	wpScratch emu.Trace
	// dec is prog's pre-decoded text, consulted by wrong-path fetch.
	dec *program.DecodedText
	// inst holds the armed observers (trace.go); Snapshot and Fork
	// never carry them over.
	inst Instruments

	cycle        uint64
	fetchReadyAt uint64 // I-cache miss / redirect gate
	fetchStalled bool   // waiting on a mispredicted branch to resolve

	// Wrong-path state (config.ModelWrongPath): after a misprediction,
	// fetch decodes down the predicted (wrong) path until the branch
	// resolves and the tail is squashed.
	wrongPath  bool
	wpPC       uint32 // next wrong-path fetch address
	wpLsqMark  uint64 // LSQ position at wrong-path entry (squash point)
	wpHistSnap uint32 // predictor history to restore at squash
	wpMarked   bool   // wpLsqMark captured for the current wrong path
	wpFetched  uint64 // wrong-path instructions fetched (stat)
	wpSquashed uint64 // wrong-path instructions squashed from the window
	oracleDone bool   // oracle reached halt
	done       bool   // halt retired
	permError  bool   // persistent fault: machine stopped

	committed     uint64
	instLimit     uint64
	fastForwarded uint64

	// No-commit watchdog: if hangLimit cycles pass without a single
	// commit, the run terminates cleanly with Result.Hanged set (a fault
	// can wedge the machine; a campaign worker must not wedge with it).
	hangLimit uint64
	hanged    bool
	// Watchdog position — CPU fields rather than RunContext locals so a
	// forked machine (snapshot.go) resumes the golden run's no-commit
	// window exactly where the snapshot left it.
	lastCommitted   uint64
	lastCommitCycle uint64

	// Commit-count boundary hook (snapshot.go): when hookFn is non-nil
	// the cycle loop invokes it once whenever committed first reaches
	// hookMarks[hookIdx]. The golden instrumented run snapshots there;
	// forked trials attempt to splice back onto the golden run there. A
	// true return stops the run.
	hookMarks []uint64
	hookIdx   int
	hookFn    func(*CPU) bool

	// hookHorizon is one past the highest sequence number ever presented
	// to the writeback/RSQ fault-injection sites. A checkpoint is a safe
	// fork point for a fault at seq only if no site call at or beyond seq
	// happened before it (converge.go's fork-eligibility rule).
	hookHorizon uint64

	// hangFF enables the periodicity hang fast-forward (converge.go);
	// ffScratch is its reusable probe snapshot and ffProbeAge the commit-
	// drought depth the probe was captured at (0 = no live probe).
	hangFF     bool
	ffScratch  *CPU
	ffProbeAge uint64
	// hangPeriod is the loop period (cycles) the hang fast-forward
	// proved, 0 when the watchdog fired without a periodicity proof;
	// ffSkipped is how many cycles its jump skipped.
	hangPeriod uint64
	ffSkipped  uint64

	// faultCycle is the cycle the injector first fired (0 = not yet) —
	// the anchor for the triage recorder window and divergence deltas.
	faultCycle uint64
	// stopReq makes the running cycle loop return at the end of the
	// current cycle, as a normal (non-error) result (RequestStop).
	stopReq bool

	// Shadow architectural state rebuilt from latched commit values
	// (what the timing machine actually retired, as opposed to the
	// oracle's always-clean state). CommitDigest summarizes it; fault
	// campaigns compare it against a golden run to detect SDC.
	shadowRegs  [isa.NumRegs]uint32
	shadowFRegs [isa.NumRegs]uint32
	storeHash   uint64
	storeCount  uint64

	// progressSeen is the commit count last credited to
	// inst.Progress.
	progressSeen uint64

	// Fault bookkeeping.
	detected    uint64
	detectLat   *stats.Histogram
	recoveries  uint64
	lastBadPC   uint32
	lastBadLive bool

	// Stall accounting. fetch*/dispatch* are legacy event counters;
	// stalls is the per-slot attribution matrix (every unused dispatch,
	// issue, and commit slot charged to exactly one cause per cycle).
	fetchICacheStallCycles uint64
	fetchBranchStallCycles uint64
	dispatchRUUFull        uint64
	dispatchLSQFull        uint64
	stalls                 obs.Matrix
	// Per-cycle attribution scratch, reset in step: dispCause is the
	// first dispatch-blocking condition seen this cycle; issueNotReady /
	// issueNoFU record what the issue scans skipped over; commitBlock is
	// the cause commit() computed for its unused slots.
	dispCause     obs.StallCause
	issueNotReady bool
	issueNoFU     bool
	commitBlock   obs.StallCause

	// Branch accounting.
	branches    uint64
	mispredicts uint64

	// classCommits counts retired instructions per functional-unit
	// class (the dynamic instruction mix).
	classCommits [8]uint64
}

// Fetch-queue ring-buffer operations. The buffer is sized once in New;
// pushes are bounded by FetchQueueSize checks in fetch().

func (c *CPU) fetchQPush(fe fetchEntry) *fetchEntry {
	i := c.fetchHead + c.fetchLen
	if i >= len(c.fetchQ) {
		i -= len(c.fetchQ)
	}
	c.fetchQ[i] = fe
	c.fetchLen++
	return &c.fetchQ[i]
}

func (c *CPU) fetchQFront() *fetchEntry { return &c.fetchQ[c.fetchHead] }

func (c *CPU) fetchQPop() {
	c.fetchHead++
	if c.fetchHead == len(c.fetchQ) {
		c.fetchHead = 0
	}
	c.fetchLen--
}

// fetchQAt returns the i-th entry from the front (0 = oldest).
func (c *CPU) fetchQAt(i int) *fetchEntry {
	j := c.fetchHead + i
	if j >= len(c.fetchQ) {
		j -= len(c.fetchQ)
	}
	return &c.fetchQ[j]
}

func (c *CPU) fetchQClear() { c.fetchHead, c.fetchLen = 0, 0 }

// New builds a CPU for prog under machine configuration cfg, with
// injector supplying soft errors (nil or fault.None{} for none).
func New(cfg config.Machine, prog *program.Program, injector fault.Injector) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	oracle, err := emu.New(prog)
	if err != nil {
		return nil, err
	}
	hier, err := mem.NewHierarchy(cfg.Memory)
	if err != nil {
		return nil, err
	}
	pool, err := fu.NewPool(cfg.FU)
	if err != nil {
		return nil, err
	}
	pred, err := newPredictor(cfg)
	if err != nil {
		return nil, err
	}
	btb, err := bpred.NewBTB(cfg.BTBSets, cfg.BTBAssoc)
	if err != nil {
		return nil, err
	}
	ras, err := bpred.NewRAS(cfg.RASSize)
	if err != nil {
		return nil, err
	}
	r, err := ruu.New(cfg.RUUSize)
	if err != nil {
		return nil, err
	}
	lsq, err := ruu.NewLSQ(cfg.LSQSize)
	if err != nil {
		return nil, err
	}
	det, err := newDetector(cfg)
	if err != nil {
		return nil, err
	}
	c := &CPU{
		cfg:       cfg,
		oracle:    oracle,
		prog:      prog,
		dec:       prog.Decoded(),
		fetchQ:    make([]fetchEntry, cfg.FetchQueueSize),
		hier:      hier,
		pool:      pool,
		pred:      pred,
		btb:       btb,
		ras:       ras,
		ruu:       r,
		lsq:       lsq,
		det:       det,
		detectLat: stats.NewHistogram(1),
		hangLimit: DefaultHangLimit,
		storeHash: emu.DigestSeed,
	}
	c.shadowRegs[isa.RegSP] = program.StackTop
	if _, none := injector.(fault.None); !none {
		c.injector = injector
	}
	c.hier.SetWordPlane(c.oracle.Mem())
	return c, nil
}

// Result is the outcome of a simulation run.
type Result struct {
	Config    string
	Workload  string
	Cycles    uint64
	Committed uint64
	IPC       float64

	Halted    bool
	PermError bool
	// Hanged reports that the no-commit watchdog terminated the run:
	// the machine went DefaultHangLimit (or SetHangLimit) cycles
	// without retiring an instruction.
	Hanged bool
	// HangPeriod is the loop period (cycles) the Brent-style hang
	// fast-forward proved before jumping to the watchdog; 0 when the
	// run did not hang or hung without a periodicity proof.
	HangPeriod uint64 `json:",omitempty"`
	// FastForwarded is the number of instructions skipped functionally
	// before timing began.
	FastForwarded uint64

	Branches          uint64
	Mispredicts       uint64
	BranchAcc         float64
	FetchICacheStalls uint64
	FetchBranchStalls uint64
	DispatchRUUFull   uint64
	DispatchLSQFull   uint64

	// Stalls attributes every unused dispatch/issue/commit slot over
	// the run to one cause (see obs.StallCause; reese-sim -why renders
	// it as a table).
	Stalls obs.StallBreakdown

	// ALUUtil etc. are mean functional-unit utilizations over the run.
	ALUUtil, MultUtil, MemPortUtil float64

	// Mix is the committed dynamic instruction mix by class.
	Mix InstructionMix

	// WrongPathFetched/Squashed count wrong-path activity (only with
	// config.ModelWrongPath).
	WrongPathFetched  uint64
	WrongPathSquashed uint64

	L1I, L1D, L2 mem.CacheStats

	// Reese is non-nil for REESE machines. RSQOccupancyMean/Max sample
	// the queue's fill level per cycle, which is also the machine's
	// P-to-R-stream separation in instructions (the paper's Δt, §2).
	Reese            *reese.Stats
	RSQOccupancyMean float64
	RSQOccupancyMax  uint64

	// Fault-injection outcome: comparator detections and the recoveries
	// they triggered. Whether a fault fired is the injector's to report
	// (fault.AtStruct.Fired).
	FaultsDetected uint64
	Recoveries     uint64
	// DetectionLatency summarises cycles from injection to detection.
	DetectionLatencyMean float64
	DetectionLatencyMax  uint64
}

// newPredictor builds the configured branch predictor.
func newPredictor(cfg config.Machine) (bpred.Predictor, error) {
	switch cfg.Predictor {
	case config.PredGshare:
		return bpred.NewGshare(cfg.GshareBits)
	case config.PredBimodal:
		return bpred.NewBimodal(cfg.GshareBits)
	case config.PredCombining:
		g, err := bpred.NewGshare(cfg.GshareBits)
		if err != nil {
			return nil, err
		}
		b, err := bpred.NewBimodal(cfg.GshareBits)
		if err != nil {
			return nil, err
		}
		return bpred.NewCombining(g, b, cfg.GshareBits)
	case config.PredStaticTaken:
		return &bpred.Static{Taken: true}, nil
	case config.PredStaticNotTaken:
		return &bpred.Static{}, nil
	default:
		return nil, fmt.Errorf("pipeline: unknown predictor kind %d", cfg.Predictor)
	}
}

// FastForward functionally executes n instructions on the oracle
// before timing simulation begins — SimpleScalar's -fastfwd. The
// skipped instructions update architectural state but cost no cycles
// and leave caches and predictors cold. It must be called before Run.
func (c *CPU) FastForward(n uint64) (uint64, error) {
	if c.cycle != 0 || c.committed != 0 {
		return 0, fmt.Errorf("pipeline: FastForward after simulation started")
	}
	done, err := c.oracle.Run(n)
	if err != nil {
		return done, err
	}
	if c.oracle.Halted() {
		// Nothing left to simulate; mark the stream exhausted so Run
		// terminates immediately.
		c.oracleDone = true
		c.done = true
	}
	c.fastForwarded = done
	return done, nil
}

// Run simulates until the program halts and drains, until maxInsts
// instructions have committed (0 = no limit), or until the safety cycle
// cap trips (which returns an error: it indicates a simulator bug).
func (c *CPU) Run(maxInsts uint64) (Result, error) {
	return c.RunContext(context.Background(), maxInsts)
}

// ctxCheckInterval is how many cycles pass between ctx.Err() polls in
// RunContext. At simulator speed this bounds the cancellation latency
// to well under a millisecond while keeping the check off the per-cycle
// path.
const ctxCheckInterval = 16384

// RunContext is Run with cooperative cancellation: the cycle loop polls
// ctx every ctxCheckInterval cycles and returns ctx.Err() (wrapped) if
// the context is cancelled or times out, so an abandoned request stops
// burning CPU mid-simulation. At the same cadence it publishes the
// committed-instruction count to Instruments.Progress, giving external
// watchdogs a liveness heartbeat.
func (c *CPU) RunContext(ctx context.Context, maxInsts uint64) (Result, error) {
	c.instLimit = maxInsts
	c.stopReq = false
	// Bail before simulating anything on an already-dead context, so a
	// run scheduled after cancellation never reports spurious success.
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("pipeline: run cancelled before start: %w", err)
	}
	// Generous deadlock guard: no real run needs more than ~100 cycles
	// per instruction plus slack.
	capCycles := uint64(10_000_000)
	if maxInsts > 0 {
		capCycles = 200*maxInsts + 1_000_000
	}
	nextCtxCheck := c.cycle + ctxCheckInterval
	for !c.done && !c.permError && !c.stopReq {
		if c.instLimit > 0 && c.committed >= c.instLimit {
			break
		}
		if c.cycle > capCycles {
			return Result{}, fmt.Errorf("pipeline: cycle cap %d exceeded at %d committed insts (deadlock?)", capCycles, c.committed)
		}
		if c.cycle >= nextCtxCheck {
			c.reportProgress()
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("pipeline: run cancelled at cycle %d (%d committed): %w", c.cycle, c.committed, err)
			}
			nextCtxCheck = c.cycle + ctxCheckInterval
		}
		c.step()
		if c.committed != c.lastCommitted {
			c.lastCommitted = c.committed
			c.lastCommitCycle = c.cycle
			c.ffProbeAge = 0 // drought over; any held probe is stale
		} else if c.hangLimit > 0 {
			d := c.cycle - c.lastCommitCycle
			if d >= c.hangLimit {
				// The machine is wedged (an injected fault can do this — a
				// corrupted fetch PC off the text segment ends the oracle
				// stream, and nothing will ever commit again). Terminate
				// cleanly: Hanged is a classifiable outcome, not an error.
				c.hanged = true
				break
			}
			// Hang fast-forward (converge.go): deep in a commit drought,
			// hold a probe snapshot and compare the live state against it
			// every cycle; a match proves the machine loops with period
			// c.cycle - probe.cycle and the run jumps to the watchdog.
			// The probe refreshes at each power-of-two depth so a period-p
			// loop is caught once the probe is ≥ p cycles old.
			if c.hangFF {
				if c.ffProbeAge > 0 && c.tryHangFastForward(c.ffScratch) {
					c.hanged = true
					break
				}
				if d >= hangProbeMin && d&(d-1) == 0 && d != c.ffProbeAge {
					c.probeSnapshot()
					c.ffProbeAge = d
				}
			}
		}
		if c.hookFn != nil && c.hookIdx < len(c.hookMarks) && c.committed >= c.hookMarks[c.hookIdx] {
			for c.hookIdx < len(c.hookMarks) && c.committed >= c.hookMarks[c.hookIdx] {
				c.hookIdx++
			}
			if c.hookFn(c) {
				break
			}
		}
	}
	c.reportProgress()
	return c.result(), nil
}

// SetHangLimit overrides the no-commit watchdog threshold (0 disables
// it). Call before Run.
func (c *CPU) SetHangLimit(cycles uint64) { c.hangLimit = cycles }

// SkippedCycles returns how many cycles the hang fast-forward jumped
// over instead of simulating (0 when it never fired).
func (c *CPU) SkippedCycles() uint64 { return c.ffSkipped }

// FaultCycle returns the cycle at which the injector first fired
// (0 = it never fired).
func (c *CPU) FaultCycle() uint64 { return c.faultCycle }

// RequestStop makes the in-flight Run/RunContext return at the end of
// the current cycle with whatever state the machine has, as a normal
// (non-error) result. Observer callbacks use it to end an instrumented
// replay the moment they have what they need — a triage replay whose
// attribution is settled skips the rest of the trial. The request is
// cleared when the next run starts.
func (c *CPU) RequestStop() { c.stopReq = true }

// StopRequested reports whether RequestStop ended the last run early.
func (c *CPU) StopRequested() bool { return c.stopReq }

// step advances one cycle, running stages in reverse pipeline order so
// every stage sees the previous cycle's state of its upstream neighbour.
// Each stage reports how many of its slots did work; the remainder is
// charged to a single stall cause (chargeStalls), so per-cause counts
// always reconcile against width × cycles.
func (c *CPU) step() {
	c.dispCause = obs.CauseNone
	c.issueNotReady, c.issueNoFU = false, false
	nCommit := c.commit()
	c.writeback()
	nIssue := c.issue()
	nDisp := c.det.dispatch(c)
	c.fetch()
	c.chargeStalls(nDisp, nIssue, nCommit)
	c.cycle++
}

// chargeStalls closes the cycle's slot ledger: used slots are banked
// and every unused slot is charged to the one cause its stage
// determined. Pure integer arithmetic — no allocation, always on.
func (c *CPU) chargeStalls(nDisp, nIssue, nCommit int) {
	c.stalls.Use(obs.SlotDispatch, nDisp)
	c.stalls.Use(obs.SlotIssue, nIssue)
	c.stalls.Use(obs.SlotCommit, nCommit)
	if nDisp < c.cfg.Width {
		c.stalls.Charge(obs.SlotDispatch, c.dispatchCause(), c.cfg.Width-nDisp)
	}
	if nIssue < c.cfg.IssueWidth {
		c.stalls.Charge(obs.SlotIssue, c.issueCause(), c.cfg.IssueWidth-nIssue)
	}
	if nCommit < c.cfg.Width {
		c.stalls.Charge(obs.SlotCommit, c.commitBlock, c.cfg.Width-nCommit)
	}
}

// Cycle returns the current cycle number.
func (c *CPU) Cycle() uint64 { return c.cycle }

// Committed returns the number of architecturally retired instructions.
func (c *CPU) Committed() uint64 { return c.committed }

// Output returns the bytes the program has emitted via "out"
// instructions (architectural state, produced by the oracle).
func (c *CPU) Output() []byte { return c.oracle.Output() }

// SetStuckUnit installs a permanent fault in one functional unit: every
// result computed on it has one bit flipped, in the P stream and in any
// redundant execution that lands on the same unit. Call before Run.
func (c *CPU) SetStuckUnit(s fault.StuckUnit) { c.stuck = &s }

func (c *CPU) result() Result {
	res := Result{
		Config:        c.cfg.Name,
		Workload:      c.prog.Name,
		Cycles:        c.cycle,
		Committed:     c.committed,
		Halted:        c.done,
		PermError:     c.permError,
		Hanged:        c.hanged,
		HangPeriod:    c.hangPeriod,
		FastForwarded: c.fastForwarded,

		Branches:    c.branches,
		Mispredicts: c.mispredicts,

		FetchICacheStalls: c.fetchICacheStallCycles,
		FetchBranchStalls: c.fetchBranchStallCycles,
		DispatchRUUFull:   c.dispatchRUUFull,
		DispatchLSQFull:   c.dispatchLSQFull,

		ALUUtil:     c.pool.Utilization(fu.IntALU, c.cycle),
		MultUtil:    c.pool.Utilization(fu.IntMult, c.cycle),
		MemPortUtil: c.pool.Utilization(fu.MemPort, c.cycle),

		L1I: c.hier.L1I.Stats(),
		L1D: c.hier.L1D.Stats(),
		L2:  c.hier.L2.Stats(),

		WrongPathFetched:  c.wpFetched,
		WrongPathSquashed: c.wpSquashed,

		FaultsDetected: c.detected,
		Recoveries:     c.recoveries,
	}
	if c.cycle > 0 {
		res.IPC = float64(c.committed) / float64(c.cycle)
	}
	if c.branches > 0 {
		res.BranchAcc = 1 - float64(c.mispredicts)/float64(c.branches)
	}
	if s := c.det.stats(); s != nil {
		res.Reese = s
		res.RSQOccupancyMax = s.OccupancyMax
		if c.cycle > 0 {
			res.RSQOccupancyMean = float64(s.OccupancySum) / float64(c.cycle)
		}
	}
	if c.detectLat.Count() > 0 {
		res.DetectionLatencyMean = c.detectLat.Mean()
		res.DetectionLatencyMax = c.detectLat.Max()
	}
	res.Stalls = c.stalls.Breakdown(c.cycle, [obs.NumSlotClasses]int{
		obs.SlotDispatch: c.cfg.Width,
		obs.SlotIssue:    c.cfg.IssueWidth,
		obs.SlotCommit:   c.cfg.Width,
	})
	res.Mix = c.mix()
	return res
}

// CommitDigest summarizes the architectural work the timing machine
// actually committed: shadow register files rebuilt from latched
// writeback values and a running hash of the committed-store sequence.
// Unlike the oracle (which always executes cleanly unless an
// oracle-site fault corrupts it), the shadow state sees latch-plane
// corruption that slipped past detection — comparing this digest
// against an uninjected golden run's is how a campaign finds SDC.
// Output bytes come from the oracle stream (out executes at oracle
// time); for runs that reach halt the two agree.
func (c *CPU) CommitDigest() emu.Digest {
	return emu.Digest{
		Committed:  c.committed,
		Halted:     c.done,
		Regs:       c.shadowRegs,
		FRegs:      c.shadowFRegs,
		OutLen:     uint64(len(c.oracle.Output())),
		OutHash:    emu.HashBytes(c.oracle.Output()),
		StoreCount: c.storeCount,
		StoreHash:  c.storeHash,
	}
}

// OracleDigest summarizes the oracle's own final architectural state.
// Oracle-site faults (regfile, fetch PC) corrupt this plane; latch
// faults never do. Campaigns compare both digests against golden.
func (c *CPU) OracleDigest() emu.Digest { return c.oracle.Digest() }

// InstructionMix is the dynamic mix of committed instructions, as
// fractions of the total.
type InstructionMix struct {
	IntALU  float64
	IntMult float64
	Load    float64
	Store   float64
	Control float64
	FP      float64
}

func (c *CPU) mix() InstructionMix {
	if c.committed == 0 {
		return InstructionMix{}
	}
	tot := float64(c.committed)
	return InstructionMix{
		IntALU:  float64(c.classCommits[0]) / tot,
		IntMult: float64(c.classCommits[1]) / tot,
		Load:    float64(c.classCommits[2]) / tot,
		Store:   float64(c.classCommits[3]) / tot,
		Control: float64(c.classCommits[4]) / tot,
		FP:      float64(c.classCommits[5]) / tot,
	}
}
