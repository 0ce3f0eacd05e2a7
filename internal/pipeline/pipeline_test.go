package pipeline

import (
	"strings"
	"testing"

	"reese/internal/asm"
	"reese/internal/config"
	"reese/internal/emu"
	"reese/internal/fault"
	"reese/internal/program"
)

// loopProgram builds a simple counted loop with a body of independent ALU
// work, n iterations.
func loopProgram(n int) string {
	return `
		li r1, ` + itoa(n) + `
		li r2, 0
	loop:
		add r3, r2, r1
		xor r4, r3, r1
		sub r5, r4, r2
		or r6, r5, r3
		add r2, r2, r3
		addi r1, r1, -1
		bne r1, r0, loop
		halt
	`
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

func mustProg(t *testing.T, src string) *program.Program {
	t.Helper()
	p, err := asm.Assemble("test", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runOn(t *testing.T, cfg config.Machine, src string, inj fault.Injector) Result {
	t.Helper()
	cpu, err := New(cfg, mustProg(t, src), inj)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cpu.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func oracleCount(t *testing.T, src string) uint64 {
	t.Helper()
	m, err := emu.New(mustProg(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if !m.Halted() {
		t.Fatal("oracle did not halt")
	}
	return m.InstCount()
}

func TestBaselineRunsToCompletion(t *testing.T) {
	src := loopProgram(200)
	res := runOn(t, config.Starting(), src, nil)
	if !res.Halted {
		t.Fatal("did not halt")
	}
	want := oracleCount(t, src)
	if res.Committed != want {
		t.Errorf("committed %d, want %d (oracle)", res.Committed, want)
	}
	if res.IPC <= 0.5 || res.IPC > float64(config.Starting().Width) {
		t.Errorf("IPC %v implausible", res.IPC)
	}
}

func TestDependentChainSlowerThanIndependent(t *testing.T) {
	indep := `
		li r9, 500
	loop:
		add r1, r0, r9
		add r2, r0, r9
		add r3, r0, r9
		add r4, r0, r9
		addi r9, r9, -1
		bne r9, r0, loop
		halt
	`
	// r2 is carried across iterations, so the four adds form one long
	// serial chain over the whole run.
	dep := `
		li r9, 500
		li r2, 1
	loop:
		add r2, r2, r9
		add r2, r2, r9
		add r2, r2, r9
		add r2, r2, r9
		addi r9, r9, -1
		bne r9, r0, loop
		halt
	`
	ri := runOn(t, config.Starting(), indep, nil)
	rd := runOn(t, config.Starting(), dep, nil)
	if ri.IPC <= rd.IPC {
		t.Errorf("independent IPC %.3f should exceed dependent-chain IPC %.3f", ri.IPC, rd.IPC)
	}
}

func TestMispredictableBranchesCostCycles(t *testing.T) {
	// Data-dependent unpredictable branch pattern via an LCG, versus the
	// same instruction mix with an always-taken-resolvable branch.
	erratic := `
		li r9, 2000
		li r8, 12345
	loop:
		li r7, 1103515245
		mul r8, r8, r7
		addi r8, r8, 12345
		srli r6, r8, 16
		andi r6, r6, 1
		beq r6, r0, skip
		addi r5, r5, 1
	skip:
		addi r9, r9, -1
		bne r9, r0, loop
		halt
	`
	steady := `
		li r9, 2000
		li r8, 12345
	loop:
		li r7, 1103515245
		mul r8, r8, r7
		addi r8, r8, 12345
		srli r6, r8, 16
		andi r6, r6, 1
		beq r0, r0, skip
		addi r5, r5, 1
	skip:
		addi r9, r9, -1
		bne r9, r0, loop
		halt
	`
	re := runOn(t, config.Starting(), erratic, nil)
	rs := runOn(t, config.Starting(), steady, nil)
	if re.BranchAcc >= rs.BranchAcc {
		t.Errorf("erratic accuracy %.3f should be below steady %.3f", re.BranchAcc, rs.BranchAcc)
	}
	if re.IPC >= rs.IPC {
		t.Errorf("erratic IPC %.3f should be below steady %.3f", re.IPC, rs.IPC)
	}
	if re.Mispredicts == 0 {
		t.Error("erratic pattern should mispredict")
	}
}

func TestReeseCompletesWithSameInstructionCount(t *testing.T) {
	src := loopProgram(300)
	want := oracleCount(t, src)
	res := runOn(t, config.Starting().WithReese(), src, nil)
	if !res.Halted {
		t.Fatal("REESE machine did not halt")
	}
	if res.Committed != want {
		t.Errorf("committed %d, want %d", res.Committed, want)
	}
	if res.Reese == nil {
		t.Fatal("REESE stats missing")
	}
	if res.Reese.Mismatches != 0 {
		t.Errorf("spurious mismatches: %d", res.Reese.Mismatches)
	}
	if res.Reese.Enqueued != want {
		t.Errorf("RSQ saw %d instructions, want %d", res.Reese.Enqueued, want)
	}
	if res.Reese.Reexecuted != want {
		t.Errorf("re-executed %d, want %d (full duplication)", res.Reese.Reexecuted, want)
	}
	if res.Reese.Verified != want {
		t.Errorf("verified %d, want %d", res.Reese.Verified, want)
	}
}

func TestReeseSlowerThanBaselineButLessThanDouble(t *testing.T) {
	src := loopProgram(1000)
	base := runOn(t, config.Starting(), src, nil)
	reese := runOn(t, config.Starting().WithReese(), src, nil)
	if reese.Cycles <= base.Cycles {
		t.Errorf("REESE (%d cycles) should be slower than baseline (%d)", reese.Cycles, base.Cycles)
	}
	if reese.Cycles >= 2*base.Cycles {
		t.Errorf("REESE (%d cycles) should be well under 2x baseline (%d): idle capacity absorbs the R stream", reese.Cycles, base.Cycles)
	}
}

func TestSpareALUsShrinkReeseGap(t *testing.T) {
	src := loopProgram(1000)
	base := runOn(t, config.Starting(), src, nil)
	plain := runOn(t, config.Starting().WithReese(), src, nil)
	spared := runOn(t, config.Starting().WithReese().WithSpares(2, 0), src, nil)
	gapPlain := float64(plain.Cycles) - float64(base.Cycles)
	gapSpared := float64(spared.Cycles) - float64(base.Cycles)
	if gapSpared > gapPlain {
		t.Errorf("2 spare ALUs should not widen the gap: plain %+.0f vs spared %+.0f cycles", gapPlain, gapSpared)
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	src := `
		la r1, buf
		li r9, 300
	loop:
		sw r9, 0(r1)
		lw r2, 0(r1)
		add r3, r2, r9
		addi r9, r9, -1
		bne r9, r0, loop
		halt
	.data
	buf:
		.space 64
	`
	res := runOn(t, config.Starting(), src, nil)
	if !res.Halted {
		t.Fatal("did not halt")
	}
	want := oracleCount(t, src)
	if res.Committed != want {
		t.Errorf("committed %d, want %d", res.Committed, want)
	}
}

func TestReeseFaultDetectionAndRecovery(t *testing.T) {
	src := loopProgram(200)
	want := oracleCount(t, src)
	inj := &fault.AtStruct{Seq: 100, Bit: 7}
	res, dig := runDigest(t, config.Starting().WithReese(), src, inj)
	_, clean := runDigest(t, config.Starting().WithReese(), src, nil)
	if !res.Halted {
		t.Fatal("did not halt after recovery")
	}
	if !inj.Fired() {
		t.Fatal("fault did not fire")
	}
	if res.FaultsDetected != 1 {
		t.Errorf("detected %d faults, want 1", res.FaultsDetected)
	}
	if dig != clean {
		t.Error("recovered run's committed state differs from the fault-free run's")
	}
	if res.Recoveries != 1 {
		t.Errorf("recoveries %d, want 1", res.Recoveries)
	}
	if res.Committed != want {
		t.Errorf("committed %d, want %d — recovery must not lose or duplicate instructions", res.Committed, want)
	}
	if res.DetectionLatencyMean <= 0 {
		t.Error("detection latency should be positive")
	}
	if res.PermError {
		t.Error("transient fault must not be flagged permanent")
	}
}

func TestBaselineFaultIsSilent(t *testing.T) {
	src := loopProgram(200)
	// The victim is the loop's final accumulator update (the last
	// iteration's add r2, four instructions before the end): nothing
	// overwrites it, so the corruption must reach the committed state.
	inj := &fault.AtStruct{Seq: oracleCount(t, src) - 4, Bit: 3}
	res, dig := runDigest(t, config.Starting(), src, inj)
	_, clean := runDigest(t, config.Starting(), src, nil)
	if !inj.Fired() {
		t.Fatal("fault did not fire")
	}
	if res.FaultsDetected != 0 {
		t.Errorf("baseline detected %d faults; it has no comparator", res.FaultsDetected)
	}
	if dig == clean {
		t.Error("the corrupted result should retire silently into the committed state")
	}
}

// stuckAtPC corrupts the result of every execution of one PC, modelling a
// permanent fault.
type stuckAtPC struct {
	fault.None
	pc uint32
}

func (s *stuckAtPC) Decide(seq uint64, tr emu.Trace) (fault.Injection, bool) {
	if tr.PC != s.pc {
		return fault.Injection{}, false
	}
	return fault.Injection{Bit: 4}, true
}

func TestPermanentFaultStopsMachine(t *testing.T) {
	src := loopProgram(50)
	prog := mustProg(t, src)
	// Fault the first loop-body instruction, every time it executes.
	pc := prog.Symbols["loop"]
	cpu, err := New(config.Starting().WithReese(), prog, &stuckAtPC{pc: pc})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cpu.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PermError {
		t.Error("repeated mismatch at one PC should stop the machine")
	}
	if res.Halted {
		t.Error("machine must not report a clean halt")
	}
	if res.Recoveries < 1 {
		t.Error("at least one recovery should precede the permanent stop")
	}
}

func TestMultipleTransientFaults(t *testing.T) {
	src := loopProgram(600)
	want := oracleCount(t, src)
	inj := &periodic{interval: 500, start: 100}
	res := runOn(t, config.Starting().WithReese(), src, inj)
	if !res.Halted {
		t.Fatal("did not halt")
	}
	if inj.fired < 3 {
		t.Fatalf("expected several faults, got %d", inj.fired)
	}
	if res.FaultsDetected != inj.fired {
		t.Errorf("detected %d of %d faults", res.FaultsDetected, inj.fired)
	}
	if res.Committed != want {
		t.Errorf("committed %d, want %d", res.Committed, want)
	}
}

func TestPartialReexecutionSkips(t *testing.T) {
	src := loopProgram(300)
	want := oracleCount(t, src)
	res := runOn(t, config.Starting().WithReese().WithPartialReexec(2), src, nil)
	if !res.Halted {
		t.Fatal("did not halt")
	}
	if res.Committed != want {
		t.Errorf("committed %d, want %d", res.Committed, want)
	}
	st := res.Reese
	if st.Skipped == 0 {
		t.Fatal("partial re-execution should skip instructions")
	}
	if st.Reexecuted+st.Skipped != st.Enqueued {
		t.Errorf("reexecuted %d + skipped %d != enqueued %d", st.Reexecuted, st.Skipped, st.Enqueued)
	}
	// Roughly half skipped.
	frac := float64(st.Skipped) / float64(st.Enqueued)
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("skip fraction = %.2f, want ~0.5", frac)
	}
	full := runOn(t, config.Starting().WithReese(), src, nil)
	if res.Cycles > full.Cycles {
		t.Errorf("partial re-execution (%d cycles) should not be slower than full (%d)", res.Cycles, full.Cycles)
	}
}

func TestTinyRSQBackpressure(t *testing.T) {
	src := loopProgram(500)
	small := runOn(t, config.Starting().WithReese().WithRSQ(4), src, nil)
	big := runOn(t, config.Starting().WithReese().WithRSQ(64), src, nil)
	if !small.Halted || !big.Halted {
		t.Fatal("did not halt")
	}
	if small.Cycles < big.Cycles {
		t.Errorf("RSQ=4 (%d cycles) should not beat RSQ=64 (%d)", small.Cycles, big.Cycles)
	}
	if small.Reese.FullStalls == 0 {
		t.Error("a 4-entry RSQ should hit full stalls")
	}
}

func TestInstructionLimitStopsEarly(t *testing.T) {
	prog := mustProg(t, loopProgram(100000))
	cpu, err := New(config.Starting(), prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cpu.Run(5000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted {
		t.Error("should have stopped on the limit, not halt")
	}
	if res.Committed < 5000 || res.Committed > 5000+uint64(config.Starting().Width) {
		t.Errorf("committed %d, want ≈5000", res.Committed)
	}
}

func TestDivideHeavyCodeStallsRUU(t *testing.T) {
	// Long-latency divides at the RUU head back everything up (the
	// paper's §6.1 observation).
	divs := `
		li r9, 200
		li r8, 7
	loop:
		div r1, r9, r8
		add r2, r1, r9
		addi r9, r9, -1
		bne r9, r0, loop
		halt
	`
	res := runOn(t, config.Starting(), divs, nil)
	adds := strings.Replace(divs, "div r1, r9, r8", "add r1, r9, r8", 1)
	res2 := runOn(t, config.Starting(), adds, nil)
	if res.IPC >= res2.IPC {
		t.Errorf("divide-heavy IPC %.3f should be below add IPC %.3f", res.IPC, res2.IPC)
	}
}

func TestReeseMemPortPressure(t *testing.T) {
	// A load/store-heavy loop: REESE doubles memory-port traffic, so
	// extra ports should help REESE proportionally more than baseline
	// (the paper's Figure 5 effect).
	src := `
		la r1, buf
		li r9, 800
	loop:
		lw r2, 0(r1)
		lw r3, 4(r1)
		sw r2, 8(r1)
		sw r3, 12(r1)
		lw r4, 16(r1)
		sw r4, 20(r1)
		addi r9, r9, -1
		bne r9, r0, loop
		halt
	.data
	buf:
		.space 64
	`
	base2 := runOn(t, config.Starting(), src, nil)
	base4 := runOn(t, config.Starting().WithMemPorts(4), src, nil)
	reese2 := runOn(t, config.Starting().WithReese(), src, nil)
	reese4 := runOn(t, config.Starting().WithReese().WithMemPorts(4), src, nil)
	gain := func(a, b Result) float64 { return float64(a.Cycles) / float64(b.Cycles) }
	if gain(reese2, reese4) < gain(base2, base4) {
		t.Errorf("extra ports should help REESE (%.3fx) at least as much as baseline (%.3fx)",
			gain(reese2, reese4), gain(base2, base4))
	}
}

func TestICacheColdStallsCounted(t *testing.T) {
	res := runOn(t, config.Starting(), loopProgram(50), nil)
	if res.FetchICacheStalls == 0 {
		t.Error("cold I-cache should cause at least one fetch stall")
	}
	if res.L1I.Misses == 0 {
		t.Error("cold I-cache should miss")
	}
}

func TestConfigValidationErrors(t *testing.T) {
	bad := config.Starting()
	bad.Width = 0
	if _, err := New(bad, mustProg(t, "halt"), nil); err == nil {
		t.Error("width 0 should fail")
	}
	bad2 := config.Starting().WithReese()
	bad2.Reese.RSQSize = 0
	if _, err := New(bad2, mustProg(t, "halt"), nil); err == nil {
		t.Error("rsq 0 should fail")
	}
}

func TestHaltOnlyProgram(t *testing.T) {
	res := runOn(t, config.Starting(), "halt", nil)
	if !res.Halted || res.Committed != 1 {
		t.Errorf("halt-only: halted=%v committed=%d", res.Halted, res.Committed)
	}
	res = runOn(t, config.Starting().WithReese(), "halt", nil)
	if !res.Halted || res.Committed != 1 {
		t.Errorf("REESE halt-only: halted=%v committed=%d", res.Halted, res.Committed)
	}
}

func TestWiderMachineNotSlower(t *testing.T) {
	src := loopProgram(800)
	w8 := runOn(t, config.Starting(), src, nil)
	w16 := runOn(t, config.Starting().WithWidth(16).WithRUU(32), src, nil)
	if w16.Cycles > w8.Cycles+w8.Cycles/10 {
		t.Errorf("16-wide (%d cycles) should not be materially slower than 8-wide (%d)", w16.Cycles, w8.Cycles)
	}
}

func TestCallReturnPrediction(t *testing.T) {
	src := `
	main:
		li r9, 300
	loop:
		jal fn
		addi r9, r9, -1
		bne r9, r0, loop
		halt
	fn:
		add r1, r9, r9
		ret
	`
	res := runOn(t, config.Starting(), src, nil)
	if !res.Halted {
		t.Fatal("did not halt")
	}
	// The RAS should make returns nearly perfectly predicted.
	if res.BranchAcc < 0.9 {
		t.Errorf("call/return accuracy %.3f too low; RAS broken?", res.BranchAcc)
	}
}
