package pipeline

// Cycle-precise microtests: small kernels whose timing can be reasoned
// about by hand pin the timing model down far more tightly than
// whole-benchmark IPC comparisons.

import (
	"testing"

	"reese/internal/config"
	"reese/internal/emu"
	"reese/internal/fault"
	"reese/internal/isa"
)

// microConfig removes cold-start noise: big caches stay, but the tests
// below reason about steady-state loop timing, so they measure long
// loops and divide.
func cyclesPerIteration(t *testing.T, src string, iters int) float64 {
	t.Helper()
	res := runOn(t, config.Starting(), src, nil)
	if !res.Halted {
		t.Fatal("did not halt")
	}
	return float64(res.Cycles) / float64(iters)
}

// TestSerialAddChainRate: a loop-carried chain of dependent adds must
// execute at very close to 1 instruction per cycle — the forwarding
// path's fundamental rate.
func TestSerialAddChainRate(t *testing.T) {
	const iters = 2000
	src := `
		li r9, ` + itoa(iters) + `
		li r1, 0
	loop:
		add r1, r1, r9
		add r1, r1, r9
		add r1, r1, r9
		add r1, r1, r9
		add r1, r1, r9
		add r1, r1, r9
		add r1, r1, r9
		add r1, r1, r9
		addi r9, r9, -1
		bne r9, r0, loop
		halt
	`
	// 8 chained adds per iteration; the addi/bne overlap with the
	// chain. Expect ~8 cycles per iteration, allow up to 10.
	cpi := cyclesPerIteration(t, src, iters)
	if cpi < 7.5 || cpi > 10 {
		t.Errorf("serial chain: %.2f cycles/iteration, want ~8", cpi)
	}
}

// TestDivideLatencyVisible: a loop carried through a divide must run at
// roughly the divide latency per iteration (20 cycles), far slower than
// the same loop with add.
func TestDivideLatencyVisible(t *testing.T) {
	const iters = 500
	div := `
		li r9, ` + itoa(iters) + `
		li r1, 1000000
		li r2, 1
	loop:
		div r1, r1, r2
		addi r9, r9, -1
		bne r9, r0, loop
		halt
	`
	cpi := cyclesPerIteration(t, div, iters)
	if cpi < 18 || cpi > 24 {
		t.Errorf("divide chain: %.2f cycles/iteration, want ~20 (divide latency)", cpi)
	}
}

// TestMultiplyLatencyVisible: same with multiply (3 cycles).
func TestMultiplyLatencyVisible(t *testing.T) {
	const iters = 1000
	mul := `
		li r9, ` + itoa(iters) + `
		li r1, 1
		li r2, 1
	loop:
		mul r1, r1, r2
		addi r9, r9, -1
		bne r9, r0, loop
		halt
	`
	cpi := cyclesPerIteration(t, mul, iters)
	if cpi < 2.5 || cpi > 4.5 {
		t.Errorf("multiply chain: %.2f cycles/iteration, want ~3", cpi)
	}
}

// TestLoadUseLatency: a pointer-chase loop is bound by the L1 hit
// latency (2 cycles) plus address arithmetic.
func TestLoadUseLatency(t *testing.T) {
	const iters = 1000
	src := `
		li r9, ` + itoa(iters) + `
		la r1, cell
	loop:
		lw r1, 0(r1)       ; cell points to itself: serial load chain
		addi r9, r9, -1
		bne r9, r0, loop
		halt
	.data
	cell:
		.word cell
	`
	cpi := cyclesPerIteration(t, src, iters)
	// Each iteration's load depends on the previous load: >= 2 cycles.
	if cpi < 2 || cpi > 4 {
		t.Errorf("load chain: %.2f cycles/iteration, want ~2-3 (L1 hit latency)", cpi)
	}
}

// TestALUThroughputBound: with 4 ALUs and plenty of independent work,
// sustained IPC must approach but never exceed the ALU count + branch
// overhead headroom.
func TestALUThroughputBound(t *testing.T) {
	const iters = 2000
	src := `
		li r9, ` + itoa(iters) + `
	loop:
		add r1, r9, r9
		add r2, r9, r9
		add r3, r9, r9
		add r4, r9, r9
		add r5, r9, r9
		add r6, r9, r9
		xor r7, r9, r9
		or r8, r9, r9
		addi r9, r9, -1
		bne r9, r0, loop
		halt
	`
	res := runOn(t, config.Starting(), src, nil)
	// 10 instructions per iteration, all needing an ALU, 4 ALUs:
	// >= 2.5 cycles per iteration, so IPC <= 4.
	if res.IPC > 4.01 {
		t.Errorf("IPC %.3f exceeds the 4-ALU bound", res.IPC)
	}
	if res.IPC < 3.0 {
		t.Errorf("IPC %.3f too low; expected near the ALU bound for pure independent work", res.IPC)
	}
}

// TestMemPortThroughputBound: 2 memory ports cap a load-only stream at
// 2 loads per cycle.
func TestMemPortThroughputBound(t *testing.T) {
	const iters = 2000
	src := `
		li r9, ` + itoa(iters) + `
		la r1, buf
	loop:
		lw r2, 0(r1)
		lw r3, 4(r1)
		lw r4, 8(r1)
		lw r5, 12(r1)
		addi r9, r9, -1
		bne r9, r0, loop
		halt
	.data
	buf:
		.word 1, 2, 3, 4
	`
	res := runOn(t, config.Starting(), src, nil)
	// 4 loads per iteration over 2 ports: >= 2 cycles per iteration.
	// 6 instructions / >=2 cycles: IPC <= 3.
	if res.IPC > 3.01 {
		t.Errorf("IPC %.3f exceeds the 2-port bound", res.IPC)
	}
	res4 := runOn(t, config.Starting().WithMemPorts(4), src, nil)
	if res4.IPC <= res.IPC {
		t.Errorf("4 ports (%.3f) should beat 2 ports (%.3f) on a load stream", res4.IPC, res.IPC)
	}
}

// TestMispredictPenaltyMagnitude: an always-mispredicted branch pattern
// costs roughly the pipeline depth per occurrence.
func TestMispredictPenaltyMagnitude(t *testing.T) {
	res := runOn(t, config.Starting(), `
		li r9, 2000
		li r8, 0
	loop:
		; alternate taken/not-taken based on an LCG bit (hard pattern
		; for a 12-bit gshare only when the period is long; an LCG's
		; low bits alternate, so use a higher bit)
		li r7, 1103515245
		mul r8, r8, r7
		addi r8, r8, 12345
		srli r6, r8, 13
		andi r6, r6, 1
		beq r6, r0, skip
		addi r5, r5, 1
	skip:
		addi r9, r9, -1
		bne r9, r0, loop
		halt
	`, nil)
	if res.Mispredicts == 0 {
		t.Skip("predictor learned the LCG; cannot measure penalty")
	}
	perMiss := float64(res.FetchBranchStalls) / float64(res.Mispredicts)
	// Resolution takes a handful of cycles (issue wait + execute +
	// redirect); expect a mean stall of 2-20 cycles per miss.
	if perMiss < 2 || perMiss > 20 {
		t.Errorf("branch stall per mispredict = %.1f cycles, implausible", perMiss)
	}
}

// TestFastForward: skipping instructions functionally must advance
// architectural state without charging cycles.
func TestFastForward(t *testing.T) {
	src := loopProgram(5000)
	total := oracleCount(t, src)

	cpu, err := New(config.Starting(), mustProg(t, src), nil)
	if err != nil {
		t.Fatal(err)
	}
	skipped, err := cpu.FastForward(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 10_000 {
		t.Fatalf("skipped %d", skipped)
	}
	res, err := cpu.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("did not halt")
	}
	if res.FastForwarded != 10_000 {
		t.Errorf("FastForwarded = %d", res.FastForwarded)
	}
	if res.Committed+res.FastForwarded != total {
		t.Errorf("committed %d + skipped %d != oracle total %d", res.Committed, res.FastForwarded, total)
	}
}

func TestFastForwardPastHalt(t *testing.T) {
	cpu, err := New(config.Starting(), mustProg(t, loopProgram(10)), nil)
	if err != nil {
		t.Fatal(err)
	}
	total := oracleCount(t, loopProgram(10))
	skipped, err := cpu.FastForward(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != total {
		t.Errorf("skipped %d, want %d (whole program)", skipped, total)
	}
	res, err := cpu.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 0 || res.Cycles != 0 {
		t.Errorf("nothing left to time: committed=%d cycles=%d", res.Committed, res.Cycles)
	}
}

func TestFastForwardAfterStartFails(t *testing.T) {
	cpu, err := New(config.Starting(), mustProg(t, loopProgram(100)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cpu.Run(10); err != nil {
		t.Fatal(err)
	}
	if _, err := cpu.FastForward(10); err == nil {
		t.Error("FastForward after Run should fail")
	}
}

// TestPipelineMatchesEmulatorOutput is the checker-mode integration
// test: the timed machine's architectural effects (program output and
// instruction count) must match an independent functional run, with
// and without REESE, and even under injected-and-recovered faults.
func TestPipelineMatchesEmulatorOutput(t *testing.T) {
	// The independent multiplies compete with their R-stream copies for
	// the multiplier, so the R-stream Queue fills (20 of 20 entries) on
	// the odd-size machine below; the stores put every iteration's
	// products into the commit digest's store hash.
	src := `
		li r9, 300
		li r8, 1
		la r10, buf
	loop:
		mul r8, r8, r9
		mul r1, r9, r9
		mul r2, r9, r9
		mul r3, r9, r9
		mul r4, r9, r9
		sw r1, 0(r10)
		sw r4, 4(r10)
		andi r8, r8, 0xff
		out r8
		addi r9, r9, -1
		bne r9, r0, loop
		halt
	.data
	buf:
		.space 8
	`
	ref, err := emu.New(mustProg(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(0); err != nil {
		t.Fatal(err)
	}

	// RUU 24 / LSQ 12 / RSQ 20: no capacity is a power of two, so every
	// ring rounds its slot array up and Full must follow the logical size.
	odd := config.Starting().WithRUU(24).WithRSQ(20)
	for _, tt := range []struct {
		name string
		cfg  config.Machine
		inj  fault.Injector
	}{
		{"baseline", config.Starting(), nil},
		{"reese", config.Starting().WithReese(), nil},
		{"reese+faults", config.Starting().WithReese(), &periodic{interval: 200, start: 100}},
		{"odd/baseline", odd, nil},
		{"odd/reese", odd.WithReese(), nil},
		{"odd/reese+faults", odd.WithReese(), &periodic{interval: 200, start: 100}},
		{"odd/dup", odd.WithDupDispatch(), nil},
	} {
		t.Run(tt.name, func(t *testing.T) {
			cpu, err := New(tt.cfg, mustProg(t, src), tt.inj)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cpu.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Halted {
				t.Fatal("did not halt")
			}
			if res.Committed != ref.InstCount() {
				t.Errorf("committed %d, emulator %d", res.Committed, ref.InstCount())
			}
			if string(cpu.Output()) != string(ref.Output()) {
				t.Errorf("output mismatch: pipeline %d bytes vs emulator %d bytes",
					len(cpu.Output()), len(ref.Output()))
			}
			if got, want := cpu.CommitDigest(), ref.Digest(); got != want {
				t.Errorf("commit digest diverges from emulator\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestReeseEndToEndLatencyAccounting: every verified instruction's
// DoneAt must fall between its enqueue and the current cycle — checked
// implicitly by a run with a tiny RSQ that forces heavy recycling.
func TestTinyMachineStillCorrect(t *testing.T) {
	tiny := config.Starting()
	tiny.RUUSize = 4
	tiny.LSQSize = 2
	tiny.FetchQueueSize = 2
	tiny.Width = 1
	tiny.IssueWidth = 1
	tiny = tiny.WithReese().WithRSQ(4)
	src := loopProgram(100)
	want := oracleCount(t, src)
	res := runOn(t, tiny, src, nil)
	if !res.Halted || res.Committed != want {
		t.Errorf("tiny machine: halted=%v committed=%d want=%d", res.Halted, res.Committed, want)
	}
	if res.IPC > 1.0 {
		t.Errorf("single-issue machine cannot exceed 1 IPC (got %.3f)", res.IPC)
	}
}

// TestHaltDoesNotOvercount: the instruction budget must stop the run
// within one dispatch group of the limit.
func TestOpClassCoverageInPipeline(t *testing.T) {
	// Exercise every opcode class through the timed pipeline at least
	// once, ensuring no class panics or deadlocks under REESE.
	src := `
		li r1, 10
		li r2, 3
		add r3, r1, r2
		sub r3, r1, r2
		mul r3, r1, r2
		mulh r3, r1, r2
		div r3, r1, r2
		divu r3, r1, r2
		rem r3, r1, r2
		remu r3, r1, r2
		and r3, r1, r2
		or r3, r1, r2
		xor r3, r1, r2
		nor r3, r1, r2
		sll r3, r1, r2
		srl r3, r1, r2
		sra r3, r1, r2
		slt r3, r1, r2
		sltu r3, r1, r2
		addi r3, r1, 5
		andi r3, r1, 5
		ori r3, r1, 5
		xori r3, r1, 5
		slti r3, r1, 5
		sltiu r3, r1, 5
		slli r3, r1, 2
		srli r3, r1, 2
		srai r3, r1, 2
		lui r3, 77
		la r4, w
		lw r3, 0(r4)
		lh r3, 0(r4)
		lhu r3, 0(r4)
		lb r3, 0(r4)
		lbu r3, 0(r4)
		sw r1, 4(r4)
		sh r1, 8(r4)
		sb r1, 10(r4)
		beq r1, r1, l1
		nop
	l1:
		bne r1, r2, l2
		nop
	l2:
		blt r2, r1, l3
		nop
	l3:
		bge r1, r2, l4
		nop
	l4:
		bltu r2, r1, l5
		nop
	l5:
		bgeu r1, r2, l6
		nop
	l6:
		j l7
		nop
	l7:
		jal l8
	l8:
		la r5, l9x
		jalr r6, r5
	l9x:
		out r1
		halt
	.data
	w:
		.word 0x8000ffff
		.space 12
	`
	for _, cfg := range []config.Machine{config.Starting(), config.Starting().WithReese()} {
		res := runOn(t, cfg, src, nil)
		if !res.Halted {
			t.Fatalf("%s: did not halt", cfg.Name)
		}
		if res.Reese != nil && res.Reese.Mismatches != 0 {
			t.Errorf("%s: clean run mismatched %d times", cfg.Name, res.Reese.Mismatches)
		}
	}
}

var _ = isa.OpAdd // keep isa imported for documentation references

func TestRSQOccupancyStats(t *testing.T) {
	res := runOn(t, config.Starting().WithReese(), loopProgram(1000), nil)
	if res.RSQOccupancyMean <= 0 {
		t.Error("mean RSQ occupancy should be positive")
	}
	if res.RSQOccupancyMax == 0 || res.RSQOccupancyMax > 32 {
		t.Errorf("max RSQ occupancy = %d", res.RSQOccupancyMax)
	}
	if float64(res.RSQOccupancyMax) < res.RSQOccupancyMean {
		t.Error("max below mean")
	}
	base := runOn(t, config.Starting(), loopProgram(100), nil)
	if base.RSQOccupancyMax != 0 || base.RSQOccupancyMean != 0 {
		t.Error("baseline has no RSQ")
	}
}

func TestCommittedInstructionMix(t *testing.T) {
	src := `
		li r9, 500
		la r8, buf
	loop:
		lw r1, 0(r8)
		sw r1, 4(r8)
		mul r2, r9, r9
		add r3, r9, r9
		addi r9, r9, -1
		bne r9, r0, loop
		halt
	.data
	buf:
		.word 7
		.space 4
	`
	res := runOn(t, config.Starting(), src, nil)
	m := res.Mix
	total := m.IntALU + m.IntMult + m.Load + m.Store + m.Control + m.FP
	if total < 0.99 || total > 1.01 {
		t.Errorf("mix fractions sum to %.3f", total)
	}
	// 7 instructions per iteration: 1 load, 1 store, 1 mul, 3 alu-ish
	// (add+addi within loop... add, addi), 1 branch.
	if m.Load < 0.10 || m.Load > 0.18 {
		t.Errorf("load fraction %.3f, want ~1/7", m.Load)
	}
	if m.Store < 0.10 || m.Store > 0.18 {
		t.Errorf("store fraction %.3f, want ~1/7", m.Store)
	}
	if m.IntMult < 0.10 || m.IntMult > 0.18 {
		t.Errorf("mult fraction %.3f, want ~1/7", m.IntMult)
	}
	if m.Control < 0.10 || m.Control > 0.18 {
		t.Errorf("control fraction %.3f, want ~1/7", m.Control)
	}
	if m.FP != 0 {
		t.Error("no FP in this program")
	}
}

// TestSimulationDeterminism: two identical simulations produce
// bit-identical results — the property every experiment in this repo
// rests on.
func TestSimulationDeterminism(t *testing.T) {
	run := func() Result {
		cpu, err := New(config.Starting().WithReese(), mustProg(t, loopProgram(500)), &periodic{interval: 700, start: 100})
		if err != nil {
			t.Fatal(err)
		}
		res, err := cpu.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Committed != b.Committed || a.Mispredicts != b.Mispredicts ||
		a.FaultsDetected != b.FaultsDetected || a.Recoveries != b.Recoveries {
		t.Errorf("nondeterminism: %+v vs %+v", a, b)
	}
}
