package pipeline

import (
	"testing"

	"reese/internal/config"
	"reese/internal/fault"
	"reese/internal/fu"
	"reese/internal/workload"
)

// fpLoop is a small FP kernel: a multiply-add recurrence plus FP memory
// traffic, rescaled to stay finite.
func fpLoop(iters int) string {
	return `
		li r9, ` + itoa(iters) + `
		li r1, 2
		fcvtsw f1, r1        ; 2.0
		li r1, 1
		fcvtsw f2, r1        ; acc = 1.0
		la r8, buf
	loop:
		fmul f3, f2, f1
		fadd f2, f3, f2
		swf f2, 0(r8)
		lwf f4, 0(r8)
		fdiv f2, f2, f1      ; keep the accumulator bounded
		fdiv f2, f2, f1
		addi r9, r9, -1
		bne r9, r0, loop
		fcvtws r2, f2
		out r2
		halt
	.data
	buf:
		.space 8
	`
}

func TestFPThroughBaselinePipeline(t *testing.T) {
	src := fpLoop(500)
	want := oracleCount(t, src)
	res := runOn(t, config.Starting(), src, nil)
	if !res.Halted || res.Committed != want {
		t.Fatalf("halted=%v committed=%d want=%d", res.Halted, res.Committed, want)
	}
}

func TestFPThroughReesePipeline(t *testing.T) {
	src := fpLoop(500)
	want := oracleCount(t, src)
	res := runOn(t, config.Starting().WithReese(), src, nil)
	if !res.Halted || res.Committed != want {
		t.Fatalf("halted=%v committed=%d want=%d", res.Halted, res.Committed, want)
	}
	if res.Reese.Mismatches != 0 {
		t.Errorf("clean FP run mismatched %d times — FP comparator broken", res.Reese.Mismatches)
	}
	if res.Reese.Verified != want {
		t.Errorf("verified %d of %d FP-program instructions", res.Reese.Verified, want)
	}
}

func TestFPFaultDetected(t *testing.T) {
	src := fpLoop(300)
	want := oracleCount(t, src)
	inj := &fault.AtStruct{Seq: 500, Bit: 22} // a mantissa bit
	res := runOn(t, config.Starting().WithReese(), src, inj)
	if !inj.Fired() || res.FaultsDetected != 1 {
		t.Errorf("FP fault: fired=%v detected=%d", inj.Fired(), res.FaultsDetected)
	}
	if res.Committed != want {
		t.Errorf("committed %d, want %d after recovery", res.Committed, want)
	}
}

func TestFPDivNonPipelined(t *testing.T) {
	// Back-to-back dependent FP divides run at the divide latency.
	src := `
		li r9, 300
		li r1, 1
		fcvtsw f1, r1
		li r1, 2
		fcvtsw f2, r1
	loop:
		fdiv f1, f1, f2
		fmul f1, f1, f2      ; undo, keeping the value at 1.0
		addi r9, r9, -1
		bne r9, r0, loop
		halt
	`
	res := runOn(t, config.Starting(), src, nil)
	cpi := float64(res.Cycles) / 300
	// fdiv 12 + fmul 4 dependent: ~16 cycles per iteration.
	if cpi < 13 || cpi > 20 {
		t.Errorf("FP divide chain: %.1f cycles/iteration, want ~16", cpi)
	}
}

func TestFPUnitsSeparateFromInteger(t *testing.T) {
	// An FP-heavy loop and integer work overlap: the FP units are a
	// separate resource, so mixing both should beat running the FP part
	// on a machine where integer work also competes... verify simply
	// that FP work does not consume integer ALUs: integer-only IPC of a
	// mixed loop stays high.
	src := `
		li r9, 1000
		li r1, 3
		fcvtsw f1, r1
	loop:
		fmul f2, f1, f1
		fadd f3, f2, f1
		add r2, r9, r9
		add r3, r9, r9
		add r4, r9, r9
		add r5, r9, r9
		addi r9, r9, -1
		bne r9, r0, loop
		halt
	`
	res := runOn(t, config.Starting(), src, nil)
	// The control: the same loop with the FP pair replaced by integer
	// multiplies, which must share the single integer multiplier and
	// the ALUs. If FP ops ran on integer resources the two loops would
	// perform alike; with separate FP units the FP version wins.
	intSrc := `
		li r9, 1000
		li r1, 3
	loop:
		mul r6, r1, r1
		mul r7, r6, r1
		add r2, r9, r9
		add r3, r9, r9
		add r4, r9, r9
		add r5, r9, r9
		addi r9, r9, -1
		bne r9, r0, loop
		halt
	`
	intRes := runOn(t, config.Starting(), intSrc, nil)
	if res.IPC <= intRes.IPC {
		t.Errorf("mixed FP/int IPC %.3f should beat int-mult version %.3f (separate FP units)", res.IPC, intRes.IPC)
	}
}

func TestMachineWithoutFPUnitsRejectsFPProgramGracefully(t *testing.T) {
	cfg := config.Starting()
	cfg.FU = fu.Config{IntALU: 4, IntMult: 1, MemPort: 2} // no FP units
	cpu, err := New(cfg, mustProg(t, fpLoop(10)), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The FP instructions can never issue, so nothing commits past the
	// integer prologue; the no-commit watchdog must terminate the run
	// and flag it as hanged instead of spinning to the cycle cap.
	res, err := cpu.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hanged {
		t.Error("running FP code with no FP units should trip the no-commit watchdog (Result.Hanged)")
	}
}

func TestFpmixWorkloadOnBothMachines(t *testing.T) {
	spec, ok := workload.ByName("fpmix")
	if !ok {
		t.Fatal("fpmix not registered")
	}
	for _, cfg := range []config.Machine{config.Starting(), config.Starting().WithReese()} {
		prog := spec.MustBuild(20)
		cpu, err := New(cfg, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cpu.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Halted {
			t.Fatalf("%s: fpmix did not halt", cfg.Name)
		}
		if res.Reese != nil && res.Reese.Mismatches != 0 {
			t.Errorf("%s: fpmix mismatches %d", cfg.Name, res.Reese.Mismatches)
		}
	}
}
