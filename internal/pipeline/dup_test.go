package pipeline

import (
	"testing"

	"reese/internal/config"
	"reese/internal/fault"
)

func TestDupDispatchCorrectness(t *testing.T) {
	src := loopProgram(500)
	want := oracleCount(t, src)
	res := runOn(t, config.Starting().WithDupDispatch(), src, nil)
	if !res.Halted {
		t.Fatal("did not halt")
	}
	if res.Committed != want {
		t.Errorf("committed %d, want %d", res.Committed, want)
	}
}

func TestDupDispatchDetectsFaults(t *testing.T) {
	src := loopProgram(300)
	want := oracleCount(t, src)
	inj := &fault.AtStruct{Seq: 200, Bit: 9}
	res := runOn(t, config.Starting().WithDupDispatch(), src, inj)
	if !inj.Fired() {
		t.Fatal("fault did not fire")
	}
	if res.FaultsDetected != 1 {
		t.Errorf("detected %d, want 1", res.FaultsDetected)
	}
	if res.Committed != want {
		t.Errorf("committed %d, want %d after recovery", res.Committed, want)
	}
	if res.DetectionLatencyMean <= 0 {
		t.Error("detection latency should be positive")
	}
}

// TestDupDispatchSlowerThanReese quantifies the paper's §4.4 argument:
// a dependency-inheriting duplicate stream (Franklin [24], the cited
// comparison) holds its window slots for the original's full latency
// and schedules no better, while REESE's R-stream copies carry their
// operands and vacate quickly. On real window-bound workloads REESE
// must beat duplicate-at-dispatch.
func TestDupDispatchSlowerThanReese(t *testing.T) {
	var reeseC, dupC uint64
	for _, name := range []string{"gcc", "li"} {
		r, err := runWorkloadImpl(config.Starting().WithReese(), name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := runWorkloadImpl(config.Starting().WithDupDispatch(), name)
		if err != nil {
			t.Fatal(err)
		}
		reeseC += r.Cycles
		dupC += d.Cycles
	}
	if reeseC >= dupC {
		t.Errorf("REESE (%d cycles) should beat duplicate-at-dispatch (%d): the R stream has no dependencies",
			reeseC, dupC)
	}
}

func TestDupDispatchOnWorkloads(t *testing.T) {
	for _, name := range []string{"gcc", "vortex"} {
		name := name
		t.Run(name, func(t *testing.T) {
			res, err := runWorkloadImpl(config.Starting().WithDupDispatch(), name)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Halted {
				t.Fatal("did not halt")
			}
			base, err := runWorkloadImpl(config.Starting(), name)
			if err != nil {
				t.Fatal(err)
			}
			if res.Committed != base.Committed {
				t.Errorf("committed %d vs baseline %d", res.Committed, base.Committed)
			}
			if res.Cycles <= base.Cycles {
				t.Errorf("dup-dispatch should be slower than baseline")
			}
		})
	}
}

func TestDupDispatchWithWrongPath(t *testing.T) {
	want := oracleCount(t, erraticBranches)
	res := runOn(t, config.Starting().WithDupDispatch().WithWrongPath(), erraticBranches, nil)
	if !res.Halted || res.Committed != want {
		t.Errorf("halted=%v committed=%d want=%d", res.Halted, res.Committed, want)
	}
}

// TestDupDispatchCommonModeBlindSpot documents pure duplication's
// weakness: a fault that corrupts both copies identically (a permanent
// fault hitting the same computation twice) passes the pair comparator
// and retires silently. REESE's comparator recomputes from the carried
// operands, so the same fault is detected and escalated (§4.3).
func TestDupDispatchCommonModeBlindSpot(t *testing.T) {
	src := loopProgram(50)
	prog := mustProg(t, src)
	pc := prog.Symbols["loop"]
	cpu, err := New(config.Starting().WithDupDispatch(), prog, &stuckAtPC{pc: pc})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cpu.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PermError {
		t.Error("identically-corrupted pairs cannot be distinguished; no permanent-error stop expected")
	}
	if res.FaultsDetected != 0 {
		t.Errorf("identical pairs compared unequal %d times", res.FaultsDetected)
	}
	if _, clean := runDigest(t, config.Starting().WithDupDispatch(), src, nil); cpu.CommitDigest() == clean {
		t.Error("common-mode corruption should retire silently into the committed state")
	}

	// The same fault on the REESE machine is detected every time and
	// escalates to a permanent-error stop.
	prog2 := mustProg(t, src)
	cpu2, err := New(config.Starting().WithReese(), prog2, &stuckAtPC{pc: pc})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := cpu2.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.PermError {
		t.Error("REESE should detect the recurring fault and stop")
	}
}
