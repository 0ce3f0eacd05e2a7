package pipeline

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"reese/internal/config"
	"reese/internal/emu"
	"reese/internal/fault"
	"reese/internal/fu"
	"reese/internal/workload"
)

// Regenerate with:
//
//	go test ./internal/pipeline/ -run TestSchemesGolden -update-schemes-golden
//
// only after an intentional change to pipeline timing or to a
// redundancy scheme's behavior; a refactor must leave the file alone.
var updateSchemesGolden = flag.Bool("update-schemes-golden", false, "rewrite testdata/schemes.golden.json")

// schemeRun is one pinned simulation: the full Result plus the
// committed and oracle digests.
type schemeRun struct {
	Name   string
	Result Result
	Commit emu.Digest
	Oracle emu.Digest
}

// TestSchemesGolden pins every redundancy scheme cycle-exactly: the
// baseline, REESE (plain, RESO under a stuck ALU, partial re-execution,
// a small RSQ, wrong-path fetch) and dup-dispatch (with and without
// wrong-path fetch), each on gcc and li, fault-free and under single
// structure-addressed faults — RSQ machines also take faults in the RSQ
// operands and the comparator — plus a fetch-PC wedge that ends in the
// hang fast-forward. Any change to a scheme's cycle count, stall
// ledger, statistics or committed state shows up as a byte diff.
func TestSchemesGolden(t *testing.T) {
	const insts = 12_000
	stuck := fault.StuckUnit{Kind: uint8(fu.IntALU), Unit: 0, Bit: 5}
	schemes := []struct {
		name  string
		cfg   config.Machine
		stuck bool
	}{
		{"baseline", config.Starting(), false},
		{"reese", config.Starting().WithReese(), false},
		{"reese-reso-stuck", config.Starting().WithReese().WithRESO(), true},
		{"reese-partial4", config.Starting().WithReese().WithPartialReexec(4), false},
		{"reese-rsq8", config.Starting().WithReese().WithRSQ(8), false},
		{"reese-wrongpath", config.Starting().WithReese().WithWrongPath(), false},
		{"dup", config.Starting().WithDupDispatch(), false},
		{"dup-wrongpath", config.Starting().WithDupDispatch().WithWrongPath(), false},
	}
	type trial struct {
		label string
		inj   func() *fault.AtStruct
		hang  bool
	}
	trials := []trial{
		{"clean", nil, false},
		{"result", func() *fault.AtStruct { return &fault.AtStruct{Struct: fault.StructResult, Seq: 3_000, Bit: 7} }, false},
		{"fetch-pc-hang", func() *fault.AtStruct {
			return &fault.AtStruct{Struct: fault.StructFetchPC, Seq: 2_000, Bit: 30}
		}, true},
	}
	rsqTrials := []trial{
		{"rsq-operand", func() *fault.AtStruct {
			return &fault.AtStruct{Struct: fault.StructRSQOperand, Seq: 3_000, Bit: 11}
		}, false},
		{"comparator", func() *fault.AtStruct {
			return &fault.AtStruct{Struct: fault.StructComparator, Seq: 3_000, Bit: 2}
		}, false},
	}

	var runs []schemeRun
	for _, wl := range []string{"gcc", "li"} {
		spec, ok := workload.ByName(wl)
		if !ok {
			t.Fatalf("unknown workload %q", wl)
		}
		prog, err := spec.Build(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range schemes {
			ts := trials
			if s.cfg.HasRSQ() {
				ts = append(append([]trial(nil), trials...), rsqTrials...)
			}
			for _, tr := range ts {
				var inj fault.Injector
				if tr.inj != nil {
					inj = tr.inj()
				}
				cpu, err := New(s.cfg, prog, inj)
				if err != nil {
					t.Fatal(err)
				}
				if s.stuck {
					cpu.SetStuckUnit(stuck)
				}
				if tr.hang {
					cpu.SetHangLimit(20_000)
					cpu.SetHangFastForward(true)
				}
				res, err := cpu.Run(insts)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", wl, s.name, tr.label, err)
				}
				runs = append(runs, schemeRun{
					Name:   wl + "/" + s.name + "/" + tr.label,
					Result: res,
					Commit: cpu.CommitDigest(),
					Oracle: cpu.OracleDigest(),
				})
			}
		}
	}
	got, err := json.MarshalIndent(runs, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "schemes.golden.json")
	if *updateSchemesGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d runs, %d bytes)", golden, len(runs), len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-schemes-golden)", err)
	}
	if !bytes.Equal(got, want) {
		var w []schemeRun
		if err := json.Unmarshal(want, &w); err == nil && len(w) == len(runs) {
			for i := range runs {
				a, _ := json.Marshal(runs[i])
				b, _ := json.Marshal(w[i])
				if !bytes.Equal(a, b) {
					t.Errorf("%s drifted from golden:\n got %s\nwant %s", runs[i].Name, a, b)
				}
			}
		}
		t.Fatalf("scheme results drifted from %s", golden)
	}
}
