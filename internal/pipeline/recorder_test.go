package pipeline

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"reese/internal/config"
	"reese/internal/fault"
	"reese/internal/obs"
)

// Regenerate with:
//
//	go test ./internal/pipeline/ -run TestFlightRecorderGolden -update-flight-golden
//
// after any intentional change to the recorder's Chrome-trace export or
// to pipeline timing. Review the diff in Perfetto before committing.
var updateFlightGolden = flag.Bool("update-flight-golden", false, "rewrite testdata/flight.golden.json")

// TestFlightRecorderGolden runs a tiny deterministic program on a REESE
// machine with one injected fault, dumps the flight recorder as Chrome
// trace-event JSON, and compares it byte-for-byte against the golden
// file. This locks both the export format (Perfetto-loadable) and the
// recorded lifecycle (a detection event is inspectable cycle by cycle).
func TestFlightRecorderGolden(t *testing.T) {
	cpu, err := New(config.Starting().WithReese(), mustProg(t, loopProgram(2)), &fault.AtStruct{Seq: 6, Bit: 4})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(4096)
	cpu.SetRecorder(rec)
	if cpu.Recorder() != rec {
		t.Fatal("Recorder() getter broken")
	}
	res, err := cpu.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || res.FaultsDetected == 0 {
		t.Fatalf("run outcome unexpected: halted=%v detected=%d", res.Halted, res.FaultsDetected)
	}

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("export is not valid JSON")
	}
	// Structural sanity independent of the golden bytes: the documented
	// envelope and the detection events must be present.
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	hasMismatch, hasRecovery := false, false
	for _, e := range doc.TraceEvents {
		if e.Ph != "i" {
			continue
		}
		switch {
		case len(e.Name) >= 8 && e.Name[:8] == "MISMATCH":
			hasMismatch = true
		case len(e.Name) >= 8 && e.Name[:8] == "RECOVERY":
			hasRecovery = true
		}
	}
	if !hasMismatch || !hasRecovery {
		t.Errorf("detection not inspectable: mismatch=%v recovery=%v", hasMismatch, hasRecovery)
	}

	golden := filepath.Join("testdata", "flight.golden.json")
	if *updateFlightGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-flight-golden)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("flight-recorder export drifted from golden (len %d vs %d); if intentional, regenerate with -update-flight-golden and review in Perfetto", buf.Len(), len(want))
	}
}

// TestFlightRecorderOverheadGate checks the off-by-default contract:
// running without SetRecorder must leave no recorder in place, and two
// identical runs (recorder armed vs not) must produce identical timing
// — recording observes the machine, never perturbs it.
func TestFlightRecorderObservesWithoutPerturbing(t *testing.T) {
	src := loopProgram(50)
	plain := runOn(t, config.Starting().WithReese(), src, nil)

	cpu, err := New(config.Starting().WithReese(), mustProg(t, src), nil)
	if err != nil {
		t.Fatal(err)
	}
	cpu.SetRecorder(obs.NewRecorder(256))
	recorded, err := cpu.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cycles != recorded.Cycles || plain.Committed != recorded.Committed || plain.IPC != recorded.IPC {
		t.Fatalf("recorder perturbed timing: %d/%d cycles, %d/%d committed",
			plain.Cycles, recorded.Cycles, plain.Committed, recorded.Committed)
	}
	if cpu.Recorder().Len() == 0 {
		t.Fatal("recorder captured nothing")
	}
	if cpu.Recorder().Dropped() == 0 {
		t.Fatal("256-entry ring over a 50-iteration loop should have wrapped")
	}
}
