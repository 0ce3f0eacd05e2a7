package pipeline

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"reese/internal/config"
	"reese/internal/emu"
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
	cpu.Instrument(Instruments{Recorder: rec})
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

// TestFlightRecorderObservesWithoutPerturbing checks the observer
// contract on every machine organisation, with one fault injected so
// the fault, mismatch and recovery sites fire too: a run with all five
// instruments armed must give the same Result and committed state as a
// bare run — instruments observe the machine, never perturb it.
func TestFlightRecorderObservesWithoutPerturbing(t *testing.T) {
	src := loopProgram(50)
	inj := func() fault.Injector { return &fault.AtStruct{Seq: 40, Bit: 5} }
	for _, tt := range organisations {
		t.Run(tt.name, func(t *testing.T) {
			plain, plainDig := runDigest(t, tt.cfg, src, inj())

			cpu, err := New(tt.cfg, mustProg(t, src), inj())
			if err != nil {
				t.Fatal(err)
			}
			rec := obs.NewRecorder(256)
			var progress atomic.Uint64
			var watched uint64
			cpu.Instrument(Instruments{
				Trace:          io.Discard,
				Recorder:       rec,
				RecorderWindow: 64,
				CommitWatch:    func(*CPU, uint64, uint64, emu.Trace, uint32, uint32, uint32) { watched++ },
				Progress:       &progress,
			})
			recorded, err := cpu.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(recorded, plain) {
				t.Errorf("instruments perturbed the result:\n%+v\nvs\n%+v", recorded, plain)
			}
			if cpu.CommitDigest() != plainDig {
				t.Error("instruments perturbed the committed state")
			}
			if rec.Len() == 0 {
				t.Fatal("recorder captured nothing")
			}
			if rec.Dropped() == 0 {
				t.Fatal("256-entry ring over a 50-iteration loop should have wrapped")
			}
			if watched != recorded.Committed || progress.Load() != recorded.Committed {
				t.Errorf("commit watch saw %d, progress %d; want %d commits", watched, progress.Load(), recorded.Committed)
			}
		})
	}
}
