package pipeline

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"reese/internal/config"
	"reese/internal/emu"
	"reese/internal/fault"
	"reese/internal/obs"
)

func TestPipelineTrace(t *testing.T) {
	var buf strings.Builder
	cpu, err := New(config.Starting().WithReese(), mustProg(t, loopProgram(5)), &fault.AtStruct{Seq: 10, Bit: 2})
	if err != nil {
		t.Fatal(err)
	}
	cpu.Instrument(Instruments{Trace: &buf})
	if _, err := cpu.Run(0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"FETCH", "DISPATCH", "ISSUE", "WRITEBACK", "ENTER-RSQ", "DISPATCH-R", "ISSUE-R", "VERIFY", "COMMIT", "FAULT", "MISMATCH", "RECOVERY"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %s event", want)
		}
	}
	// Event ordering sanity for the first instruction: fetch before
	// dispatch before issue.
	iF := strings.Index(out, "FETCH")
	iD := strings.Index(out, "DISPATCH")
	iI := strings.Index(out, "ISSUE")
	if !(iF < iD && iD < iI) {
		t.Error("event order broken")
	}
}

func TestEventKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := obs.EventKind(0); k < obs.NumEventKinds; k++ {
		s := k.String()
		if seen[s] || strings.HasPrefix(s, "event(") {
			t.Errorf("kind %d stringifies to %q", k, s)
		}
		seen[s] = true
	}
	if obs.EventKind(99).String() != "event(99)" {
		t.Error("unknown kind")
	}
}

// TestTextTraceRendersTheEventStream: the text trace and the flight
// recorder are one event stream, so with a ring large enough not to
// wrap, every event kind has as many text lines as ring entries — and
// wrong-path machines show their squashes in both.
func TestTextTraceRendersTheEventStream(t *testing.T) {
	for _, tt := range []struct {
		name string
		cfg  config.Machine
		src  string
		inj  fault.Injector
	}{
		{"reese+fault", config.Starting().WithReese(), loopProgram(20), &fault.AtStruct{Seq: 10, Bit: 2}},
		{"wrong-path", config.Starting().WithWrongPath(), erraticBranches, nil},
		{"reese+wrong-path", config.Starting().WithReese().WithWrongPath(), erraticBranches, nil},
	} {
		t.Run(tt.name, func(t *testing.T) {
			cpu, err := New(tt.cfg, mustProg(t, tt.src), tt.inj)
			if err != nil {
				t.Fatal(err)
			}
			var buf strings.Builder
			rec := obs.NewRecorder(1 << 16)
			cpu.Instrument(Instruments{Trace: &buf, Recorder: rec})
			if _, err := cpu.Run(2_000); err != nil {
				t.Fatal(err)
			}
			if rec.Dropped() != 0 {
				t.Fatalf("ring wrapped (%d dropped); grow it", rec.Dropped())
			}
			ring := map[string]int{}
			rec.Scan(func(e obs.Event) { ring[e.Kind.String()]++ })
			text := map[string]int{}
			for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
				text[strings.Fields(line)[1]]++
			}
			if !reflect.DeepEqual(text, ring) {
				t.Errorf("text trace lines per kind %v, ring events per kind %v", text, ring)
			}
			if tt.cfg.ModelWrongPath && ring["SQUASH"] == 0 {
				t.Error("wrong-path run recorded no SQUASH")
			}
			if tt.inj != nil && ring["FAULT"] != 1 {
				t.Errorf("%d FAULT events, want 1", ring["FAULT"])
			}
		})
	}
}

// TestForkShedsInstruments: a Fork from a Snapshot of an instrumented
// CPU runs bare — no text, no ring events, no commit watch, no
// progress — and progress armed on a fork counts only the fork's own
// commits, never the checkpoint prefix it did not simulate.
func TestForkShedsInstruments(t *testing.T) {
	cpu, err := New(config.Starting().WithReese(), mustProg(t, loopProgram(200)), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	rec := obs.NewRecorder(64)
	var progress atomic.Uint64
	var watched uint64
	cpu.Instrument(Instruments{
		Trace:       &buf,
		Recorder:    rec,
		CommitWatch: func(*CPU, uint64, uint64, emu.Trace, uint32, uint32, uint32) { watched++ },
		Progress:    &progress,
	})
	if _, err := cpu.Run(500); err != nil {
		t.Fatal(err)
	}
	at := cpu.Committed()
	if progress.Load() != at || watched != at {
		t.Fatalf("before the fork: progress %d, commit watch %d, committed %d", progress.Load(), watched, at)
	}
	text, events := buf.Len(), uint64(rec.Len())+rec.Dropped()
	if text == 0 || events == 0 {
		t.Fatal("event stream idle before the fork")
	}

	ck := cpu.Snapshot(nil)
	bare, err := ck.Fork(cpu.OracleMemory().Clone(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bare.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("fork did not halt")
	}
	if buf.Len() != text || uint64(rec.Len())+rec.Dropped() != events || progress.Load() != at || watched != at {
		t.Error("the fork kept an instrument of the snapshotted CPU")
	}

	counted, err := ck.Fork(cpu.OracleMemory().Clone(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var forked atomic.Uint64
	counted.Instrument(Instruments{Progress: &forked})
	if _, err := counted.Run(0); err != nil {
		t.Fatal(err)
	}
	if want := res.Committed - at; forked.Load() != want {
		t.Errorf("fork at %d ran to %d: progress %d, want %d", at, res.Committed, forked.Load(), want)
	}
}
