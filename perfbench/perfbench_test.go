package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a run times its set-up in child processes.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "--setup-child" {
			os.Exit(run())
		}
	}
	os.Exit(m.Run())
}

// TestWorkloadsSmoke runs every workload for a fraction of a second,
// output checks included, untraced and traced. -short skips the traced
// runs, whose layer probe takes seconds.
func TestWorkloadsSmoke(t *testing.T) {
	defs, _, err := definitions()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sim-figure", "faults-splice", "faults-memory", "cluster-open"} {
		for _, traced := range []bool{false, true} {
			if traced && testing.Short() {
				continue
			}
			b, err := newBench(name, defs[name], 3)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := runBench(b, name, 3, 0.3, traced, defs)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if rec.Attempted == 0 || rec.Failed != 0 || !rec.Correct {
				t.Errorf("%s (traced %v): attempted %d, failed %d", name, traced, rec.Attempted, rec.Failed)
			}
			want := []string{"setup_s", "throughput_per_s", "latency_p50_ms", "latency_p90_ms", "live_heap_mib"}
			if traced {
				want = []string{"pipeline.fork_us", "harness.trial_ms.l2-line", "cluster.split.compute_frac", "http.client_ms.v1_jobs_id", "unattributed_frac"}
			}
			for _, m := range want {
				v, ok := rec.Metrics[m]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s (traced %v): metric %s = %+v, present %v", name, traced, m, v, ok)
				}
			}
			if traced {
				// The probe calls every layer, so each has time in the split.
				sum := rec.Metrics["unattributed_frac"].Value
				for _, l := range layers {
					v := rec.Metrics["self_frac."+l].Value
					if v <= 0 {
						t.Errorf("%s: self_frac.%s = %v", name, l, v)
					}
					sum += v
				}
				if math.Abs(sum-1) > 1e-6 {
					t.Errorf("%s: layer self times sum to %.6f of wall", name, sum)
				}
			}
		}
	}
}

// TestAttributionSumsToWall checks that overlapping children share the
// time they cover, so layer totals plus operation-root self time equal
// the roots, and that a root which is itself a layer call (the probe's)
// counts toward its layer.
func TestAttributionSumsToWall(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{id: 1, name: "unit", start: 0, end: 100 * ms},
		{id: 2, parent: 1, name: "http.a", start: 10 * ms, end: 60 * ms},
		{id: 3, parent: 1, name: "http.b", start: 40 * ms, end: 90 * ms},
		{id: 4, parent: 2, name: "server.x", start: 20 * ms, end: 50 * ms},
		{id: 5, name: "emu.run", start: 200 * ms, end: 230 * ms},
	}
	a := attribute(spans)
	sum := a.rootSelf
	for _, v := range a.layers {
		sum += v
	}
	if math.Abs(sum-a.wall) > 1e-9 || math.Abs(a.wall-0.13) > 1e-9 {
		t.Fatalf("attributed %.6f of %.6f wall", sum, a.wall)
	}
	if got := a.rootSelf; math.Abs(got-0.02) > 1e-9 {
		t.Errorf("root self time %.6f, want 0.020", got)
	}
	if got := a.layers["emu"]; math.Abs(got-0.03) > 1e-9 {
		t.Errorf("emu time %.6f, want 0.030", got)
	}
}

func TestCompareRefusesAcrossHostsAndDefinitions(t *testing.T) {
	r := record{Workload: "w", Definition: "d1", Host: fingerprint()}
	other := r
	other.Host.NProc++
	if comparable([]record{r}, []record{other}) == "" {
		t.Error("compared records from different hosts")
	}
	changed := r
	changed.Definition = "d2"
	if comparable([]record{r}, []record{changed}) == "" {
		t.Error("compared records of different definitions")
	}
	if why := comparable([]record{r}, []record{r}); why != "" {
		t.Errorf("refused identical records: %s", why)
	}
}

// TestDefinitionsDecode checks every definition decodes strictly.
func TestDefinitionsDecode(t *testing.T) {
	defs, hashes, err := definitions()
	if err != nil {
		t.Fatal(err)
	}
	for name, raw := range defs {
		if name == "probe" {
			var d probeDef
			if err := json.Unmarshal(raw, &d); err != nil {
				t.Error(err)
			}
			continue
		}
		if _, err := newBench(name, raw, 1); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if len(hashes[name]) != 64 {
			t.Errorf("%s: hash %q", name, hashes[name])
		}
	}
}
