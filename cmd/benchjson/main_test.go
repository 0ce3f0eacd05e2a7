package main

import (
	"strings"
	"testing"
)

func entry(name string, metrics map[string]float64) Entry {
	return Entry{Name: name, Iters: 1, Metrics: metrics}
}

// TestGateRequiresRecordedEntry pins the rule that keeps a renamed or
// new benchmark from passing ungated: every benchmark the head runs
// needs a recorded entry, even one the base cannot run.
func TestGateRequiresRecordedEntry(t *testing.T) {
	const old, renamed = "BenchmarkCampaignThroughput/reese", "BenchmarkCampaignThroughput/reese-memory"
	run := func(name string, injPerS, allocs float64) []Entry {
		return []Entry{entry(name, map[string]float64{"injections/s": injPerS, "allocs/op": allocs})}
	}
	recorded := map[string]Entry{old: entry(old, map[string]float64{"allocs/op": 100})}

	// Unrecorded, and absent from the base: fails, naming the benchmark.
	runs := [2]map[string][]Entry{
		{old: run(old, 10, 100)},
		{old: run(old, 10, 100), renamed: run(renamed, 10, 100)},
	}
	checked, failures := gate(runs, recorded, "base", "BENCH.json", 5)
	if checked != 1 || len(failures) != 1 || !strings.Contains(failures[0], renamed) {
		t.Fatalf("unrecorded benchmark: checked %d, failures %q", checked, failures)
	}

	// Recorded but absent from the base: the throughput comparison is
	// skipped and allocs/op is still gated.
	recorded[renamed] = entry(renamed, map[string]float64{"allocs/op": 100})
	if _, failures := gate(runs, recorded, "base", "BENCH.json", 5); len(failures) != 0 {
		t.Fatalf("recorded new benchmark should pass, got %q", failures)
	}
	runs[1][renamed] = run(renamed, 10, 200)
	if _, failures := gate(runs, recorded, "base", "BENCH.json", 5); len(failures) != 1 || !strings.Contains(failures[0], "allocs/op") {
		t.Fatalf("allocs growth on a benchmark the base lacks should fail, got %q", failures)
	}

	// A throughput drop past the budget fails.
	runs[1][renamed] = run(renamed, 10, 100)
	runs[1][old] = run(old, 9, 100)
	if _, failures := gate(runs, recorded, "base", "BENCH.json", 5); len(failures) != 1 || !strings.Contains(failures[0], "regressed") {
		t.Fatalf("10%% throughput drop should fail, got %q", failures)
	}
}
