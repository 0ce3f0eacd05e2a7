package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reese/internal/config"
	"reese/internal/fault"
	"reese/internal/harness"
	"reese/internal/server"
)

// newWorker starts one in-process reese-serve replica.
func newWorker(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	return newWrappedWorker(t, cfg, func(h http.Handler) http.Handler { return h })
}

// newWrappedWorker is newWorker serving the replica's handler through
// wrap.
func newWrappedWorker(t *testing.T, cfg server.Config, wrap func(http.Handler) http.Handler) (*server.Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(wrap(s.Handler()))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func newWorkers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		_, ts := newWorker(t, server.Config{Workers: 1})
		urls[i] = ts.URL
	}
	return urls
}

func testClusterConfig(workers []string) Config {
	return Config{
		Workers:  workers,
		PollWait: 200 * time.Millisecond,
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

// stripWall zeroes the host-dependent fields so reports compare on
// content alone.
func stripWall(r *harness.CampaignReport) *harness.CampaignReport {
	c := *r
	c.WallSeconds = 0
	c.InjectionsPerSec = 0
	return &c
}

// The cluster-level determinism contract, end to end over real HTTP:
// the same campaign run through 1 or 2 worker replicas merges to a
// report byte-identical to the single-process harness run — tallies,
// Wilson CIs, latency aggregates, per-trial JSONL, rendered table.
func TestClusterByteIdenticalToSingleProcess(t *testing.T) {
	machine := config.Starting().WithReese()
	base := harness.CampaignSpec{
		Workload:   "li",
		Machine:    machine,
		Injections: 60,
		Seed:       7,
	}
	single, err := harness.Campaign(base, harness.Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(stripWall(single))
	if err != nil {
		t.Fatal(err)
	}
	var wantJSONL bytes.Buffer
	if err := single.WriteJSONL(&wantJSONL); err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{1, 2} {
		cfg := testClusterConfig(newWorkers(t, n))
		rep, err := Run(context.Background(), cfg, Campaign{
			Workload:   "li",
			Machine:    &machine,
			Injections: 60,
			Seed:       7,
		})
		if err != nil {
			t.Fatalf("%d workers: %v", n, err)
		}
		gotJSON, err := json.Marshal(stripWall(rep))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%d-worker cluster report differs from single-process:\n got %s\nwant %s", n, gotJSON, wantJSON)
		}
		var gotJSONL bytes.Buffer
		if err := rep.WriteJSONL(&gotJSONL); err != nil {
			t.Fatal(err)
		}
		if gotJSONL.String() != wantJSONL.String() {
			t.Errorf("%d-worker cluster JSONL differs from single-process", n)
		}
		if rep.Table() != single.Table() {
			t.Errorf("%d-worker cluster table differs from single-process", n)
		}
	}
}

// The robustness contract: killing a worker mid-campaign loses nothing
// and double-counts nothing — its shards are reassigned to the
// survivor and the merged report is still byte-identical to the
// single-process run. This is the `make cluster-smoke` test.
func TestClusterKillWorkerSmoke(t *testing.T) {
	machine := config.Starting().WithReese()
	const injections = 40
	single, err := harness.Campaign(harness.CampaignSpec{
		Workload:   "gcc",
		Machine:    machine,
		Injections: injections,
		Seed:       11,
	}, harness.Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(stripWall(single))
	if err != nil {
		t.Fatal(err)
	}

	_, tsA := newWorker(t, server.Config{Workers: 1})
	// Worker B is gated: once its first shard is assigned, every request
	// it receives blocks until the kill has severed its connections, then
	// aborts. B therefore cannot report any shard complete before the
	// kill lands, however fast the shard runs.
	var armed atomic.Bool
	gate := make(chan struct{})
	_, tsB := newWrappedWorker(t, server.Config{Workers: 1}, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if armed.Load() {
				<-gate
				panic(http.ErrAbortHandler)
			}
			h.ServeHTTP(w, r)
		})
	})

	var (
		kill       sync.Once
		mu         sync.Mutex
		reassigned int
		retried    int
	)
	cfg := testClusterConfig([]string{tsA.URL, tsB.URL})
	cfg.MaxAttempts = 50 // the kill causes churn, not a campaign failure
	cfg.OnEvent = func(ev Event) {
		mu.Lock()
		switch ev.Type {
		case "reassigned":
			reassigned++
		case "retried":
			retried++
		}
		mu.Unlock()
		// The first shard assigned to worker B triggers its death: arm the
		// gate before the coordinator can poll, sever every open connection
		// (poll heartbeats included), release the gated requests to abort,
		// then close the listener so reconnects are refused — a hard kill.
		if ev.Worker == tsB.URL && ev.Type == "assigned" {
			kill.Do(func() {
				armed.Store(true)
				go func() {
					tsB.CloseClientConnections()
					close(gate)
					tsB.Close()
				}()
			})
		}
	}
	rep, err := Run(context.Background(), cfg, Campaign{
		Workload:   "gcc",
		Machine:    &machine,
		Injections: injections,
		Seed:       11,
		ShardSize:  5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Injected != injections {
		t.Fatalf("merged report ran %d of %d injections", rep.Injected, injections)
	}
	var total uint64
	for _, sr := range rep.Structures {
		total += sr.Total()
	}
	if total != injections {
		t.Fatalf("merged outcome counts sum to %d, want %d (lost or double-counted shards)", total, injections)
	}
	gotJSON, err := json.Marshal(stripWall(rep))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("post-kill merged report differs from single-process:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	mu.Lock()
	defer mu.Unlock()
	t.Logf("worker kill churn: %d reassigned, %d retried", reassigned, retried)
	if reassigned == 0 && retried == 0 {
		t.Error("worker kill caused no shard churn; the kill did not land mid-campaign")
	}
}

// The full-size acceptance run: a 10,000-injection gcc campaign
// sharded over 4 worker replicas must merge byte-identical to the
// single-process same-seed run. Minutes of wall time, so it only runs
// when asked for explicitly:
//
//	REESE_CLUSTER_ACCEPTANCE=1 go test ./internal/cluster/ -run Acceptance -v -timeout 30m
func TestClusterAcceptance10kGcc(t *testing.T) {
	if os.Getenv("REESE_CLUSTER_ACCEPTANCE") == "" {
		t.Skip("set REESE_CLUSTER_ACCEPTANCE=1 to run the 10k-injection acceptance campaign")
	}
	machine := config.Starting().WithReese()
	const injections = 10_000
	single, err := harness.Campaign(harness.CampaignSpec{
		Workload:   "gcc",
		Machine:    machine,
		Injections: injections,
		Seed:       7,
	}, harness.Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("single-process: %d injections in %.1fs (%.0f inj/s)",
		single.Injected, single.WallSeconds, single.InjectionsPerSec)
	wantJSON, err := json.Marshal(stripWall(single))
	if err != nil {
		t.Fatal(err)
	}

	cfg := testClusterConfig(newWorkers(t, 4))
	rep, err := Run(context.Background(), cfg, Campaign{
		Workload:   "gcc",
		Machine:    &machine,
		Injections: injections,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("4-worker cluster: %d injections in %.1fs (%.0f inj/s)",
		rep.Injected, rep.WallSeconds, rep.InjectionsPerSec)
	gotJSON, err := json.Marshal(stripWall(rep))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("4-worker 10k-injection report differs from single-process")
	}
	if rep.Table() != single.Table() {
		t.Error("4-worker 10k-injection table differs from single-process")
	}
}

// The streaming endpoint: progress frames then a result frame, as
// chunked JSONL, with the same report the blocking API returns.
func TestClusterHandlerStreamsJSONL(t *testing.T) {
	cfg := testClusterConfig(newWorkers(t, 2))
	h := Handler(cfg)
	ts := httptest.NewServer(h)
	defer ts.Close()

	machine := config.Starting().WithReese()
	body, _ := json.Marshal(Campaign{
		Workload:   "li",
		Machine:    &machine,
		Injections: 20,
		Seed:       3,
	})
	resp, err := http.Post(ts.URL, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 2 {
		t.Fatalf("stream carried %d frames, want progress + result", len(lines))
	}
	var progress Event
	if err := json.Unmarshal([]byte(lines[0]), &progress); err != nil {
		t.Fatalf("first frame is not an event: %v", err)
	}
	if progress.TotalTrials != 20 {
		t.Errorf("progress frame reports %d total trials, want 20", progress.TotalTrials)
	}
	var final resultFrame
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("final frame: %v", err)
	}
	if final.Type != "result" || final.Report == nil {
		t.Fatalf("final frame %q carries no report (err %q)", final.Type, final.Err)
	}
	if final.Report.Injected != 20 {
		t.Errorf("streamed report ran %d injections, want 20", final.Report.Injected)
	}
	if final.Table == "" {
		t.Error("streamed result carries no rendered table")
	}
}

// The triage contract across the cluster: a triaged distributed
// campaign merges to the byte-identical trial log of the triaged
// single-process run, and the coordinator reattaches every shard's
// trace blobs so the merged escapes carry their artifacts whole.
func TestClusterTriagePropagates(t *testing.T) {
	machine := config.Starting().WithReese()
	structs := []fault.Struct{
		fault.StructResult, fault.StructRegFile, fault.StructFetchPC, fault.StructMemWord,
	}
	single, err := harness.Campaign(harness.CampaignSpec{
		Workload:   "li",
		Machine:    machine,
		Structures: structs,
		Injections: 40,
		Seed:       7,
		Triage:     true,
	}, harness.Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wantJSONL bytes.Buffer
	if err := single.WriteJSONL(&wantJSONL); err != nil {
		t.Fatal(err)
	}

	cfg := testClusterConfig(newWorkers(t, 2))
	rep, err := Run(context.Background(), cfg, Campaign{
		Workload:   "li",
		Machine:    &machine,
		Structures: []string{"result", "regfile", "fetch-pc", "mem-word"},
		Injections: 40,
		Seed:       7,
		Triage:     true,
		ShardSize:  10,
	})
	if err != nil {
		t.Fatal(err)
	}
	var gotJSONL bytes.Buffer
	if err := rep.WriteJSONL(&gotJSONL); err != nil {
		t.Fatal(err)
	}
	if gotJSONL.String() != wantJSONL.String() {
		t.Error("triaged cluster JSONL differs from triaged single-process run")
	}
	if rep.Triaged != single.Triaged || rep.Diverged != single.Diverged {
		t.Errorf("cluster triage totals (%d, %d) differ from single-process (%d, %d)",
			rep.Triaged, rep.Diverged, single.Triaged, single.Diverged)
	}
	triaged := 0
	for i := range rep.Trials {
		tr := &rep.Trials[i]
		if tr.Triage == nil {
			continue
		}
		triaged++
		if len(tr.Triage.Trace) == 0 {
			t.Errorf("trial %d: merged triage record lost its trace blob", tr.Index)
		} else if !bytes.Contains(tr.Triage.Trace, []byte(`"FAULT`)) {
			t.Errorf("trial %d: reattached trace has no injection marker", tr.Index)
		}
	}
	if triaged == 0 {
		t.Fatal("cluster campaign triaged nothing; the test exercised nothing")
	}
}
