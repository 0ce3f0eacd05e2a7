package server

// End-to-end restart recovery: jobs accepted before a crash are
// replayed and finished by the next server generation on the same
// journal, and a clean shutdown compacts the journal to nothing.

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"reese/internal/wal"
)

func TestRestartRecovery(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "jobs.wal")
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))

	// Generation A: every attempt blocks until its context dies, so
	// accepted jobs are mid-flight (one running, rest queued) when the
	// server "loses power".
	var blockAttempts atomic.Bool
	blockAttempts.Store(true)
	cfg := Config{
		Workers:     1,
		JournalPath: journalPath,
		Logger:      quiet,
		BeforeAttempt: func(ctx context.Context, jobID, kind string, attempt int) {
			if blockAttempts.Load() {
				<-ctx.Done()
			}
		},
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(a.Handler())

	reqs := []RunRequest{
		{Workload: "li", Insts: testInsts},
		{Workload: "gcc", Insts: testInsts},
		{Workload: "ijpeg", Insts: testInsts},
	}
	ids := make([]string, len(reqs))
	for i, rr := range reqs {
		v := postJSON(t, tsA.URL+"/v1/run", rr)
		ids[i] = v.ID
	}
	waitFor(t, 10*time.Second, func() bool { return a.jobs.running.Load() == 1 })
	tsA.Close()
	a.Crash()

	// Generation B: same journal, attempts run normally. Every accepted
	// job must be replayed, re-enqueued, and finished — none lost, none
	// duplicated, IDs preserved.
	blockAttempts.Store(false)
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(b.Handler())

	for _, id := range ids {
		v := getJob(t, tsB.URL, id)
		deadline := time.Now().Add(2 * time.Minute)
		for !v.State.terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("replayed job %s still %q at deadline", id, v.State)
			}
			time.Sleep(25 * time.Millisecond)
			v = getJob(t, tsB.URL, id)
		}
		if v.State != StateDone {
			t.Errorf("replayed job %s finished %q: %s", id, v.State, v.Error)
		}
		if !v.Replayed {
			t.Errorf("job %s not marked replayed", id)
		}
		if len(v.Result) == 0 {
			t.Errorf("replayed job %s has no result", id)
		}
	}
	if views := b.jobs.list(); len(views) != len(reqs) {
		t.Errorf("generation B has %d jobs, want exactly the %d accepted", len(views), len(reqs))
	}
	metrics := scrapeMetrics(t, tsB.URL)
	if !strings.Contains(metrics, "reese_serve_journal_replayed_jobs_total 3") {
		t.Errorf("metrics missing journal_replayed_jobs_total 3:\n%s", grepMetrics(metrics, "journal"))
	}

	// Replayed results must be cache-verified: resubmitting an identical
	// request hits the cache with byte-identical payload.
	second := postJSON(t, tsB.URL+"/v1/run?wait=120s", reqs[0])
	if !second.Cached {
		t.Error("identical resubmission after replay missed the cache")
	}
	if string(second.Result) != string(getJob(t, tsB.URL, ids[0]).Result) {
		t.Error("cached result differs from the replayed job's result")
	}

	// Clean shutdown compacts: generation C replays an empty journal.
	tsB.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("clean shutdown: %v", err)
	}
	replayed, _, err := replayJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 0 {
		t.Errorf("journal not compacted after clean shutdown: %d records remain", len(replayed))
	}
}

// TestReplayKeepsTerminalStates: a journal whose jobs already finished
// replays them as terminal records (no re-execution), visible with
// their causes over the API.
func TestReplayKeepsTerminalStates(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "jobs.wal")
	jl, err := wal.Open[journalRecord](journalPath)
	if err != nil {
		t.Fatal(err)
	}
	req := json.RawMessage(`{"workload":"li","insts":5000,"iters":68,"machine":null}`)
	mustAppend(t, jl, journalRecord{T: recSubmit, Job: "j-000007", Kind: "run", Key: "k7", Req: req})
	mustAppend(t, jl, journalRecord{T: recStart, Job: "j-000007", Attempt: 1})
	mustAppend(t, jl, journalRecord{T: recFail, Job: "j-000007", Attempt: 3, Cause: "panic: chaos (retries exhausted)"})
	jl.Close()

	s, ts := newTestServer(t, Config{JournalPath: journalPath})
	v := getJob(t, ts.URL, "j-000007")
	if v.State != StateFailed || !v.Replayed {
		t.Errorf("replayed terminal job: state %q replayed %v, want failed/true", v.State, v.Replayed)
	}
	if !strings.Contains(v.Error, "panic: chaos") {
		t.Errorf("replayed cause %q lost", v.Error)
	}
	// The ID counter must resume past journaled IDs — no collisions.
	fresh := postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "li", Insts: testInsts})
	if fresh.ID <= "j-000007" {
		t.Errorf("fresh job ID %q collides with journaled range", fresh.ID)
	}
	_ = s

	resp, err := http.Get(ts.URL + "/v1/jobs/j-000007")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("terminal replayed job GET status %d, want 200", resp.StatusCode)
	}
}
