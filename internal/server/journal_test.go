package server

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"reese/internal/wal"
)

func mustAppend(t *testing.T, jl *wal.Log[journalRecord], rec journalRecord) {
	t.Helper()
	if err := jl.Append(rec); err != nil {
		t.Fatal(err)
	}
}

// TestJournalReplayStates walks one of each lifecycle through the
// journal and checks the replayed final states.
func TestJournalReplayStates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	jl, err := wal.Open[journalRecord](path)
	if err != nil {
		t.Fatal(err)
	}
	req := json.RawMessage(`{"workload":"li","insts":5000}`)
	sub := func(id string) journalRecord {
		return journalRecord{T: recSubmit, Job: id, Kind: "run", Key: "k-" + id, Req: req, TimeoutMS: 60000}
	}
	mustAppend(t, jl, sub("j-000001"))
	mustAppend(t, jl, journalRecord{T: recStart, Job: "j-000001", Attempt: 1})
	mustAppend(t, jl, journalRecord{T: recDone, Job: "j-000001", Attempt: 1})
	mustAppend(t, jl, sub("j-000002"))
	mustAppend(t, jl, journalRecord{T: recStart, Job: "j-000002", Attempt: 1})
	mustAppend(t, jl, journalRecord{T: recRetry, Job: "j-000002", Attempt: 1, Cause: "panic: chaos"})
	mustAppend(t, jl, sub("j-000003"))
	mustAppend(t, jl, sub("j-000004"))
	mustAppend(t, jl, journalRecord{T: recStart, Job: "j-000004", Attempt: 1})
	mustAppend(t, jl, journalRecord{T: recFail, Job: "j-000004", Attempt: 3, Cause: "boom"})
	mustAppend(t, jl, sub("j-000005"))
	mustAppend(t, jl, journalRecord{T: recCancel, Job: "j-000005", Cause: "client gone"})
	jl.Close()

	jobs, maxID, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if maxID != 5 {
		t.Errorf("maxID = %d, want 5", maxID)
	}
	if len(jobs) != 5 {
		t.Fatalf("replayed %d jobs, want 5", len(jobs))
	}
	want := []struct {
		state    JobState
		attempts int
		cause    string
	}{
		{StateDone, 1, ""},
		{StateRetrying, 1, "panic: chaos"},
		{StateQueued, 0, ""},
		{StateFailed, 3, "boom"},
		{StateCanceled, 0, "client gone"},
	}
	for i, w := range want {
		j := jobs[i]
		if j.State != w.state || j.Attempts != w.attempts || j.Cause != w.cause {
			t.Errorf("job %s: state %q attempts %d cause %q, want %q/%d/%q",
				j.ID, j.State, j.Attempts, j.Cause, w.state, w.attempts, w.cause)
		}
		if j.Kind != "run" || j.Timeout != time.Minute || !bytes.Equal(j.Req, req) {
			t.Errorf("job %s lost submit fields: %+v", j.ID, j)
		}
	}
}

// TestJournalTornTail: a crash mid-append leaves a torn final line;
// replay keeps everything before it.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	good := `{"t":"submit","job":"j-000001","kind":"run","key":"k","req":{"workload":"li"},"timeout_ms":1000}` + "\n" +
		`{"t":"start","job":"j-000001","attempt":1}` + "\n"
	for _, tail := range []string{
		`{"t":"done","job":"j-0000`, // torn mid-record
		"\x00\xff\xfegarbage",       // binary garbage
		`{"t":"done"}` + "\n",       // parseable but missing job ID
	} {
		if err := os.WriteFile(path, []byte(good+tail), 0o644); err != nil {
			t.Fatal(err)
		}
		jobs, maxID, err := replayJournal(path)
		if err != nil {
			t.Fatalf("tail %q: %v", tail, err)
		}
		if len(jobs) != 1 || jobs[0].State != StateRunning || maxID != 1 {
			t.Errorf("tail %q: jobs %+v maxID %d, want 1 running job", tail, jobs, maxID)
		}
	}
}

// TestJournalKillFreezesDisk: after kill(), appends vanish — the
// on-disk journal keeps its crash-time contents.
func TestJournalKillFreezesDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	jl, err := wal.Open[journalRecord](path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, jl, journalRecord{T: recSubmit, Job: "j-000001", Kind: "run", Req: json.RawMessage(`{}`)})
	jl.Kill()
	mustAppend(t, jl, journalRecord{T: recDone, Job: "j-000001"}) // must vanish
	if err := jl.Rewrite(nil); err != nil {                       // must be a no-op too
		t.Fatal(err)
	}
	jl.Close()

	jobs, _, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].State != StateQueued {
		t.Fatalf("after kill, replay = %+v, want the submit only", jobs)
	}
}

// TestJournalCompact: compaction rewrites the file down to the live
// submits and the handle stays appendable.
func TestJournalCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	jl, err := wal.Open[journalRecord](path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, jl, journalRecord{T: recSubmit, Job: "j-000001", Kind: "run", Req: json.RawMessage(`{}`)})
	mustAppend(t, jl, journalRecord{T: recDone, Job: "j-000001"})
	mustAppend(t, jl, journalRecord{T: recSubmit, Job: "j-000002", Kind: "figure", Req: json.RawMessage(`{"figure":"2"}`)})
	live := []journalRecord{{T: recSubmit, Job: "j-000002", Kind: "figure", Req: json.RawMessage(`{"figure":"2"}`)}}
	if err := jl.Rewrite(live); err != nil {
		t.Fatal(err)
	}
	// The handle must still append (post-compaction transitions).
	mustAppend(t, jl, journalRecord{T: recStart, Job: "j-000002", Attempt: 1})
	jl.Close()

	jobs, maxID, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != "j-000002" || jobs[0].State != StateRunning {
		t.Fatalf("after compact, replay = %+v, want j-000002 running", jobs)
	}
	if maxID != 2 {
		t.Errorf("maxID = %d, want 2", maxID)
	}
}

// parentJournal is a journal written by the previous, pre-internal/wal
// implementation, torn tail included. Its bytes must keep replaying to
// the states that implementation's replayer produced.
const parentJournal = `{"t":"submit","job":"j-000001","ts":"2026-10-17T05:00:04.277392717Z","kind":"run","key":"k1","req":{"workload":"li","insts":5000},"timeout_ms":60000}
{"t":"start","job":"j-000001","ts":"2026-10-17T05:00:04.277872559Z","attempt":1}
{"t":"done","job":"j-000001","ts":"2026-10-17T05:00:04.27802401Z","attempt":1}
{"t":"submit","job":"j-000002","ts":"2026-10-17T05:00:04.278111578Z","kind":"faults","key":"k2","req":{"workload":"li","insts":5000},"timeout_ms":1000}
{"t":"start","job":"j-000002","ts":"2026-10-17T05:00:04.278200518Z","attempt":1}
{"t":"retry","job":"j-000002","ts":"2026-10-17T05:00:04.278281803Z","attempt":1,"cause":"panic: chaos"}
{"t":"submit","job":"j-000003","ts":"2026-10-17T05:00:04.278361707Z","kind":"run","key":"k3","req":{"workload":"li","insts":5000}}
{"t":"fail","job":"j-000003","ts":"2026-10-17T05:00:04.278441274Z","attempt":3,"cause":"boom"}
{"t":"submit","job":"j-000004","ts":"2026-10-17T05:00:04.278533232Z","kind":"run","key":"k4","req":{"workload":"li","insts":5000}}
{"t":"cancel","job":"j-000004","ts":"2026-10-17T05:00:04.278614533Z","cause":"client gone"}
{"t":"submit","job":"j-000007","ts":"2026-10-17T05:00:04.278696185Z","kind":"figure","key":"k7","req":{"workload":"li","insts":5000}}
{"t":"done","job":"j-0000`

func TestReplayJournalParentFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	if err := os.WriteFile(path, []byte(parentJournal), 0o644); err != nil {
		t.Fatal(err)
	}
	jobs, maxID, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if maxID != 7 {
		t.Errorf("maxID = %d, want 7", maxID)
	}
	at := func(ns int) time.Time { return time.Date(2026, 10, 17, 5, 0, 4, ns, time.UTC) }
	want := []replayedJob{
		{ID: "j-000001", Kind: "run", Key: "k1", Timeout: time.Minute, Created: at(277392717), State: StateDone, Attempts: 1},
		{ID: "j-000002", Kind: "faults", Key: "k2", Timeout: time.Second, Created: at(278111578), State: StateRetrying, Attempts: 1, Cause: "panic: chaos"},
		{ID: "j-000003", Kind: "run", Key: "k3", Created: at(278361707), State: StateFailed, Attempts: 3, Cause: "boom"},
		{ID: "j-000004", Kind: "run", Key: "k4", Created: at(278533232), State: StateCanceled, Cause: "client gone"},
		{ID: "j-000007", Kind: "figure", Key: "k7", Created: at(278696185), State: StateQueued},
	}
	if len(jobs) != len(want) {
		t.Fatalf("replayed %d jobs, want %d", len(jobs), len(want))
	}
	for i, w := range want {
		got := jobs[i]
		if string(got.Req) != `{"workload":"li","insts":5000}` {
			t.Errorf("job %s req %s", got.ID, got.Req)
		}
		got.Req = nil
		if !got.Created.Equal(w.Created) {
			t.Errorf("job %s created %v, want %v", got.ID, got.Created, w.Created)
		}
		got.Created = w.Created
		if !reflect.DeepEqual(got, w) {
			t.Errorf("job %d replayed as %+v, want %+v", i, got, w)
		}
	}
}

// FuzzReplayJournal: no input — valid, torn, hostile — may panic the
// replayer or produce a job without an ID; the prefix before the first
// bad line must survive.
func FuzzReplayJournal(f *testing.F) {
	f.Add([]byte(`{"t":"submit","job":"j-000001","kind":"run","key":"k","req":{"workload":"li"},"timeout_ms":1000}` + "\n"))
	f.Add([]byte(`{"t":"submit","job":"j-000001","kind":"run","req":{}}` + "\n" + `{"t":"done","job":"j-0`))
	f.Add([]byte("\x00\x01\x02"))
	f.Add([]byte(""))
	f.Add([]byte(`{"t":"cancel","job":"j-000009"}` + "\n"))
	f.Add([]byte(parentJournal))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		jobs, _, err := replayJournal(path)
		if err != nil {
			t.Fatalf("replay must tolerate any content, got %v", err)
		}
		for _, j := range jobs {
			if j.ID == "" || j.Kind == "" || len(j.Req) == 0 {
				t.Fatalf("replayed job missing required fields: %+v", j)
			}
		}
	})
}
