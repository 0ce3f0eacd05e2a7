package server

// Crash-safe job journal: an append-only JSON-lines write-ahead log of
// job state transitions (submit, start, retry, done, fail, cancel),
// kept by internal/wal (fsync per append, torn-tail-tolerant replay,
// atomic rewrite). This file owns the record type and the fold from
// records to job states. A restarted server replays the journal and
// re-enqueues every job whose last recorded state is non-terminal —
// sound because simulation is deterministic and requests are journaled
// in canonical (normalized) form, so a re-run produces byte-identical
// results under the same content address. Result payloads are NOT
// journaled: a replayed terminal job keeps its terminal state and
// cause, and an identical resubmission recomputes the payload through
// the cache.
//
// Clean shutdown compacts the journal down to the submit records of
// any still-unfinished jobs (normally none), so the file does not grow
// across restarts.

import (
	"encoding/json"
	"fmt"
	"time"

	"reese/internal/wal"
)

// Journal record types.
const (
	recSubmit = "submit"
	recStart  = "start"
	recRetry  = "retry"
	recDone   = "done"
	recFail   = "fail"
	recCancel = "cancel"
)

// journalRecord is one JSON line of the write-ahead log.
type journalRecord struct {
	T   string    `json:"t"`
	Job string    `json:"job"`
	TS  time.Time `json:"ts"`
	// Submit fields: enough to rebuild the job after a crash.
	Kind      string          `json:"kind,omitempty"`
	Key       string          `json:"key,omitempty"`
	Req       json.RawMessage `json:"req,omitempty"`
	TimeoutMS int64           `json:"timeout_ms,omitempty"`
	// Attempt/Cause annotate start, retry, and failure records.
	Attempt int    `json:"attempt,omitempty"`
	Cause   string `json:"cause,omitempty"`
}

// replayedJob is one job reconstructed from the journal: its last
// durable state plus everything needed to re-enqueue it if that state
// is non-terminal.
type replayedJob struct {
	ID      string
	Kind    string
	Key     string
	Req     json.RawMessage
	Timeout time.Duration
	Created time.Time
	// State is the last journaled state: queued, running, retrying, or a
	// terminal state.
	State    JobState
	Attempts int
	Cause    string
}

// replayJournal folds the journal at path into per-job final states,
// in submission order, plus the highest job ID seen (so a restarted
// server's ID counter never collides). Replay stops at the first record
// without a job ID.
func replayJournal(path string) ([]replayedJob, uint64, error) {
	byID := make(map[string]*replayedJob)
	var order []string
	var maxID uint64
	err := wal.Replay(path, func(rec journalRecord) bool {
		if rec.Job == "" {
			return false
		}
		var n uint64
		if _, err := fmt.Sscanf(rec.Job, "j-%d", &n); err == nil && n > maxID {
			maxID = n
		}
		switch rec.T {
		case recSubmit:
			if rec.Kind == "" || len(rec.Req) == 0 {
				return true // malformed but parseable line: skip defensively
			}
			if _, dup := byID[rec.Job]; dup {
				return true // duplicate submit: first one wins
			}
			byID[rec.Job] = &replayedJob{
				ID:      rec.Job,
				Kind:    rec.Kind,
				Key:     rec.Key,
				Req:     rec.Req,
				Timeout: time.Duration(rec.TimeoutMS) * time.Millisecond,
				Created: rec.TS,
				State:   StateQueued,
			}
			order = append(order, rec.Job)
		case recStart:
			if r, ok := byID[rec.Job]; ok && !r.State.terminal() {
				r.State = StateRunning
				r.Attempts = rec.Attempt
			}
		case recRetry:
			if r, ok := byID[rec.Job]; ok && !r.State.terminal() {
				r.State = StateRetrying
				r.Attempts = rec.Attempt
				r.Cause = rec.Cause
			}
		case recDone:
			if r, ok := byID[rec.Job]; ok {
				r.State = StateDone
			}
		case recFail:
			if r, ok := byID[rec.Job]; ok {
				r.State = StateFailed
				r.Cause = rec.Cause
				r.Attempts = rec.Attempt
			}
		case recCancel:
			if r, ok := byID[rec.Job]; ok {
				r.State = StateCanceled
				r.Cause = rec.Cause
			}
		}
		return true
	})
	if err != nil {
		return nil, 0, fmt.Errorf("server: open journal for replay: %w", err)
	}
	out := make([]replayedJob, 0, len(order))
	for _, id := range order {
		out = append(out, *byID[id])
	}
	return out, maxID, nil
}
