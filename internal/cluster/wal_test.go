package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"reese/internal/config"
	"reese/internal/harness"
	"reese/internal/server"
)

func testPayload(offset, count, plan int) *server.ShardPayload {
	return &server.ShardPayload{
		Report: harness.CampaignReport{
			Shard:    &harness.ShardRange{Offset: offset, Count: count, Plan: plan},
			Injected: uint64(count),
		},
	}
}

// A WAL written by one coordinator must replay in a second one: spec,
// windows, and completed payloads all intact and hash-verified.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	machine := config.Starting().WithReese()
	req := Campaign{Workload: "li", Machine: &machine, Injections: 20, Seed: 3}
	specs := shardSpecs(req, 2, 5)

	w, st, err := openCampaignWAL(dir, "round-trip")
	if err != nil {
		t.Fatal(err)
	}
	if st != nil {
		t.Fatal("fresh WAL replayed prior state")
	}
	if err := w.begin(req, specs); err != nil {
		t.Fatal(err)
	}
	// Coordinators no longer journal assignments, but WALs written
	// before that carry "assign" lines that replay must skip.
	if err := w.journal.Append(walRecord{T: "assign", Shard: 0}); err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{0, 2} {
		if err := w.appendComplete(idx, testPayload(specs[idx].ShardOffset, specs[idx].ShardCount, 20)); err != nil {
			t.Fatal(err)
		}
	}
	w.journal.Close()

	w2, st2, err := openCampaignWAL(dir, "round-trip")
	if err != nil {
		t.Fatal(err)
	}
	defer w2.journal.Close()
	if st2 == nil {
		t.Fatal("written WAL replayed as fresh")
	}
	spec, _ := json.Marshal(canonicalCampaign(req))
	if string(st2.spec) != string(spec) {
		t.Errorf("replayed spec differs:\n got %s\nwant %s", st2.spec, spec)
	}
	if len(st2.windows) != len(specs) {
		t.Fatalf("replayed %d windows, want %d", len(st2.windows), len(specs))
	}
	for i, sp := range specs {
		if st2.windows[i] != [2]int{sp.ShardOffset, sp.ShardCount} {
			t.Errorf("window %d replayed as %v, want [%d %d]", i, st2.windows[i], sp.ShardOffset, sp.ShardCount)
		}
	}
	if len(st2.completed) != 2 {
		t.Fatalf("replayed %d completed shards, want 2", len(st2.completed))
	}
	for _, idx := range []int{0, 2} {
		p, err := w2.loadPayload(st2.completed[idx])
		if err != nil {
			t.Fatalf("load shard %d: %v", idx, err)
		}
		if p.Report.Shard.Offset != specs[idx].ShardOffset || p.Report.Shard.Count != specs[idx].ShardCount {
			t.Errorf("shard %d payload window %+v", idx, p.Report.Shard)
		}
	}
}

// A crash mid-append leaves a torn final line; replay must stop at the
// last good record instead of erroring or inventing state.
func TestWALTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	machine := config.Starting().WithReese()
	req := Campaign{Workload: "li", Machine: &machine, Injections: 10, Seed: 1}
	specs := shardSpecs(req, 1, 5)

	w, _, err := openCampaignWAL(dir, "torn")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.begin(req, specs); err != nil {
		t.Fatal(err)
	}
	if err := w.appendComplete(0, testPayload(0, 5, 10)); err != nil {
		t.Fatal(err)
	}
	w.journal.Close()

	path := filepath.Join(dir, "torn.wal")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"complete","shard":1,"dig`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err := replayWAL(path)
	if err != nil {
		t.Fatalf("torn tail made replay error: %v", err)
	}
	if st == nil {
		t.Fatal("torn tail lost the whole journal")
	}
	if len(st.completed) != 1 {
		t.Fatalf("torn tail replayed %d completed shards, want 1 (the durable one)", len(st.completed))
	}
	if _, ok := st.completed[0]; !ok {
		t.Error("the durable completion (shard 0) did not survive the torn tail")
	}
}

// A payload file damaged on disk must fail its hash check and demote
// the shard to not-done — the WAL can lose work, never corrupt it.
func TestWALCorruptPayloadRejected(t *testing.T) {
	dir := t.TempDir()
	machine := config.Starting().WithReese()
	req := Campaign{Workload: "li", Machine: &machine, Injections: 10, Seed: 1}
	specs := shardSpecs(req, 1, 5)

	w, _, err := openCampaignWAL(dir, "corrupt")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.begin(req, specs); err != nil {
		t.Fatal(err)
	}
	if err := w.appendComplete(0, testPayload(0, 5, 10)); err != nil {
		t.Fatal(err)
	}

	st, err := replayWAL(filepath.Join(dir, "corrupt.wal"))
	if err != nil || st == nil {
		t.Fatalf("replay: %v", err)
	}
	digest := st.completed[0]
	file := filepath.Join(dir, "corrupt.shards", digest+".json")
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(file, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// The file no longer hashes to its name — loadPayload must refuse it.
	sum := sha256.Sum256(raw)
	if hex.EncodeToString(sum[:]) == digest {
		t.Fatal("bit flip did not change the hash; test is broken")
	}
	if _, err := w.loadPayload(digest); err == nil {
		t.Fatal("corrupt payload file loaded without error")
	}
	w.journal.Close()
}

// A resume token that names a different campaign must hard-error, not
// silently merge two campaigns' shards.
func TestWALSpecMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	machine := config.Starting().WithReese()
	reqA := Campaign{Workload: "li", Machine: &machine, Injections: 20, Seed: 3, ResumeToken: "shared-token"}
	specs := shardSpecs(reqA, 1, 5)

	w, _, err := openCampaignWAL(dir, campaignToken(reqA))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.begin(reqA, specs); err != nil {
		t.Fatal(err)
	}
	w.journal.Close()

	reqB := reqA
	reqB.Seed = 4 // different campaign, same token
	cfg := testClusterConfig([]string{"http://127.0.0.1:0"})
	cfg.WALDir = dir
	_, err = Run(context.Background(), cfg, reqB)
	if err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("spec mismatch under a reused token returned %v, want a spec-mismatch error", err)
	}
}

// ResumeCampaigns must find an interrupted campaign's journal, finish
// the campaign, and write its merged report next to the journal — the
// `reese-serve -resume` startup path.
func TestResumeCampaignsScansDir(t *testing.T) {
	cfg := interruptedCampaign(t)
	walDir := cfg.WALDir
	results := ResumeCampaigns(context.Background(), cfg)
	if len(results) != 1 {
		t.Fatalf("ResumeCampaigns found %d campaigns, want 1", len(results))
	}
	rc := results[0]
	if rc.Err != nil {
		t.Fatalf("resume failed: %v", rc.Err)
	}
	if rc.Token != "orphaned-campaign" {
		t.Errorf("resumed token %q", rc.Token)
	}
	raw, err := os.ReadFile(rc.ReportPath)
	if err != nil {
		t.Fatalf("resumed report not written: %v", err)
	}
	var rep harness.CampaignReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("resumed report is not a CampaignReport: %v", err)
	}
	if rep.Injected != 20 {
		t.Errorf("resumed report ran %d injections, want 20", rep.Injected)
	}
	if matches, _ := filepath.Glob(filepath.Join(walDir, "*.wal")); len(matches) != 0 {
		t.Errorf("resumed campaign left WAL files behind: %v", matches)
	}
}

// interruptedCampaign leaves the WAL of a campaign with token
// "orphaned-campaign" cancelled after its first completed shard, and
// returns a config whose WALDir holds it.
func interruptedCampaign(t *testing.T) Config {
	t.Helper()
	machine := config.Starting().WithReese()
	campaign := Campaign{
		Workload: "li", Machine: &machine, Injections: 20, Seed: 3,
		ShardSize: 5, ResumeToken: "orphaned-campaign",
	}
	cfg := testClusterConfig(newWorkers(t, 1))
	cfg.WALDir = t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	cfg.OnEvent = func(ev Event) {
		if ev.Type == "completed" {
			once.Do(cancel)
		}
	}
	if _, err := Run(ctx, cfg, campaign); err == nil {
		t.Fatal("interrupted run returned no error; nothing left to resume")
	}
	cfg.OnEvent = nil
	return cfg
}

// A resumed campaign whose report cannot be written must keep its WAL:
// the journal is the only record of the finished work until the report
// is durable.
func TestResumeCampaignsKeepsWALWhenReportFails(t *testing.T) {
	cfg := interruptedCampaign(t)
	walPath := filepath.Join(cfg.WALDir, "orphaned-campaign.wal")
	reportPath := filepath.Join(cfg.WALDir, "orphaned-campaign.report.json")
	// A directory in the report's place makes the write fail.
	if err := os.Mkdir(reportPath, 0o755); err != nil {
		t.Fatal(err)
	}
	results := ResumeCampaigns(context.Background(), cfg)
	if len(results) != 1 || results[0].Err == nil {
		t.Fatalf("unwritable report: ResumeCampaigns = %+v, want one campaign with an error", results)
	}
	if _, err := os.Stat(walPath); err != nil {
		t.Fatalf("failed report write lost the WAL: %v", err)
	}

	// Once the obstacle is gone the same WAL resumes and reports.
	if err := os.Remove(reportPath); err != nil {
		t.Fatal(err)
	}
	results = ResumeCampaigns(context.Background(), cfg)
	if len(results) != 1 || results[0].Err != nil || results[0].ReportPath != reportPath {
		t.Fatalf("retry: ResumeCampaigns = %+v, want the report at %s", results, reportPath)
	}
	if _, err := os.Stat(walPath); !os.IsNotExist(err) {
		t.Errorf("WAL still present after a kept report: %v", err)
	}
}

// parentWAL is a campaign WAL written by the previous, pre-internal/wal
// coordinator: it journals "assign" records and ends in a torn tail.
const parentWAL = `{"t":"campaign","ts":"2026-10-17T05:00:05.417642963Z","spec":{"workload":"li","injections":12,"seed":5,"shard_size":4},"shards":[[0,4],[4,4],[8,4]],"shard":0}
{"t":"assign","ts":"2026-10-17T05:00:05.41808821Z","shard":0,"worker":"http://w1"}
{"t":"assign","ts":"2026-10-17T05:00:05.418174699Z","shard":1,"worker":"http://w2"}
{"t":"complete","ts":"2026-10-17T05:00:05.418726809Z","shard":1,"digest":"1a0f34970ec206f401f2245a008980a83bf77267fa9a36ec4484c3bf71e18b4a"}
{"t":"assign","ts":"2026-10-17T05:00:05.418806288Z","shard":0,"worker":"http://w2"}
{"t":"complete","ts":"2026-10-17T05:00:05.419046297Z","shard":0,"digest":"1660463ba7d1eded1b34bdd8501734d09d7274b7663cea48525f6483d85685be"}
{"t":"complete","shard":2,"dig`

// Parent-written WALs must replay to the state the parent's replayer
// produced from the same bytes, so campaigns interrupted before an
// upgrade still resume.
func TestReplayWALParentFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tok.wal")
	if err := os.WriteFile(path, []byte(parentWAL), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := replayWAL(path)
	if err != nil || st == nil {
		t.Fatalf("replay = %v, %v; want a campaign", st, err)
	}
	if want := `{"workload":"li","injections":12,"seed":5,"shard_size":4}`; string(st.spec) != want {
		t.Errorf("spec %s, want %s", st.spec, want)
	}
	if want := [][2]int{{0, 4}, {4, 4}, {8, 4}}; !reflect.DeepEqual(st.windows, want) {
		t.Errorf("windows %v, want %v", st.windows, want)
	}
	want := map[int]string{
		0: "1660463ba7d1eded1b34bdd8501734d09d7274b7663cea48525f6483d85685be",
		1: "1a0f34970ec206f401f2245a008980a83bf77267fa9a36ec4484c3bf71e18b4a",
	}
	if !reflect.DeepEqual(st.completed, want) {
		t.Errorf("completed %v, want %v", st.completed, want)
	}
}

// FuzzReplayWAL: no input may panic the replayer or make it error, and
// every completed shard it reports must lie inside the journaled
// windows and name a digest.
func FuzzReplayWAL(f *testing.F) {
	f.Add([]byte(parentWAL))
	f.Add([]byte(parentWAL[:strings.Index(parentWAL, "\n")+1]))
	f.Add([]byte(`{"t":"complete","shard":0,"digest":"ab"}` + "\n"))
	f.Add([]byte(`{"t":"campaign","spec":{},"shards":[[0,1]]}` + "\n" + `{"t":"complete","shard":-1,"digest":"ab"}` + "\n" + `{"t":"complete","shard":1,"digest":"ab"}`))
	f.Add([]byte("\x00\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		st, err := replayWAL(path)
		if err != nil {
			t.Fatalf("replay must tolerate any content, got %v", err)
		}
		if st == nil {
			return
		}
		if len(st.spec) == 0 || len(st.windows) == 0 {
			t.Fatalf("campaign replayed without spec or windows: %+v", st)
		}
		for idx, digest := range st.completed {
			if idx < 0 || idx >= len(st.windows) || digest == "" {
				t.Fatalf("completed shard %d (digest %q) outside %d windows", idx, digest, len(st.windows))
			}
		}
	})
}

// Tokens become filenames; anything exotic must be hashed, not trusted.
func TestSanitizeToken(t *testing.T) {
	if got := sanitizeToken("ok-token_1.2"); got != "ok-token_1.2" {
		t.Errorf("clean token rewritten to %q", got)
	}
	for _, bad := range []string{"../../etc/passwd", "a b", strings.Repeat("x", 200), ""} {
		got := sanitizeToken(bad)
		if strings.ContainsAny(got, "/\\ ") || len(got) != 32 {
			t.Errorf("sanitizeToken(%q) = %q, want a 32-char hash", bad, got)
		}
	}
}
