package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

type rec struct {
	N int    `json:"n"`
	S string `json:"s,omitempty"`
}

func replayAll(t *testing.T, path string) []rec {
	t.Helper()
	var out []rec
	if err := Replay(path, func(r rec) bool { out = append(out, r); return true }); err != nil {
		t.Fatal(err)
	}
	return out
}

// Concurrent appends each land as one whole line, all of them replay,
// and a torn or garbage tail ends replay without losing the prefix.
func TestAppendReplayTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	l, err := Open[rec](path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := l.Append(rec{N: g*100 + i, S: "x"}); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	l.Close()
	if got := replayAll(t, path); len(got) != 100 {
		t.Fatalf("replayed %d records, want 100", len(got))
	}

	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tail := range []string{`{"n":7,"s":"tor`, "\x00\xff", "\n" + `{"n":1}`} {
		if err := os.WriteFile(path, append(bytes.Clone(good), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		if got := replayAll(t, path); len(got) != 100 {
			t.Errorf("tail %q: replayed %d records, want the 100 before it", tail, len(got))
		}
	}
}

// Replay stops when the callback says so; a missing file has no
// records; a nil Log accepts every call.
func TestReplayStopAndMissing(t *testing.T) {
	dir := t.TempDir()
	if got := replayAll(t, filepath.Join(dir, "absent.wal")); len(got) != 0 {
		t.Errorf("missing file replayed %v", got)
	}
	path := filepath.Join(dir, "log.wal")
	if err := os.WriteFile(path, []byte("{\"n\":1}\n{\"n\":2}\n{\"n\":3}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var seen []int
	if err := Replay(path, func(r rec) bool { seen = append(seen, r.N); return r.N < 2 }); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(seen) != "[1 2]" {
		t.Errorf("stopped replay saw %v, want [1 2]", seen)
	}

	var nilLog *Log[rec]
	if err := nilLog.Append(rec{}); err != nil {
		t.Error(err)
	}
	if err := nilLog.Rewrite([]rec{{N: 1}}); err != nil {
		t.Error(err)
	}
	nilLog.Kill()
	nilLog.Close()
}

// Rewrite replaces the contents and leaves the handle appendable; after
// Kill, appends and rewrites leave the file as it was.
func TestRewriteAndKill(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	l, err := Open[rec](path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := l.Append(rec{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rewrite([]rec{{N: 9}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec{N: 10}); err != nil {
		t.Fatal(err)
	}
	l.Kill()
	if err := l.Append(rec{N: 11}); err != nil {
		t.Fatal(err)
	}
	if err := l.Rewrite(nil); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if got := fmt.Sprint(replayAll(t, path)); got != "[{9 } {10 }]" {
		t.Errorf("replayed %s, want [{9 } {10 }]", got)
	}
	if tmps, _ := filepath.Glob(path + ".*.tmp"); len(tmps) != 0 {
		t.Errorf("rewrite left temp files: %v", tmps)
	}
}

// Concurrent WriteFiles of one path never share a temp file: the
// result is one writer's whole contents and no temp file survives.
func TestWriteFileConcurrent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "payload.json")
	data := bytes.Repeat([]byte("0123456789abcdef"), 4096)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := WriteFile(path, data, 0o644); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("file holds %d bytes, want the %d written", len(got), len(data))
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Errorf("mode %v (%v), want 0644", fi.Mode(), err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("directory holds %d entries, want only the file", len(entries))
	}

	// A path that cannot be replaced fails and leaves no temp file.
	blocked := filepath.Join(dir, "blocked")
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(blocked, data, 0o644); err == nil {
		t.Error("WriteFile over a directory succeeded")
	}
	if tmps, _ := filepath.Glob(blocked + ".*.tmp"); len(tmps) != 0 {
		t.Errorf("failed write left temp files: %v", tmps)
	}
}
