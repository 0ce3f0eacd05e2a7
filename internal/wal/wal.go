// Package wal is the write-ahead log behind reese-serve's job journal
// and the cluster coordinator's campaign journals. It owns durability
// and nothing else: one fsync'd JSON line per record, replay that stops
// at the first undecodable line (the torn tail of a crash mid-append),
// atomic file replacement, and an fsync of the parent directory after
// a log is opened and after every rename. Callers own the record type
// and the fold over replayed records.
package wal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// Log is an append handle on one JSON-lines log of R records. Its
// methods are safe for concurrent use and on a nil *Log (logging
// disabled).
type Log[R any] struct {
	path string

	mu sync.Mutex
	f  *os.File // nil once closed
}

// Open opens the log at path for appending, creating it if needed.
func Open[R any](path string) (*Log[R], error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return &Log[R]{path: path, f: f}, nil
}

// Append writes rec as one line and fsyncs it, so an acknowledged
// record survives power loss. After Kill or Close it drops rec.
func (l *Log[R]) Append(rec R) error {
	if l == nil {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	if _, err := l.f.Write(append(line, '\n')); err != nil {
		return err
	}
	return l.f.Sync()
}

// Rewrite atomically replaces the log's contents with recs and leaves
// the handle appendable. After Kill or Close it does nothing.
func (l *Log[R]) Rewrite(recs []R) error {
	if l == nil {
		return nil
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf) // same bytes as json.Marshal, plus '\n'
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	if err := WriteFile(l.path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	l.f.Close()
	var err error
	l.f, err = os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	return err
}

// Kill simulates a hard process death: later Appends and Rewrites
// vanish, leaving the file as a SIGKILL would. With every Append
// already synced, that is exactly Close.
func (l *Log[R]) Kill() { l.Close() }

// Close releases the file handle; every record is already synced.
// Later Appends and Rewrites are dropped.
func (l *Log[R]) Close() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
}

// Replay calls fn with each record of the log at path, in order, until
// fn returns false or a line does not decode as an R (a torn tail, or
// a line over 16 MiB). A missing file holds no records.
func Replay[R any](path string, fn func(R) bool) error {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24) // records can carry full machine configs
	for sc.Scan() {
		var rec R
		if json.Unmarshal(sc.Bytes(), &rec) != nil || !fn(rec) {
			break
		}
	}
	return nil
}

// WriteFile durably replaces path with data through a temp file of
// its own in the same directory: readers see the old file or the whole
// new one, and concurrent writers of one path never share a temp file.
func WriteFile(path string, data []byte, perm fs.FileMode) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(perm)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so entries created or renamed in it
// survive power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
