package main

// Span recording for the traced run. Spans are taken only here, in the
// benchmark, around calls into the program's public functions; nothing
// inside the program is instrumented. A span's name is
// "<layer>.<operation>", and its layer is the part before the first dot.

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type span struct {
	id, parent int64
	name       string
	start, end time.Duration // since traceEpoch
}

func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i >= 0 {
		return s.name[:i]
	}
	return s.name
}

// Every tracer in the process shares one clock and one id space, so the
// spans of several tracers can be attributed together.
var (
	traceEpoch = time.Now()
	spanIDs    atomic.Int64
)

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pass nil.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{} }

// spanRef is an open span; end closes it. The zero spanRef is inert.
type spanRef struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  time.Duration
}

// begin opens a span under parent (0 for a root).
func (t *tracer) begin(parent int64, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{t: t, id: spanIDs.Add(1), parent: parent, name: name, start: time.Since(traceEpoch)}
}

func (s spanRef) end() {
	if s.t == nil {
		return
	}
	e := time.Since(traceEpoch)
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{id: s.id, parent: s.parent, name: s.name, start: s.start, end: e})
	s.t.mu.Unlock()
}

// child opens a span under s (a root when s is inert but t is not).
func (s spanRef) child(name string) spanRef {
	if s.t == nil {
		return spanRef{}
	}
	return s.t.begin(s.id, name)
}

type spanKey struct{}

func withSpan(ctx context.Context, s spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

func spanFrom(ctx context.Context) spanRef {
	s, _ := ctx.Value(spanKey{}).(spanRef)
	return s
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the lengths in seconds of every span whose name
// is name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// isOpRoot reports whether a root span stands for one timed operation
// ("unit" in closed loops, "request" in the open loop). Time inside one
// that no layer span covers is unattributed. Any other root is itself a
// call into a layer, as the layer probe's are.
func isOpRoot(name string) bool { return name == "unit" || name == "request" }

// attribution splits the wall time of every root span among layers.
// A span's self time is its length minus the part of it its children
// cover. Children that overlap in time (concurrent requests) share the
// covered part in proportion to their lengths, so the layer totals of
// one root always add up to that root's length; an operation root's own
// self time is the time no layer span covers.
type attribution struct {
	wall     float64            // sum of root span lengths, seconds
	layers   map[string]float64 // layer -> attributed seconds
	rootSelf float64            // time in operation roots no layer span covers
	// orphans counts spans whose parent never closed: time they cover is
	// not in any root, so it is missing from the attribution.
	orphans int
}

func attribute(spans []span) attribution {
	kids := map[int64][]span{}
	ids := map[int64]bool{}
	for _, s := range spans {
		ids[s.id] = true
	}
	a := attribution{layers: map[string]float64{}}
	var roots []span
	for _, s := range spans {
		switch {
		case s.parent == 0:
			roots = append(roots, s)
		case ids[s.parent]:
			kids[s.parent] = append(kids[s.parent], s)
		default:
			a.orphans++
		}
	}
	var walk func(s span, lo, hi time.Duration, weight float64, isRoot bool)
	walk = func(s span, lo, hi time.Duration, weight float64, isRoot bool) {
		lo, hi = max(lo, s.start), min(hi, s.end)
		if hi <= lo {
			return
		}
		cs := kids[s.id]
		var ivs [][2]time.Duration
		var sum time.Duration
		for _, c := range cs {
			cl, ch := max(lo, c.start), min(hi, c.end)
			if ch > cl {
				ivs = append(ivs, [2]time.Duration{cl, ch})
				sum += ch - cl
			}
		}
		covered := unionLen(ivs)
		self := (hi - lo - covered).Seconds() * weight
		if isRoot && isOpRoot(s.name) {
			a.rootSelf += self
		} else {
			a.layers[s.layer()] += self
		}
		if sum > 0 {
			w := weight * covered.Seconds() / sum.Seconds()
			for _, c := range cs {
				walk(c, lo, hi, w, false)
			}
		}
	}
	for _, r := range roots {
		a.wall += (r.end - r.start).Seconds()
		walk(r, r.start, r.end, 1, true)
	}
	return a
}

func unionLen(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, iv := range ivs {
		if !open || iv[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = iv[0], iv[1], true
			continue
		}
		curHi = max(curHi, iv[1])
	}
	if open {
		total += curHi - curLo
	}
	return total
}
