package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"reese/internal/cluster"
	"reese/internal/fault"
	"reese/internal/harness"
	"reese/internal/server"
)

// clusterDef is the cluster-open workload: an open loop of small
// campaign requests to a coordinator (WAL on) over in-process
// reese-serve replicas on loopback.
type clusterDef struct {
	Pairs []struct {
		Program    string   `json:"program"`
		Machine    string   `json:"machine"`
		Structures []string `json:"structures"`
	} `json:"pairs"`
	Injections  int     `json:"injections"`
	TargetInsts uint64  `json:"target_insts"`
	RatePerS    float64 `json:"rate_per_s"`
	// RepeatShare of requests, chosen by the seed, exactly repeat the
	// spec sent RepeatLag requests earlier.
	RepeatShare    float64 `json:"repeat_share"`
	RepeatLag      int     `json:"repeat_lag"`
	LatencyLimitMS float64 `json:"latency_limit_ms"`
	ClientConns    int     `json:"client_conns"`
	Replicas       int     `json:"replicas"`
	ServerWorkers  int     `json:"server_workers"`
	// CheckSample is how many of the first requests are captured and
	// compared, after timing, with in-process campaigns.
	CheckSample int `json:"check_sample"`
}

const (
	hdrSpan = "X-Perfbench-Span"
	hdrReq  = "X-Perfbench-Request"
)

type captureKey struct{}

// rig is the in-process topology: replicas, a coordinator, and the
// generator's client. Its transport and handler wrappers carry the span
// id and the captured-request index across HTTP hops.
type rig struct {
	tr      *tracer // set before traffic starts; nil = untraced
	servers []*server.Server
	https   []*httptest.Server
	workers []string
	coord   string
	walDir  string
	client  *http.Client
	hooks   shardHooks

	mu       sync.Mutex
	captures map[int]map[int][]byte // request -> shard offset -> ShardPayload JSON
}

// shardHooks is the cluster.Hooks the benchmark supplies.
type shardHooks struct {
	mu                             sync.Mutex
	shardSecs                      []float64
	retried, reassigned, corrupted atomic.Int64
}

func (h *shardHooks) ShardAssigned() {}
func (h *shardHooks) ShardCompleted(s float64) {
	h.mu.Lock()
	h.shardSecs = append(h.shardSecs, s)
	h.mu.Unlock()
}
func (h *shardHooks) ShardRetried()     { h.retried.Add(1) }
func (h *shardHooks) ShardReassigned()  { h.reassigned.Add(1) }
func (h *shardHooks) ShardCorrupted()   { h.corrupted.Add(1) }
func (h *shardHooks) WorkerReadmitted() {}
func (h *shardHooks) CampaignResumed()  {}
func (h *shardHooks) ShardRestored()    {}

// route names a request path as a metric suffix.
func route(path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/jobs/"):
		return "v1_jobs_id"
	case path == "/v1/faults/batch":
		return "v1_faults_batch"
	case path == "/v1/cluster/faults":
		return "v1_cluster_faults"
	case path == "/readyz":
		return "readyz"
	}
	return "other"
}

type rigTransport struct {
	r    *rig
	base http.RoundTripper
}

func (t rigTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx := req.Context()
	rt := route(req.URL.Path)
	sp := spanFrom(ctx).child("http.client." + rt)
	req = req.Clone(ctx)
	if sp.t != nil {
		req.Header.Set(hdrSpan, strconv.FormatInt(sp.id, 10))
	}
	idx, capturing := ctx.Value(captureKey{}).(int)
	if capturing {
		req.Header.Set(hdrReq, strconv.Itoa(idx))
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.end()
		return nil, err
	}
	if capturing && (rt == "v1_jobs_id" || rt == "v1_faults_batch") {
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			sp.end()
			return nil, err
		}
		t.r.capture(idx, rt, body)
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

// spanBody ends the client span when the caller closes the body, so
// the span covers reading the response.
type spanBody struct {
	io.ReadCloser
	sp   spanRef
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.sp.end)
	return err
}

// capture keeps every finished shard payload a captured request's
// coordinator received, keyed by shard offset.
func (r *rig) capture(idx int, rt string, body []byte) {
	var views []server.JobView
	if rt == "v1_jobs_id" {
		var v server.JobView
		if json.Unmarshal(body, &v) == nil {
			views = append(views, v)
		}
	} else {
		var br server.BatchResponse
		if json.Unmarshal(body, &br) == nil {
			for _, it := range br.Items {
				if it.Job != nil {
					views = append(views, *it.Job)
				}
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, v := range views {
		if v.State != server.StateDone || len(v.Result) == 0 {
			continue
		}
		var p struct {
			Report struct {
				Shard *harness.ShardRange `json:"shard"`
			} `json:"report"`
		}
		if json.Unmarshal(v.Result, &p) != nil || p.Report.Shard == nil {
			continue
		}
		if r.captures[idx] == nil {
			r.captures[idx] = map[int][]byte{}
		}
		if _, ok := r.captures[idx][p.Report.Shard.Offset]; !ok {
			r.captures[idx][p.Report.Shard.Offset] = v.Result
		}
	}
}

// wrap opens a span named name+"."+route under the caller's span (from
// the header) and passes span and capture index on in the context.
func (r *rig) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		ctx := req.Context()
		if v := req.Header.Get(hdrReq); v != "" {
			if idx, err := strconv.Atoi(v); err == nil {
				ctx = context.WithValue(ctx, captureKey{}, idx)
			}
		}
		if v := req.Header.Get(hdrSpan); v != "" && r.tr != nil {
			if parent, err := strconv.ParseInt(v, 10, 64); err == nil {
				sp := r.tr.begin(parent, name+"."+route(req.URL.Path))
				defer sp.end()
				ctx = withSpan(ctx, sp)
			}
		}
		h.ServeHTTP(w, req.WithContext(ctx))
	})
}

func newRig(d clusterDef) (*rig, error) {
	r := &rig{captures: map[int]map[int][]byte{}}
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	for i := 0; i < d.Replicas; i++ {
		s, err := server.New(server.Config{Workers: d.ServerWorkers, Logger: log})
		if err != nil {
			r.close()
			return nil, err
		}
		r.servers = append(r.servers, s)
		ts := httptest.NewServer(r.wrap("server.handler", s.Handler()))
		r.https = append(r.https, ts)
		r.workers = append(r.workers, ts.URL)
	}
	dir, err := os.MkdirTemp("", "perfbench-wal-")
	if err != nil {
		r.close()
		return nil, err
	}
	r.walDir = dir
	coordClient := &http.Client{Timeout: 120 * time.Second, Transport: rigTransport{r, http.DefaultTransport}}
	h := cluster.Handler(cluster.Config{
		Workers: r.workers,
		Client:  coordClient,
		Metrics: &r.hooks,
		Logger:  log,
		WALDir:  dir,
	})
	ts := httptest.NewServer(r.wrap("cluster.coordinator", h))
	r.https = append(r.https, ts)
	r.coord = ts.URL
	r.client = &http.Client{
		Timeout:   120 * time.Second,
		Transport: rigTransport{r, &http.Transport{MaxConnsPerHost: d.ClientConns, MaxIdleConnsPerHost: d.ClientConns}},
	}
	return r, nil
}

func (r *rig) close() {
	for _, ts := range r.https {
		ts.Close()
	}
	for _, s := range r.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = s.Shutdown(ctx)
		cancel()
	}
	if r.walDir != "" {
		os.RemoveAll(r.walDir)
	}
}

// request sends one campaign to the coordinator and reads the stream
// to its final frame, returning the merged report's JSON.
func (r *rig) request(ctx context.Context, c cluster.Campaign) (json.RawMessage, error) {
	body, err := json.Marshal(c)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.coord+"/v1/cluster/faults", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("coordinator: %s", resp.Status)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	var final struct {
		Type   string          `json:"type"`
		Report json.RawMessage `json:"report"`
		Err    string          `json:"err"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &final); err != nil {
		return nil, fmt.Errorf("coordinator final frame: %w", err)
	}
	if final.Type != "result" {
		return nil, fmt.Errorf("coordinator: %s", final.Err)
	}
	return final.Report, nil
}

// serverStats sums the replicas' job queue wait, attempt time and cache
// counters from /metrics.
type serverStats struct {
	queueSum, queueN, attemptSum, attemptN, hits, misses float64
}

func (r *rig) scrape() (serverStats, error) {
	var st serverStats
	for _, u := range r.workers {
		resp, err := http.Get(u + "/metrics")
		if err != nil {
			return st, err
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			name, val, ok := strings.Cut(line, " ")
			if !ok || strings.HasPrefix(line, "#") {
				continue
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				continue
			}
			base, _, _ := strings.Cut(name, "{")
			switch base {
			case "reese_serve_job_queue_wait_seconds_sum":
				st.queueSum += v
			case "reese_serve_job_queue_wait_seconds_count":
				st.queueN += v
			case "reese_serve_job_attempt_seconds_sum":
				st.attemptSum += v
			case "reese_serve_job_attempt_seconds_count":
				st.attemptN += v
			case "reese_serve_cache_hits_total":
				st.hits += v
			case "reese_serve_cache_misses_total":
				st.misses += v
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return st, err
		}
	}
	return st, nil
}

func (s serverStats) minus(o serverStats) serverStats {
	return serverStats{s.queueSum - o.queueSum, s.queueN - o.queueN, s.attemptSum - o.attemptSum,
		s.attemptN - o.attemptN, s.hits - o.hits, s.misses - o.misses}
}

type clusterBench struct {
	def  clusterDef
	seed uint64
	rig  *rig
	tr   *tracer
	m    *measurement
	// reports holds the coordinator's merged report of each captured
	// request; specs every request's campaign.
	reports map[int]json.RawMessage
	specs   []cluster.Campaign
	before  serverStats
}

func (d clusterDef) campaign(k int, seed uint64) (cluster.Campaign, error) {
	p := d.Pairs[k%len(d.Pairs)]
	m, err := machineByName(p.Machine)
	if err != nil {
		return cluster.Campaign{}, err
	}
	return cluster.Campaign{
		Workload:    p.Program,
		Machine:     &m,
		Structures:  p.Structures,
		Injections:  d.Injections,
		Seed:        seed,
		TargetInsts: d.TargetInsts,
	}, nil
}

// plan fixes request i's campaign: a seeded share repeat the campaign
// RepeatLag requests earlier; the rest are fresh seeds, rotating among
// the pairs.
func (b *clusterBench) plan(n int) error {
	b.specs = b.specs[:0]
	for i := 0; i < n; i++ {
		u := float64(splitmix(b.seed<<32^uint64(i)^0xC0FFEE)>>11) / (1 << 53)
		if i >= b.def.RepeatLag && u < b.def.RepeatShare {
			b.specs = append(b.specs, b.specs[i-b.def.RepeatLag])
			continue
		}
		c, err := b.def.campaign(i, splitmix(b.seed<<20^uint64(i)))
		if err != nil {
			return err
		}
		b.specs = append(b.specs, c)
	}
	return nil
}

// setUp starts the topology and sends one warm-up request per pair, so
// every pair's golden run and checkpoint chain is built.
func (b *clusterBench) setUp() error {
	r, err := newRig(b.def)
	if err != nil {
		return err
	}
	b.rig = r
	for k := range b.def.Pairs {
		c, err := b.def.campaign(k, splitmix(^b.seed^uint64(k)))
		if err != nil {
			return err
		}
		if _, err := r.request(context.Background(), c); err != nil {
			return fmt.Errorf("warm-up %s: %w", c.Workload, err)
		}
	}
	return nil
}

func (b *clusterBench) tearDown() {
	if b.rig != nil {
		b.rig.close()
		b.rig = nil
	}
}

// do sends request i; traced requests run under a root span "request".
func (b *clusterBench) do(i int, traced bool) error {
	ctx := context.Background()
	var root spanRef
	if traced {
		root = b.tr.begin(0, "request")
		ctx = withSpan(ctx, root)
	}
	if i < b.def.CheckSample {
		ctx = context.WithValue(ctx, captureKey{}, i)
	}
	rep, err := b.rig.request(ctx, b.specs[i])
	root.end()
	if err == nil && i < b.def.CheckSample {
		b.rig.mu.Lock()
		b.reports[i] = rep
		b.rig.mu.Unlock()
	}
	return err
}

// measure drives the open loop: request i is due at i/rate seconds, is
// handed to one of ClientConns client goroutines, and is timed from its
// due time. With a tracer, every request is traced.
func (b *clusterBench) measure(seconds float64, tr *tracer) (*measurement, error) {
	b.tr, b.rig.tr = tr, tr
	b.reports = map[int]json.RawMessage{}
	n := int(seconds * b.def.RatePerS)
	if n < 1 {
		n = 1
	}
	if err := b.plan(n); err != nil {
		return nil, err
	}
	before, err := b.rig.scrape()
	if err != nil {
		return nil, err
	}
	b.before = before
	m := &measurement{ops: make([]op, n), limit: b.def.LatencyLimitMS / 1e3}
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < b.def.ClientConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				err := b.do(j.i, tr != nil)
				m.ops[j.i].lat = time.Since(j.due).Seconds()
				m.ops[j.i].ok = err == nil
				m.ops[j.i].work = 1
				if err != nil {
					fmt.Fprintln(os.Stderr, "perfbench: request", j.i, err)
				}
			}
		}()
	}
	due := func(i int) time.Duration { return time.Duration(float64(i) / b.def.RatePerS * float64(time.Second)) }
	for i := 0; i < n; i++ {
		at := start.Add(due(i))
		time.Sleep(time.Until(at))
		m.ops[i].late = time.Since(at).Seconds()
		jobs <- job{i, at}
	}
	close(jobs)
	wg.Wait()
	// The schedule runs from the first due time to the last completion.
	for i, o := range m.ops {
		m.span = max(m.span, due(i).Seconds()+o.lat)
	}
	b.m = m
	return m, nil
}

// check compares each captured request, after timing, with an
// in-process harness.Campaign on the same spec: the coordinator's merged
// report, and the shard payloads the coordinator received merged here
// with harness.MergeReports, must match it byte for byte (report JSON and
// per-trial JSONL). It also fills the cluster latency split.
func (b *clusterBench) check(tr *tracer) (attempted, failed int, err error) {
	after, err := b.rig.scrape()
	if err != nil {
		return 0, 0, err
	}
	srv := after.minus(b.before)
	var computeFrac, digests, merges, shards []float64
	for i := 0; i < b.def.CheckSample && i < len(b.specs); i++ {
		attempted += 3
		c := b.specs[i]
		spec, err := harnessSpec(c)
		if err != nil {
			return attempted, failed, err
		}
		t0 := time.Now()
		want, err := harness.Campaign(spec, harness.Options{Parallel: 2})
		compute := time.Since(t0).Seconds()
		if err != nil {
			return attempted, failed, err
		}
		if i < len(b.m.ops) && b.m.ops[i].ok {
			computeFrac = append(computeFrac, compute/b.m.ops[i].lat)
		}
		wantJSON, wantJSONL, err := canonicalReport(want)
		if err != nil {
			return attempted, failed, err
		}
		// The coordinator's merged report.
		var coord harness.CampaignReport
		if json.Unmarshal(b.reports[i], &coord) != nil {
			failed++
		} else if got, _, err := canonicalReport(&coord); err != nil || !bytes.Equal(got, wantJSON) {
			failed++
		}
		// The shard payloads, digested and merged here.
		b.rig.mu.Lock()
		payloads := b.rig.captures[i]
		b.rig.mu.Unlock()
		offsets := make([]int, 0, len(payloads))
		for off := range payloads {
			offsets = append(offsets, off)
		}
		sort.Ints(offsets)
		var reports []*harness.CampaignReport
		digestOK := true
		for _, off := range offsets {
			var p server.ShardPayload
			if err := json.Unmarshal(payloads[off], &p); err != nil {
				digestOK = false
				continue
			}
			t0 := time.Now()
			d, err := p.CanonicalDigest()
			digests = append(digests, time.Since(t0).Seconds())
			if err != nil || d != p.Digest {
				digestOK = false
			}
			rep := p.Report
			rep.Trials = p.Trials
			reports = append(reports, &rep)
		}
		shards = append(shards, float64(len(offsets)))
		if !digestOK {
			failed++
		}
		t0 = time.Now()
		merged, err := harness.MergeReports(reports)
		merges = append(merges, time.Since(t0).Seconds())
		if err != nil {
			failed++
			continue
		}
		gotJSON, gotJSONL, err := canonicalReport(merged)
		if err != nil || !bytes.Equal(gotJSON, wantJSON) || !bytes.Equal(gotJSONL, wantJSONL) {
			failed++
		}
	}
	if tr != nil {
		b.m.split = clusterSplit(tr, srv, &b.rig.hooks, computeFrac, digests, merges, shards)
	}
	return attempted, failed, nil
}

func harnessSpec(c cluster.Campaign) (harness.CampaignSpec, error) {
	spec := harness.CampaignSpec{
		Workload:           c.Workload,
		Machine:            *c.Machine,
		Injections:         c.Injections,
		Seed:               c.Seed,
		TargetInsts:        c.TargetInsts,
		CheckpointInterval: c.CheckpointInterval,
	}
	for _, name := range c.Structures {
		st, ok := fault.ParseStruct(name)
		if !ok {
			return spec, fmt.Errorf("unknown structure %q", name)
		}
		spec.Structures = append(spec.Structures, st)
	}
	return spec, nil
}

// canonicalReport renders a report without its host-dependent wall-time
// fields, plus its per-trial JSONL.
func canonicalReport(r *harness.CampaignReport) (report, jsonl []byte, err error) {
	c := *r
	c.WallSeconds, c.InjectionsPerSec = 0, 0
	if report, err = json.Marshal(&c); err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	err = c.WriteJSONL(&buf)
	return report, buf.Bytes(), err
}

// clusterSplit divides the traced requests' wall time, exactly, into
// in-process compute, worker queue wait, HTTP client and handler time,
// payload digests, the merge, and the unattributed rest. The span tree
// partitions each request among HTTP calls to the workers (client and
// handler time), the coordinator's own time, and the generator's; the
// coordinator waits on workers inside the HTTP part, so compute (an
// in-process campaign of the same spec over the request's latency) and
// queue wait (mean per shard job, from /metrics) are taken out of it,
// and digest and merge out of the coordinator's own time. What remains
// of the coordinator's time — WAL fsync, polling, scheduling — and the
// generator's is unattributed.
func clusterSplit(tr *tracer, srv serverStats, hooks *shardHooks, computeFrac, digests, merges, shards []float64) map[string]metric {
	spans := tr.snapshot()
	a := attribute(spans)
	if a.wall == 0 {
		return nil
	}
	var n float64
	for _, s := range spans {
		if s.parent == 0 && s.name == "request" {
			n++
		}
	}
	meanLat := a.wall / n
	waiting := (a.layers["http"] + a.layers["server"]) / a.wall
	compute := min(waiting, median(computeFrac))
	queue := min(waiting-compute, ratio(srv.queueSum, srv.queueN)/meanLat)
	coord := a.layers["cluster"] / a.wall
	digest := min(coord, median(shards)*median(digests)/meanLat)
	merge := min(coord-digest, median(merges)/meanLat)
	out := map[string]metric{}
	frac := func(v float64) metric { return metric{v, "frac"} }
	out["cluster.overhead_frac"] = frac(1 - median(computeFrac))
	out["cluster.split.compute_frac"] = frac(compute)
	out["cluster.split.queue_frac"] = frac(queue)
	out["cluster.split.http_frac"] = frac(waiting - compute - queue)
	out["cluster.split.digest_frac"] = frac(digest)
	out["cluster.split.merge_frac"] = frac(merge)
	out["cluster.split.unattributed_frac"] = frac(coord - digest - merge + a.rootSelf/a.wall)
	out["server.queue_wait_s"] = metric{ratio(srv.queueSum, srv.queueN), "s"}
	out["server.attempt_s"] = metric{ratio(srv.attemptSum, srv.attemptN), "s"}
	out["server.cache_hit_frac"] = frac(ratio(srv.hits, srv.hits+srv.misses))
	hooks.mu.Lock()
	out["cluster.shard_s"] = metric{median(hooks.shardSecs), "s"}
	hooks.mu.Unlock()
	out["cluster.shards_retried"] = metric{float64(hooks.retried.Load()), "count"}
	out["cluster.shards_reassigned"] = metric{float64(hooks.reassigned.Load()), "count"}
	out["cluster.shards_corrupted"] = metric{float64(hooks.corrupted.Load()), "count"}
	out["cluster.digest_us"] = metric{median(digests) * 1e6, "us"}
	out["cluster.merge_ms"] = metric{median(merges) * 1e3, "ms"}
	return out
}
