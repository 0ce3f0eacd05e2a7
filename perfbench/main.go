// Command perfbench is the repository's benchmark: four workloads that
// exercise the simulator, the fault-campaign engine and the serving
// cluster, each timed end to end with its outputs checked. Run it from
// the repository root through run.sh:
//
//	bash perfbench/run.sh --workload sim-figure --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same work
// with spans around every call into the program and prints per-layer
// metrics instead. The last line of standard output is the result
// object; the line before it is the full record, which carries the host
// fingerprint and the workload definition hash. `perfbench compare`
// reads saved records and refuses to compare across hosts or
// definitions (see compare.go). README.md lists the workloads.
package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

//go:embed workloads.json
var definitionsJSON []byte

// setupRuns is how many cold set-ups one run times (this process plus
// setupRuns-1 fresh child processes, since in-process memos make only
// the first set-up in a process cold); setup_s is their median.
const setupRuns = 5

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(run())
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full result with what a comparison must match on.
type record struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	Host       hostFingerprint   `json:"host"`
	Definition string            `json:"definition_sha256"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
}

// hostFingerprint identifies the machine a number was measured on.
type hostFingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
}

func fingerprint() hostFingerprint {
	return hostFingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
	}
}

// cpuModel reads the CPU model name the kernel reports ("unknown" where
// /proc/cpuinfo is unavailable).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// definitions returns every workload's definition and its hash: the
// sha256 of the definition's compact JSON, so any change to a
// workload's inputs or recorded outputs changes the hash.
func definitions() (map[string]json.RawMessage, map[string]string, error) {
	var defs map[string]json.RawMessage
	if err := json.Unmarshal(definitionsJSON, &defs); err != nil {
		return nil, nil, fmt.Errorf("workloads.json: %w", err)
	}
	hashes := map[string]string{}
	for name, raw := range defs {
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, nil, err
		}
		compact, _ := json.Marshal(v)
		sum := sha256.Sum256(compact)
		hashes[name] = hex.EncodeToString(sum[:])
	}
	return defs, hashes, nil
}

// bench is one workload.
type bench interface {
	// setUp does everything before timing starts, cold.
	setUp() error
	// measure runs the timed loop for the given seconds, with spans when
	// it is given a tracer.
	measure(seconds float64, tr *tracer) (*measurement, error)
	// check verifies outputs after timing and returns how many checks
	// ran and how many failed.
	check(tr *tracer) (attempted, failed int, err error)
	// tearDown releases what setUp started; calling it twice is safe.
	tearDown()
}

// op is one timed operation.
type op struct {
	lat  float64 // seconds, from when it was due
	work float64 // units of work it completed
	ok   bool
	late float64 // seconds the generator started it after it was due
}

type measurement struct {
	ops []op
	// span is the schedule the throughput is taken over, seconds; 0
	// for closed loops, whose throughput is over the operations' own
	// time.
	span float64
	// pairs holds, for every operation a traced closed loop ran twice
	// (once with spans, once without), traced ÷ untraced latency.
	pairs []float64
	// limit, when set, counts an op toward throughput only if it
	// finished within it (goodput).
	limit float64
	// split holds workload-specific per-layer values (the cluster
	// latency split); nil elsewhere.
	split map[string]metric
}

func newBench(name string, raw json.RawMessage, seed uint64) (bench, error) {
	dec := func(v any) error {
		d := json.NewDecoder(strings.NewReader(string(raw)))
		d.DisallowUnknownFields()
		return d.Decode(v)
	}
	switch name {
	case "sim-figure":
		var d simDef
		if err := dec(&d); err != nil {
			return nil, err
		}
		return &simBench{def: d, seed: seed}, nil
	case "faults-splice", "faults-memory":
		var d faultsDef
		if err := dec(&d); err != nil {
			return nil, err
		}
		return &faultsBench{def: d, seed: seed}, nil
	case "cluster-open":
		var d clusterDef
		if err := dec(&d); err != nil {
			return nil, err
		}
		return &clusterBench{def: d, seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func run() int {
	var (
		name       = flag.String("workload", "", "workload name (see README.md)")
		seed       = flag.Uint64("seed", 1, "input seed")
		seconds    = flag.Float64("seconds", 10, "timed seconds")
		trace      = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		setupChild = flag.Bool("setup-child", false, "time one cold set-up, print its seconds and exit")
	)
	flag.Parse()
	defs, hashes, err := definitions()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	raw, ok := defs[*name]
	if !ok || *name == "probe" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	b, err := newBench(*name, raw, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *setupChild {
		t0 := time.Now()
		err := b.setUp()
		d := time.Since(t0).Seconds()
		b.tearDown()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			return 1
		}
		fmt.Println(strconv.FormatFloat(d, 'g', -1, 64))
		return 0
	}
	rec, err := runBench(b, *name, *seed, *seconds, *trace == 1, defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rec.Workload, rec.Seed, rec.Seconds = *name, *seed, *seconds
	rec.Host = fingerprint()
	rec.Definition = hashes[*name]
	line, _ := json.Marshal(map[string]record{"perfbench_record": *rec})
	fmt.Println(string(line))
	out, _ := json.Marshal(result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
	fmt.Println(string(out))
	return 0
}

func runBench(b bench, name string, seed uint64, seconds float64, traced bool, defs map[string]json.RawMessage) (*record, error) {
	rec := &record{Trace: traced, Metrics: map[string]metric{}}
	t0 := time.Now()
	if err := b.setUp(); err != nil {
		b.tearDown()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups := []float64{time.Since(t0).Seconds()}
	defer b.tearDown()
	if !traced {
		for i := 1; i < setupRuns; i++ {
			s, err := setupInChild(name, seed)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s)
		}
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	m, err := b.measure(seconds, tr)
	if err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	attempted, failed, err := b.check(tr)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	for _, o := range m.ops {
		attempted++
		if !o.ok {
			failed++
		}
	}
	rec.Attempted, rec.Failed = attempted, failed
	rec.Correct = failed == 0
	if !traced {
		// Measured once the workload is torn down, so it is what the
		// process keeps: the program's own memos, not the benchmark's
		// servers.
		b.tearDown()
		endToEnd(rec.Metrics, m, setups, liveHeapMiB())
		return rec, nil
	}
	var pd probeDef
	if err := json.Unmarshal(defs["probe"], &pd); err != nil {
		return nil, fmt.Errorf("probe definition: %w", err)
	}
	pa, pf, split, probeSpans, err := runProbe(pd, name == "cluster-open", defs["cluster-open"], seed, rec.Metrics)
	if err != nil {
		return nil, fmt.Errorf("layer probe: %w", err)
	}
	rec.Attempted += pa
	rec.Failed += pf
	rec.Correct = rec.Failed == 0
	if m.split == nil {
		m.split = split
	}
	perLayer(rec.Metrics, m, tr, probeSpans)
	return rec, nil
}

// setupInChild times one cold set-up in a fresh process.
func setupInChild(name string, seed uint64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10), "--setup-child")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// endToEnd fills the untraced run's metrics.
func endToEnd(out map[string]metric, m *measurement, setups []float64, heap float64) {
	var lats []float64
	var work, busy float64
	for _, o := range m.ops {
		if !o.ok {
			continue
		}
		lats = append(lats, o.lat*1e3)
		if m.limit == 0 || o.lat <= m.limit {
			work += o.work
		}
		busy += o.lat
	}
	span := m.span
	if span == 0 {
		span = busy
	}
	out["throughput_per_s"] = metric{work / span, "1/s"}
	out["latency_p50_ms"] = metric{percentile(lats, 50), "ms"}
	out["latency_p90_ms"] = metric{percentile(lats, 90), "ms"}
	out["setup_s"] = metric{median(setups), "s"}
	out["live_heap_mib"] = metric{heap, "MiB"}
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the linear-interpolated p-th percentile (0 for no data).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// splitmix is the seeded generator every workload derives its inputs
// from.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// closedLoop runs unit back to back for the given seconds: each unit is
// due when the previous one ends. With a tracer, every unit runs twice
// on the same input, once under a root span named "unit" and once
// untraced, the traced one first on even units and second on odd ones,
// so the pair's latency ratio is the cost of tracing the same work.
func closedLoop(seconds float64, tr *tracer, unit func(i int, root spanRef) (work float64, err error)) (*measurement, error) {
	m := &measurement{}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	prevEnd := time.Now()
	for i := 0; time.Now().Before(deadline); i++ {
		runs := []bool{false}
		if tr != nil {
			runs = []bool{i%2 == 0, i%2 != 0}
		}
		var lat [2]float64 // untraced, traced
		for _, traced := range runs {
			start := time.Now()
			var root spanRef
			if traced {
				root = tr.begin(0, "unit")
			}
			work, err := unit(i, root)
			root.end()
			if err != nil && !errors.Is(err, errCheck) {
				return nil, err
			}
			end := time.Now()
			o := op{lat: end.Sub(start).Seconds(), work: work, ok: err == nil, late: start.Sub(prevEnd).Seconds()}
			m.ops = append(m.ops, o)
			if traced {
				lat[1] = o.lat
			} else {
				lat[0] = o.lat
			}
			prevEnd = end
		}
		if tr != nil {
			m.pairs = append(m.pairs, lat[1]/lat[0])
		}
	}
	return m, nil
}

// errCheck marks an operation whose output failed its check: it counts
// as failed, and the run goes on.
var errCheck = errors.New("output check failed")

// layers are the modules a traced run attributes wall time to.
var layers = []string{"workload", "emu", "pipeline", "mem", "harness", "http", "server", "cluster"}

// perLayer fills the traced run's metrics beyond what the probe wrote:
// per-route HTTP times, the split of traced wall time among layers, the
// tracing overhead, and the generator's lateness. The split covers the
// workload's traced operations and the probe's calls together, so every
// layer has time in it on every workload.
func perLayer(out map[string]metric, m *measurement, tr *tracer, probeSpans []span) {
	spans := tr.snapshot()
	all := append(append([]span(nil), spans...), probeSpans...)
	for _, rt := range []string{"v1_cluster_faults", "v1_faults_batch", "v1_jobs_id", "readyz"} {
		out["http.client_ms."+rt] = metric{median(durations(all, "http.client."+rt)) * 1e3, "ms"}
	}
	for _, rt := range []string{"v1_faults_batch", "v1_jobs_id", "readyz"} {
		out["server.handler_ms."+rt] = metric{median(durations(all, "server.handler."+rt)) * 1e3, "ms"}
	}
	out["cluster.coordinator_ms"] = metric{median(durations(all, "cluster.coordinator.v1_cluster_faults")) * 1e3, "ms"}
	for k, v := range m.split {
		out[k] = v
	}

	a := attribute(all)
	for _, l := range layers {
		out["self_frac."+l] = metric{ratio(a.layers[l], a.wall), "frac"}
	}
	out["unattributed_frac"] = metric{ratio(a.rootSelf, a.wall), "frac"}
	out["orphan_spans"] = metric{float64(a.orphans), "count"}

	// An open loop has no same-work twin of a request (a repeat is
	// answered from the workers' cache), so only closed loops report the
	// tracing overhead.
	if len(m.pairs) > 0 {
		out["trace_overhead_frac"] = metric{median(m.pairs) - 1, "frac"}
	}
	var late []float64
	for _, o := range m.ops {
		late = append(late, o.late*1e3)
	}
	out["gen_late_ms"] = metric{median(late), "ms"}
}
