// Command benchjson converts `go test -bench` output on stdin into a
// JSON benchmark record and appends it to a tracking file, so the
// repository's performance trajectory accumulates across commits:
//
//	go test -run '^$' -bench BenchmarkSimThroughput -benchmem . | \
//	    go run ./cmd/benchjson -out BENCH_pipeline.json -label my-change
//
// The output file holds {"entries": [...]}; each entry is one benchmark
// line with its standard metrics (ns/op, B/op, allocs/op) and any
// custom b.ReportMetric values (e.g. sim-insts/s) keyed by unit.
//
// With -check -base <ref> the tool becomes a same-host regression gate
// instead: it extracts <ref> with `git archive` into a temporary
// directory, builds the tracked benchmarks there and in the working
// tree, and runs the two binaries interleaved 7 times on this host.
// It exits 1 if the median head/base ratio of sim-insts/s or
// injections/s dropped more than -max-regress percent, if the head's
// allocs/op grew past the newest tracked entry (allocations do not
// depend on the host, so they compare with the record), or if a head
// benchmark has no tracked entry at all (a renamed or new benchmark is
// recorded in the change that introduces it). A benchmark the base
// lacks skips only the throughput comparison. Nothing is
// appended in this mode — it is what `make bench-smoke` and CI run on
// every change. Throughput is never compared with a number recorded on
// another host.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Entry is one parsed benchmark result line.
type Entry struct {
	Label   string             `json:"label,omitempty"`
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"`
}

// File is the tracking file's shape.
type File struct {
	Entries []Entry `json:"entries"`
}

// trackedBench selects the benchmarks `make bench` records and -check
// gates.
const trackedBench = "BenchmarkSimThroughput|BenchmarkCampaignThroughput"

// rounds is how many times -check runs base and head, interleaved.
const rounds = 7

func main() {
	var (
		out        = flag.String("out", "BENCH_pipeline.json", "tracking file to append to (or to read recorded allocs/op from with -check)")
		label      = flag.String("label", "", "label stored with each entry (e.g. a change description)")
		check      = flag.Bool("check", false, "gate the working tree against -base on this host; exit 1 on regression, append nothing")
		base       = flag.String("base", "", "git ref the -check gate compares against (e.g. HEAD, origin/main)")
		maxRegress = flag.Float64("max-regress", 5, "percent median throughput drop tolerated in -check mode")
	)
	flag.Parse()
	var err error
	switch {
	case *check && *base == "":
		err = fmt.Errorf("-check needs -base <ref>: throughput is only compared on one host")
	case *check:
		err = runCheck(*out, *base, *maxRegress)
	default:
		err = run(*out, *label)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// readTracked loads the tracking file (empty when it does not exist).
func readTracked(out string) (File, error) {
	var f File
	data, err := os.ReadFile(out)
	if os.IsNotExist(err) {
		return f, nil
	} else if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", out, err)
	}
	return f, nil
}

func run(out, label string) error {
	f, err := readTracked(out)
	if err != nil {
		return err
	}

	sc := bufio.NewScanner(os.Stdin)
	added := 0
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass the output through for the terminal
		e, ok := parseLine(line)
		if !ok {
			continue
		}
		e.Label = label
		f.Entries = append(f.Entries, e)
		added++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if added == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: appended %d entries to %s\n", added, out)
	return nil
}

// runCheck gates the working tree against ref on this host. Each round
// runs the base and head benchmark binaries back to back, alternating
// which goes first, so drifting machine load hits both sides alike.
// Throughput is gated on the median per-round head/base ratio;
// allocs/op, which does not depend on the host, on the head's median
// against the newest entry recorded in out. The cycle loop is
// allocation-free by design, so hot-path benches get no allocs growth;
// campaign benches (those reporting injections/s) allocate per trial
// through a sync.Pool whose hit rate depends on GC timing and get the
// percent budget.
func runCheck(out, ref string, maxRegress float64) error {
	f, err := readTracked(out)
	if err != nil {
		return err
	}
	recorded := make(map[string]Entry) // the last entry per name wins
	for _, e := range f.Entries {
		recorded[e.Name] = e
	}
	fmt.Fprintf(os.Stderr, "benchjson: host cpu=%q nproc=%d go=%s/%s; %s vs working tree, %d rounds\n",
		cpuModel(), runtime.NumCPU(), runtime.Version(), runtime.GOARCH, ref, rounds)

	tmp, err := os.MkdirTemp("", "benchjson-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	dirs := [2]string{filepath.Join(tmp, "base"), "."}
	bins := [2]string{filepath.Join(tmp, "base.test"), filepath.Join(tmp, "head.test")}
	if err := os.Mkdir(dirs[0], 0o755); err != nil {
		return err
	}
	// The module is stdlib-only, so building the base needs no network.
	tarball := filepath.Join(tmp, "base.tar")
	build := func(i int) *exec.Cmd {
		cmd := exec.Command("go", "test", "-c", "-o", bins[i], ".")
		cmd.Dir = dirs[i]
		return cmd
	}
	for _, cmd := range []*exec.Cmd{
		exec.Command("git", "archive", "--format=tar", "-o", tarball, ref),
		exec.Command("tar", "-xf", tarball, "-C", dirs[0]),
		build(0), build(1),
	} {
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", strings.Join(cmd.Args, " "), err)
		}
	}

	// runs[side][name] holds one entry per round; side 0 is the base.
	runs := [2]map[string][]Entry{{}, {}}
	for r := 0; r < 2*rounds; r++ {
		side := (r + r/2) % 2
		cmd := exec.Command(bins[side], "-test.run", "^$", "-test.bench", trackedBench,
			"-test.benchmem", "-test.timeout", "10m")
		cmd.Dir, cmd.Stderr = dirs[side], os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s: %w", bins[side], err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if e, ok := parseLine(line); ok {
				fmt.Fprintf(os.Stderr, "%s %s\n", [2]string{"base", "head"}[side], line)
				runs[side][e.Name] = append(runs[side][e.Name], e)
			}
		}
	}

	checked, failures := gate(runs, recorded, ref, out, maxRegress)
	if checked == 0 {
		return fmt.Errorf("no tracked benchmark ran on both %s and the working tree", ref)
	}
	if len(failures) > 0 {
		return fmt.Errorf("performance gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks within budget against %s (max regress %.1f%%)\n", checked, ref, maxRegress)
	return nil
}

// gate compares the head runs (runs[1]) with the base runs (runs[0])
// and the recorded entries, returning how many benchmarks were compared
// on throughput and every failure. A benchmark the base lacks skips the
// throughput comparison only: its allocs/op must still be recorded and
// within budget.
func gate(runs [2]map[string][]Entry, recorded map[string]Entry, ref, out string, maxRegress float64) (checked int, failures []string) {
	var names []string
	for name := range runs[1] {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		head, base := runs[1][name], runs[0][name]
		if len(base) != len(head) {
			fmt.Fprintf(os.Stderr, "benchjson: %s did not run at %s; skipping the throughput comparison\n", name, ref)
		} else {
			checked++
			for _, unit := range []string{"sim-insts/s", "injections/s"} {
				var ratios []float64
				for i := range head {
					if b := base[i].Metrics[unit]; b > 0 {
						ratios = append(ratios, head[i].Metrics[unit]/b)
					}
				}
				if len(ratios) == 0 {
					continue
				}
				m := median(ratios)
				fmt.Fprintf(os.Stderr, "benchjson: %s %s median head/base %.3f (rounds %.3f)\n", name, unit, m, ratios)
				if drop := 100 * (1 - m); drop > maxRegress {
					failures = append(failures, fmt.Sprintf("%s: %s regressed %.1f%% against %s on this host (median of %d rounds, budget %.1f%%)",
						name, unit, drop, ref, len(ratios), maxRegress))
				}
			}
		}
		rec, ok := recorded[name]
		if !ok {
			// A renamed or new benchmark is recorded (make bench) in the
			// change that introduces it, or nothing would gate it.
			failures = append(failures, fmt.Sprintf("%s: no recorded entry in %s; record it with `make bench`", name, out))
			continue
		}
		allocs := make([]float64, len(head))
		for i := range head {
			allocs[i] = head[i].Metrics["allocs/op"]
		}
		budget := 0.0
		if head[0].Metrics["injections/s"] > 0 {
			budget = maxRegress
		}
		ra, na := rec.Metrics["allocs/op"], median(allocs)
		fmt.Fprintf(os.Stderr, "benchjson: %s allocs/op %.0f recorded -> %.0f\n", name, ra, na)
		if na > ra*(1+budget/100) {
			failures = append(failures, fmt.Sprintf("%s: allocs/op grew %.0f -> %.0f (budget %.0f%%)", name, ra, na, budget))
		}
	}
	return checked, failures
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// cpuModel reads the CPU model name the kernel reports ("unknown" where
// /proc/cpuinfo is unavailable).
func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// parseLine parses one result line of `go test -bench` output:
//
//	BenchmarkName-8   123   4567 ns/op   89 B/op   2 allocs/op   3.14 custom-unit
//
// i.e. name, iteration count, then value/unit pairs.
func parseLine(line string) (Entry, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Entry{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Entry{}, false
	}
	name := fields[0]
	if maxProcsSuffix(name) > 0 {
		name = name[:strings.LastIndexByte(name, '-')]
	}
	e := Entry{
		Name:    name,
		Iters:   iters,
		Metrics: make(map[string]float64),
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Entry{}, false
		}
		e.Metrics[fields[i+1]] = v
	}
	if len(e.Metrics) == 0 {
		return Entry{}, false
	}
	return e, true
}

// maxProcsSuffix extracts the trailing -N GOMAXPROCS marker from a
// benchmark name (0 when absent).
func maxProcsSuffix(name string) int {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return 0
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return 0
	}
	return n
}
