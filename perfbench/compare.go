package main

// `perfbench compare BASE HEAD` reads the records two sets of runs
// printed (their saved standard output) and reports, per workload and
// metric, each side's median, the change, and the base side's spread.
// It refuses to compare records from different hosts (the fingerprint
// must match exactly) or of different workload definitions (the
// definition hash must match), so a number is only ever set against one
// measured on the same machine for the same inputs.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.HasPrefix(string(line), `{"perfbench_record":`) {
			continue
		}
		var w map[string]record
		if err := json.Unmarshal(line, &w); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, w["perfbench_record"])
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no perfbench records", path)
	}
	return out, nil
}

// comparable returns why two record sets must not be compared, or "".
func comparable(base, head []record) string {
	host := base[0].Host
	defs := map[string]string{}
	for _, r := range append(append([]record(nil), base...), head...) {
		if r.Host != host {
			return fmt.Sprintf("records come from different hosts: %+v vs %+v", host, r.Host)
		}
		if d, ok := defs[r.Workload]; ok && d != r.Definition {
			return fmt.Sprintf("workload %s has two definitions (%.12s vs %.12s); a changed workload needs a new baseline", r.Workload, d, r.Definition)
		}
		defs[r.Workload] = r.Definition
	}
	return ""
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE-OUTPUT HEAD-OUTPUT")
		return 2
	}
	base, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	head, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if why := comparable(base, head); why != "" {
		fmt.Fprintln(os.Stderr, "perfbench: refusing to compare:", why)
		return 3
	}
	type key struct{ workload, metric, unit string }
	values := func(rs []record) map[key][]float64 {
		out := map[key][]float64{}
		for _, r := range rs {
			for name, m := range r.Metrics {
				k := key{r.Workload, name, m.Unit}
				out[k] = append(out[k], m.Value)
			}
		}
		return out
	}
	bv, hv := values(base), values(head)
	var keys []key
	for k := range bv {
		if _, ok := hv[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Printf("%-14s %-34s %-6s %14s %14s %9s %9s\n", "workload", "metric", "unit", "base median", "head median", "change", "base IQR")
	for _, k := range keys {
		b, h := median(bv[k]), median(hv[k])
		iqr := ratio(percentile(bv[k], 75)-percentile(bv[k], 25), b)
		fmt.Printf("%-14s %-34s %-6s %14.6g %14.6g %+8.2f%% %8.2f%%\n", k.workload, k.metric, k.unit, b, h, 100*ratio(h-b, b), 100*iqr)
	}
	return 0
}
