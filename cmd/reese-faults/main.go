// Command reese-faults runs statistical fault-injection campaigns:
// seeded random samples over (victim instruction, target structure, bit
// position), each injected run classified against an uninjected golden
// execution as detected, recovered, SDC, masked, or hang — with
// per-structure coverage and Wilson 95% confidence intervals.
//
// Usage:
//
//	reese-faults                         # all six workloads, REESE vs baseline
//	reese-faults -workload li -n 1000    # one workload, 1000 injections
//	reese-faults -structures result,fetch-pc
//	reese-faults -jsonl trials.jsonl     # stream per-trial records
//	reese-faults -workload gcc -jsonl - -trial-cost
//	                                     # ...with how each trial ended and what it simulated
//	reese-faults -smoke                  # tiny seeded campaign with assertions
//	reese-faults -grid                   # sweep all 32 bit positions at one point
//	reese-faults -workload gcc -n 10000 -workers http://a:8321,http://b:8321
//	                                     # shard the campaign across replicas
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"reese/internal/cluster"
	"reese/internal/config"
	"reese/internal/fault"
	"reese/internal/harness"
	"reese/internal/mem"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "single workload (default: all six)")
		injections   = flag.Int("n", 400, "injections per campaign")
		seed         = flag.Uint64("seed", 1, "campaign seed (same seed = byte-identical results)")
		structures   = flag.String("structures", "", "comma-separated fault structures (default: all for the machine)")
		targetInsts  = flag.Uint64("target-insts", 0, "approximate golden-run length in instructions (0 = default)")
		jsonOut      = flag.Bool("json", false, "emit campaign reports as JSON instead of tables")
		jsonlPath    = flag.String("jsonl", "", "stream per-trial JSONL records to this file (\"-\" = stdout)")
		ckInterval   = flag.Uint64("checkpoint-interval", 0, "golden-run snapshot spacing in committed instructions (0 = default)")
		parallel     = flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS)")
		smoke        = flag.Bool("smoke", false, "tiny seeded campaign; exits non-zero unless in-sphere coverage is 100% with no hangs")
		memSmoke     = flag.Bool("mem-smoke", false, "seeded memory-hierarchy campaign on small caches with SECDED L2; asserts ECC absorbs single-bit L2 faults and localization accuracy >= 90%")
		ecc          = flag.Bool("ecc", false, "enable SECDED ECC on the L2 cache for the campaign machines")
		grid         = flag.Bool("grid", false, "sweep all 32 bit positions at one injection point")
		gridAt       = flag.Uint64("grid-at", 5_000, "injection point (instruction #) for -grid")
		workersStr   = flag.String("workers", "", "comma-separated reese-serve replica URLs; shards the campaign across them (requires -workload)")
		shardSize    = flag.Int("shard-size", 0, "trials per shard with -workers (0 = auto)")
		triage       = flag.Bool("triage", false, "re-run every SDC/hang trial from its checkpoint with the flight recorder and first-divergence attribution armed (requires -workload)")
		triageDet    = flag.Bool("triage-detected", false, "with -triage, also triage detected outcomes")
		triageDir    = flag.String("triage-dir", "", "with -triage, write each triaged trial's Perfetto trace here (trace_path lands in the JSONL record)")
		triageSmoke  = flag.Bool("triage-smoke", false, "seeded triage campaign with assertions; exits non-zero unless every escape carries a trace with injection and first-divergence markers")
		trialCost    = flag.Bool("trial-cost", false, "add end (spliced, hang or ran), fork_seq and sim_cycles to every JSONL trial record")
	)
	flag.Parse()
	opt := harness.Options{Parallel: *parallel, TrialCost: *trialCost}

	structs, err := parseStructures(*structures)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reese-faults:", err)
		return 2
	}

	if *grid {
		return runGrid(*workloadName, *gridAt, opt)
	}
	if *smoke {
		return runSmoke(*seed, opt)
	}
	if *memSmoke {
		return runMemSmoke(*seed, opt)
	}
	if *triageSmoke {
		return runTriageSmoke(*seed, opt)
	}
	if *triage && *workloadName == "" {
		fmt.Fprintln(os.Stderr, "reese-faults: -triage requires -workload (triage artifacts attach to one campaign's trial log)")
		return 2
	}
	if *workersStr != "" {
		if *trialCost {
			fmt.Fprintln(os.Stderr, "reese-faults: -trial-cost applies to local campaigns only")
			return 2
		}
		return runDistributed(distributedArgs{
			workers:        splitWorkers(*workersStr),
			workload:       *workloadName,
			injections:     *injections,
			seed:           *seed,
			targetInsts:    *targetInsts,
			ckInterval:     *ckInterval,
			shardSize:      *shardSize,
			structs:        structs,
			jsonOut:        *jsonOut,
			triage:         *triage,
			triageDetected: *triageDet,
			triageDir:      *triageDir,
		})
	}

	workloads := []string{*workloadName}
	if *workloadName == "" {
		// No single workload selected: run the full REESE-vs-baseline
		// comparison across all six.
		tbl, reports, err := harness.CampaignAll(*injections, *seed, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reese-faults:", err)
			return 1
		}
		if *jsonOut {
			return emitJSON(reports)
		}
		fmt.Println(tbl)
		return 0
	}

	// Trials stream to the sink as they complete rather than being
	// buffered until every campaign finishes: a killed or wedged run
	// keeps everything already classified.
	var sink *json.Encoder
	if *jsonlPath != "" {
		w := os.Stdout
		if *jsonlPath != "-" {
			f, err := os.Create(*jsonlPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "reese-faults:", err)
				return 1
			}
			defer f.Close()
			w = f
		}
		sink = json.NewEncoder(w)
	}

	var reports []harness.CampaignReport
	for _, w := range workloads {
		for _, cfg := range []config.Machine{config.Starting().WithReese(), config.Starting()} {
			if *ecc {
				cfg.Memory.L2.ECC = true
			}
			spec := harness.CampaignSpec{
				Workload:           w,
				Machine:            cfg,
				Injections:         *injections,
				Seed:               *seed,
				TargetInsts:        *targetInsts,
				CheckpointInterval: *ckInterval,
				Triage:             *triage,
				TriageDetected:     *triageDet,
			}
			if len(structs) > 0 {
				spec.Structures = usable(structs, cfg)
			}
			if sink != nil || *triage || *triageDet {
				// Traces are persisted (and trace_path stamped) inside the
				// sink, before the record is encoded, so the JSONL line
				// already points at its artifact.
				enc, dir, machine := sink, *triageDir, cfg.Name
				spec.TrialSink = func(t harness.Trial) error {
					if t.Triage != nil && dir != "" {
						path, err := writeTrace(dir, machine, t.Index, t.Triage.Trace)
						if err != nil {
							return err
						}
						t.Triage.TracePath = path
					}
					if enc != nil {
						if err := enc.Encode(&t); err != nil {
							return err
						}
					}
					if t.Triage != nil {
						// Every consumer of the blob in this front end has
						// run (trace file written, JSONL line emitted); drop
						// it so hundreds of escapes' traces don't sit on the
						// heap for the rest of the run. The attribution
						// fields stay on the record for the summary table.
						t.Triage.Trace = nil
					}
					return nil
				}
			}
			r, err := harness.Campaign(spec, opt)
			if err != nil {
				fmt.Fprintln(os.Stderr, "reese-faults:", err)
				return 1
			}
			// A triage trace that wrapped its ring evicted early events;
			// say so instead of letting a partial record pass as complete.
			for ti := range r.Trials {
				if tg := r.Trials[ti].Triage; tg != nil && tg.TraceDropped > 0 {
					fmt.Fprintf(os.Stderr, "reese-faults: warning: trial %d triage trace wrapped (%d events evicted); the trace is a partial record\n",
						r.Trials[ti].Index, tg.TraceDropped)
				}
			}
			reports = append(reports, *r)
		}
	}
	if *jsonOut {
		return emitJSON(reports)
	}
	for i := range reports {
		fmt.Println(reports[i].Table())
		if reports[i].Localized > 0 {
			fmt.Println(reports[i].LevelsTable())
		}
		if reports[i].Detected+reports[i].Recovered > 0 {
			fmt.Printf("detection latency: mean %.1f, p95 %d, max %d cycles\n",
				reports[i].DetectionLatencyMean, reports[i].DetectionLatencyP95, reports[i].DetectionLatencyMax)
		}
		if reports[i].Triaged > 0 {
			fmt.Printf("triage: %d escapes replayed with attribution, %d with a first divergent commit\n",
				reports[i].Triaged, reports[i].Diverged)
		}
		fmt.Printf("throughput: %d injections in %.2fs wall (%.0f injections/s)\n\n",
			reports[i].Injected, reports[i].WallSeconds, reports[i].InjectionsPerSec)
	}
	return 0
}

// splitWorkers turns "http://a,http://b" into clean base URLs.
func splitWorkers(s string) []string {
	var out []string
	for _, w := range strings.Split(s, ",") {
		if w = strings.TrimSpace(w); w != "" {
			out = append(out, strings.TrimRight(w, "/"))
		}
	}
	return out
}

type distributedArgs struct {
	workers        []string
	workload       string
	injections     int
	seed           uint64
	targetInsts    uint64
	ckInterval     uint64
	shardSize      int
	structs        []fault.Struct
	jsonOut        bool
	triage         bool
	triageDetected bool
	triageDir      string
}

// runDistributed shards the campaign across reese-serve replicas via
// the cluster coordinator and prints the merged reports — the same
// REESE-vs-baseline pair the local path produces, byte-identical to a
// single-process run with the same seed.
func runDistributed(a distributedArgs) int {
	if a.workload == "" {
		fmt.Fprintln(os.Stderr, "reese-faults: -workers requires -workload (pick one benchmark to shard)")
		return 2
	}
	cfg := cluster.Config{Workers: a.workers, ShardSize: a.shardSize}
	cfg.OnEvent = func(ev cluster.Event) {
		if ev.Type == "completed" || ev.Type == "reassigned" {
			fmt.Fprintf(os.Stderr, "reese-faults: shard %d %s on %s (%d/%d shards, %d/%d trials, %.1fs)\n",
				ev.Shard, ev.Type, ev.Worker, ev.CompletedShards, ev.TotalShards,
				ev.CompletedTrials, ev.TotalTrials, ev.ElapsedS)
		}
	}
	var reports []harness.CampaignReport
	for _, m := range []config.Machine{config.Starting().WithReese(), config.Starting()} {
		machine := m
		var names []string
		if len(a.structs) > 0 {
			for _, st := range usable(a.structs, machine) {
				names = append(names, st.String())
			}
		}
		rep, err := cluster.Run(context.Background(), cfg, cluster.Campaign{
			Workload:           a.workload,
			Machine:            &machine,
			Structures:         names,
			Injections:         a.injections,
			Seed:               a.seed,
			TargetInsts:        a.targetInsts,
			CheckpointInterval: a.ckInterval,
			Triage:             a.triage,
			TriageDetected:     a.triageDetected,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "reese-faults:", err)
			return 1
		}
		for ti := range rep.Trials {
			tg := rep.Trials[ti].Triage
			if tg == nil {
				continue
			}
			if a.triageDir != "" && len(tg.Trace) > 0 {
				path, werr := writeTrace(a.triageDir, machine.Name, rep.Trials[ti].Index, tg.Trace)
				if werr != nil {
					fmt.Fprintln(os.Stderr, "reese-faults:", werr)
					return 1
				}
				tg.TracePath = path
			}
		}
		reports = append(reports, *rep)
	}
	if a.jsonOut {
		return emitJSON(reports)
	}
	for i := range reports {
		fmt.Println(reports[i].Table())
		fmt.Printf("throughput: %d injections in %.2fs wall across %d workers (%.0f injections/s)\n\n",
			reports[i].Injected, reports[i].WallSeconds, len(a.workers), reports[i].InjectionsPerSec)
	}
	return 0
}

// writeTrace persists one triaged trial's Perfetto trace under dir,
// creating it if needed. The name carries the machine and the trial's
// global plan index, so the REESE and baseline halves of a comparison
// never collide.
func writeTrace(dir, machine string, index int, trace []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', ' ':
			return '-'
		}
		return r
	}, machine)
	path := filepath.Join(dir, fmt.Sprintf("%s-trial-%04d.trace.json", name, index))
	if err := os.WriteFile(path, trace, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// parseStructures turns "result,fetch-pc" into fault structures.
func parseStructures(s string) ([]fault.Struct, error) {
	if s == "" {
		return nil, nil
	}
	var out []fault.Struct
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		st, ok := fault.ParseStruct(name)
		if !ok {
			var have []string
			for _, k := range fault.Structures(true) {
				have = append(have, k.String())
			}
			return nil, fmt.Errorf("unknown structure %q (have %s)", name, strings.Join(have, ", "))
		}
		out = append(out, st)
	}
	return out, nil
}

// usable drops RSQ-only structures when cfg has no R-stream Queue, so
// one -structures list works for both halves of the comparison.
func usable(structs []fault.Struct, cfg config.Machine) []fault.Struct {
	rsq := cfg.Reese.Enabled && cfg.Reese.Mode != config.ModeDupDispatch
	var out []fault.Struct
	for _, st := range structs {
		if st.NeedsRSQ() && !rsq {
			continue
		}
		out = append(out, st)
	}
	if len(out) == 0 {
		// Only RSQ structures were requested and this machine has none;
		// fall back to the result structure so the campaign is non-empty.
		out = []fault.Struct{fault.StructResult}
	}
	return out
}

func emitJSON(reports []harness.CampaignReport) int {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(reports); err != nil {
		fmt.Fprintln(os.Stderr, "reese-faults:", err)
		return 1
	}
	return 0
}

// runSmoke is the CI gate: a small seeded campaign on the REESE machine
// asserting the invariants the fault model promises — every injection
// classified (counts sum to injected), 100% coverage for result-target
// faults, and no in-sphere fault able to hang the machine.
func runSmoke(seed uint64, opt harness.Options) int {
	rep, err := harness.Campaign(harness.CampaignSpec{
		Workload:   "li",
		Machine:    config.Starting().WithReese(),
		Injections: 120,
		Seed:       seed,
	}, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reese-faults:", err)
		return 1
	}
	fmt.Println(rep.Table())
	failed := false
	if got := rep.Total(); got != rep.Injected {
		fmt.Fprintf(os.Stderr, "FAIL: outcome counts sum to %d, want %d injected\n", got, rep.Injected)
		failed = true
	}
	for _, s := range rep.Structures {
		if s.Structure == fault.StructResult.String() && s.Coverage < 1 {
			fmt.Fprintf(os.Stderr, "FAIL: result-structure coverage %.1f%%, want 100%%\n", s.Coverage*100)
			failed = true
		}
		if s.InSphere && s.SDC > 0 {
			fmt.Fprintf(os.Stderr, "FAIL: in-sphere structure %s let %d faults through as SDC\n", s.Structure, s.SDC)
			failed = true
		}
		if s.InSphere && s.Hang > 0 {
			fmt.Fprintf(os.Stderr, "FAIL: in-sphere structure %s hung %d runs\n", s.Structure, s.Hang)
			failed = true
		}
	}
	if failed {
		return 3
	}
	fmt.Println("smoke OK: all injections classified, result coverage 100%, no in-sphere SDC or hangs")
	return 0
}

// runTriageSmoke is the triage CI gate: a seeded campaign over
// structures known to produce out-of-sphere escapes (regfile, fetch-pc,
// mem-word faults the comparator cannot see), with -triage semantics
// hard-enabled. It asserts the triage contract end to end: every
// SDC/hang trial carries a triage record whose replay reproduced the
// original exactly, with a Perfetto trace containing the injection
// marker, and — for SDCs — a first divergent commit no earlier than the
// victim instruction.
func runTriageSmoke(seed uint64, opt harness.Options) int {
	rep, err := harness.Campaign(harness.CampaignSpec{
		Workload: "li",
		Machine:  config.Starting().WithReese(),
		Structures: []fault.Struct{
			fault.StructResult, fault.StructRegFile, fault.StructFetchPC, fault.StructMemWord,
		},
		Injections: 150,
		Seed:       seed,
		Triage:     true,
	}, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reese-faults:", err)
		return 1
	}
	fmt.Println(rep.Table())
	failed := false
	escapes := 0
	for i := range rep.Trials {
		t := &rep.Trials[i]
		if t.Outcome != "sdc" && t.Outcome != "hang" {
			continue
		}
		escapes++
		tg := t.Triage
		if tg == nil {
			fmt.Fprintf(os.Stderr, "FAIL: trial %d (%s, %s) escaped without a triage record\n", t.Index, t.Structure, t.Outcome)
			failed = true
			continue
		}
		if !tg.ReplayOK {
			fmt.Fprintf(os.Stderr, "FAIL: trial %d triage replay did not reproduce the original run\n", t.Index)
			failed = true
		}
		if len(tg.Trace) == 0 {
			fmt.Fprintf(os.Stderr, "FAIL: trial %d triage record has no trace artifact\n", t.Index)
			failed = true
		} else if !bytes.Contains(tg.Trace, []byte(`"FAULT`)) {
			fmt.Fprintf(os.Stderr, "FAIL: trial %d trace has no injection marker\n", t.Index)
			failed = true
		}
		if t.Outcome == "sdc" && tg.FirstDivergence == nil {
			fmt.Fprintf(os.Stderr, "FAIL: trial %d is an SDC with no first-divergence attribution\n", t.Index)
			failed = true
		}
		if d := tg.FirstDivergence; d != nil && d.Seq < t.Seq {
			fmt.Fprintf(os.Stderr, "FAIL: trial %d first divergence at seq %d precedes the victim seq %d\n", t.Index, d.Seq, t.Seq)
			failed = true
		}
		if t.Outcome == "hang" && tg.HangPeriod == 0 {
			fmt.Fprintf(os.Stderr, "FAIL: trial %d is a hang with no detected loop period\n", t.Index)
			failed = true
		}
	}
	if escapes == 0 {
		fmt.Fprintln(os.Stderr, "FAIL: campaign produced no escapes; the triage gate exercised nothing")
		failed = true
	}
	if rep.Triaged == 0 || rep.Diverged == 0 {
		fmt.Fprintf(os.Stderr, "FAIL: report triage totals empty (triaged %d, diverged %d)\n", rep.Triaged, rep.Diverged)
		failed = true
	}
	if failed {
		return 3
	}
	fmt.Printf("triage-smoke OK: %d escapes triaged (%d diverged), every trace carries injection and divergence markers\n",
		rep.Triaged, rep.Diverged)
	return 0
}

// memSmokeMachine is the -mem-smoke configuration: the REESE machine
// with caches shrunk (2 KB L1s, 16 KB SECDED L2) so the PRBS workload's
// resident region spills past L1 and exercises L2 and RAM.
func memSmokeMachine() config.Machine {
	cfg := config.Starting().WithReese()
	cfg.Name = cfg.Name + "+memsmoke"
	cfg.Memory.L1D = mem.CacheConfig{Name: "dl1", SizeBytes: 2 * 1024, BlockBytes: 32, Assoc: 2, HitLatency: 2}
	cfg.Memory.L1I = mem.CacheConfig{Name: "il1", SizeBytes: 2 * 1024, BlockBytes: 32, Assoc: 2, HitLatency: 2}
	cfg.Memory.L2 = mem.CacheConfig{Name: "ul2", SizeBytes: 16 * 1024, BlockBytes: 64, Assoc: 4, HitLatency: 12, ECC: true}
	return cfg
}

// runMemSmoke is the memory-hierarchy CI gate: a seeded 200-injection
// campaign on the PRBS self-checking workload over memory and pipeline
// structures, asserting (a) the SECDED L2 turns every effective
// single-bit L2 fault into a correction (zero SDC), (b) the six-way
// outcome taxonomy accounts for every injection, (c) symptom-based
// localization attributes at least 90% of non-masked trials to the
// right plane, and (d) the per-trial JSONL is byte-identical to the
// same campaign re-run with no usable checkpoints (every trial a full
// simulation), which referees forking and splicing.
func runMemSmoke(seed uint64, opt harness.Options) int {
	// Cost records differ between a spliced and a fully simulated trial
	// by design; the byte comparison below is of the default records.
	opt.TrialCost = false
	structs := []fault.Struct{
		fault.StructResult, fault.StructRSQOperand, fault.StructFetchPC, fault.StructRegFile,
		fault.StructMemWord, fault.StructL1DDirty, fault.StructL1DTag,
		fault.StructL2Line, fault.StructDTLB,
	}
	spec := harness.CampaignSpec{
		Workload:    "prbs",
		Machine:     memSmokeMachine(),
		Structures:  structs,
		Injections:  200,
		Seed:        seed,
		TargetInsts: 70_000,
	}
	rep, err := harness.Campaign(spec, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reese-faults:", err)
		return 1
	}
	// The same campaign with one checkpoint before the whole run: no
	// trial forks late or splices, so every trial is a full simulation —
	// the reference the spliced records must equal byte for byte.
	spec.CheckpointInterval = 1 << 20
	full, err := harness.Campaign(spec, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reese-faults:", err)
		return 1
	}
	fmt.Println(rep.Table())
	fmt.Println(rep.LevelsTable())
	failed := false
	if got := rep.Total(); got != rep.Injected {
		fmt.Fprintf(os.Stderr, "FAIL: outcome counts sum to %d, want %d injected\n", got, rep.Injected)
		failed = true
	}
	// Single-bit L2 faults (bit < 32) must never escape a SECDED L2.
	for _, t := range rep.Trials {
		if t.Structure == fault.StructL2Line.String() && t.Bit < 32 && t.Outcome == "sdc" {
			fmt.Fprintf(os.Stderr, "FAIL: single-bit L2 fault (trial %d, bit %d) escaped ECC as SDC\n", t.Index, t.Bit)
			failed = true
		}
	}
	var spliced, simulated bytes.Buffer
	if err := rep.WriteJSONL(&spliced); err != nil {
		fmt.Fprintln(os.Stderr, "reese-faults:", err)
		return 1
	}
	if err := full.WriteJSONL(&simulated); err != nil {
		fmt.Fprintln(os.Stderr, "reese-faults:", err)
		return 1
	}
	if !bytes.Equal(spliced.Bytes(), simulated.Bytes()) {
		fmt.Fprintln(os.Stderr, "FAIL: trial JSONL differs from full simulation (checkpoint interval 1<<20)")
		failed = true
	}
	if rep.Localized == 0 {
		fmt.Fprintln(os.Stderr, "FAIL: no trials were localized")
		failed = true
	} else if rep.LocAccuracy < 0.90 {
		fmt.Fprintf(os.Stderr, "FAIL: localization accuracy %.1f%% over %d trials, want >= 90%%\n",
			rep.LocAccuracy*100, rep.Localized)
		failed = true
	}
	if failed {
		return 3
	}
	fmt.Printf("mem-smoke OK: %d injections classified six ways, JSONL identical to full simulation, ECC absorbed all single-bit L2 faults, localization %.1f%% over %d trials\n",
		rep.Injected, rep.LocAccuracy*100, rep.Localized)
	return 0
}

func runGrid(workloadName string, gridAt uint64, opt harness.Options) int {
	w := workloadName
	if w == "" {
		w = "gcc"
	}
	// Say which workload the grid runs on — an unset -workload used to
	// silently mean gcc.
	fmt.Printf("bit grid: workload %s, injection at instruction %d\n", w, gridAt)
	cells, err := harness.BitGrid(config.Starting().WithReese(), w, gridAt, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reese-faults:", err)
		return 1
	}
	fmt.Println(harness.BitGridTable(cells))
	missed, notFired := 0, 0
	for _, c := range cells {
		switch {
		case c.NotFired:
			notFired++
		case !c.Detected:
			missed++
		}
	}
	if notFired > 0 {
		fmt.Fprintf(os.Stderr, "reese-faults: %d/32 injections never fired (is -grid-at %d beyond the program's end?)\n", notFired, gridAt)
		return 3
	}
	fmt.Printf("%d/32 bit positions detected\n", 32-missed)
	if missed > 0 {
		return 3
	}
	return 0
}
