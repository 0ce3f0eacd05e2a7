// Command reese-sim runs one workload on one machine configuration and
// prints the simulation statistics.
//
// Usage:
//
//	reese-sim [flags]
//
// Examples:
//
//	reese-sim -workload gcc
//	reese-sim -workload vortex -reese -spare-alus 2 -insts 500000
//	reese-sim -asm prog.s -reese
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"reese/internal/asm"
	"reese/internal/config"
	"reese/internal/fault"
	"reese/internal/obs"
	"reese/internal/pipeline"
	"reese/internal/program"
	"reese/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "gcc", "benchmark to run (gcc, go, ijpeg, li, perl, vortex)")
		asmFile      = flag.String("asm", "", "run an SS32 assembly file instead of a named workload")
		insts        = flag.Uint64("insts", 200_000, "committed-instruction budget (0 = run to halt)")
		fastfwd      = flag.Uint64("fastfwd", 0, "functionally skip N instructions before timing (SimpleScalar -fastfwd)")
		iters        = flag.Int("iters", 0, "workload outer iterations (0 = default)")

		reese      = flag.Bool("reese", false, "enable REESE redundant execution")
		dup        = flag.Bool("dup", false, "enable duplicate-at-scheduler redundancy (Franklin [24] comparison scheme)")
		spareALUs  = flag.Int("spare-alus", 0, "spare integer ALUs to add")
		spareMults = flag.Int("spare-mults", 0, "spare integer multiplier/dividers to add")
		ruuSize    = flag.Int("ruu", 0, "override RUU size (LSQ follows at half)")
		width      = flag.Int("width", 0, "override datapath width")
		memPorts   = flag.Int("mem-ports", 0, "override memory-port count")
		rsqSize    = flag.Int("rsq", 0, "override R-stream Queue size")
		partial    = flag.Int("partial", 0, "re-execute only 1 in N instructions (REESE)")
		reso       = flag.Bool("reso", false, "R stream recomputes with shifted operands (detects permanent FU faults)")
		wrongPath  = flag.Bool("wrongpath", false, "model wrong-path execution after mispredictions")

		faultSeq = flag.Uint64("fault-at", 0, "flip one bit of the first comparator-observable result at or after instruction #N (0 = none)")
		faultBit = flag.Uint("fault-bit", 7, "bit position (0-31) for -fault-at")

		tracePath = flag.String("trace", "", "write a per-event pipeline trace to this file (- for stdout)")
		traceOut  = flag.String("trace-out", "", "dump the flight recorder as Chrome trace-event JSON to this file (load in Perfetto)")
		traceBuf  = flag.Int("trace-buf", 16384, "flight-recorder ring capacity (events) for -trace-out")
		why       = flag.Bool("why", false, "print the per-cause stall attribution report (where the unused slots went)")
		asJSON    = flag.Bool("json", false, "emit the result as JSON instead of text")
	)
	flag.Parse()
	if *faultBit > 31 {
		fmt.Fprintf(os.Stderr, "reese-sim: fault bit %d out of range [0,31]\n", *faultBit)
		return 2
	}
	if *tracePath == "-" && *asJSON {
		fmt.Fprintln(os.Stderr, "reese-sim: -trace - and -json both write to stdout; trace to a file")
		return 2
	}
	if !*reese {
		var stray string
		flag.Visit(func(f *flag.Flag) {
			if stray == "" && (f.Name == "rsq" || f.Name == "partial" || f.Name == "reso") {
				stray = f.Name
			}
		})
		if stray != "" {
			fmt.Fprintf(os.Stderr, "reese-sim: -%s requires -reese\n", stray)
			return 2
		}
	}

	cfg := config.Starting()
	if *ruuSize > 0 {
		cfg = cfg.WithRUU(*ruuSize)
	}
	if *width > 0 {
		cfg = cfg.WithWidth(*width)
	}
	if *memPorts > 0 {
		cfg = cfg.WithMemPorts(*memPorts)
	}
	if *wrongPath {
		cfg = cfg.WithWrongPath()
	}
	if *dup {
		cfg = cfg.WithDupDispatch()
	}
	if *reese {
		cfg = cfg.WithReese()
		if *rsqSize > 0 {
			cfg = cfg.WithRSQ(*rsqSize)
		}
		if *partial > 1 {
			cfg = cfg.WithPartialReexec(*partial)
		}
		if *reso {
			cfg = cfg.WithRESO()
		}
	}
	if *spareALUs > 0 || *spareMults > 0 {
		cfg = cfg.WithSpares(*spareALUs, *spareMults)
	}

	var (
		prog *program.Program
		err  error
	)
	if *asmFile != "" {
		src, rerr := os.ReadFile(*asmFile)
		if rerr != nil {
			fmt.Fprintln(os.Stderr, "reese-sim:", rerr)
			return 1
		}
		prog, err = asm.Assemble(*asmFile, string(src))
	} else {
		spec, ok := workload.ByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "reese-sim: unknown workload %q (have %v)\n", *workloadName, workload.Names())
			return 1
		}
		it := *iters
		if it == 0 && *insts > 0 {
			it = spec.DefaultIters * 2
		}
		prog, err = spec.Build(it)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "reese-sim:", err)
		return 1
	}

	var (
		injector fault.Injector
		at       *fault.AtStruct
	)
	if *faultSeq > 0 {
		at = &fault.AtStruct{Struct: fault.StructResult, Seq: *faultSeq, Bit: uint8(*faultBit)}
		injector = at
	}

	cpu, err := pipeline.New(cfg, prog, injector)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reese-sim:", err)
		return 1
	}
	var inst pipeline.Instruments
	if *tracePath != "" {
		inst.Trace = os.Stdout
		if *tracePath != "-" {
			f, err := os.Create(*tracePath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "reese-sim:", err)
				return 1
			}
			defer f.Close()
			inst.Trace = f
		}
	}
	if *traceOut != "" {
		inst.Recorder = obs.NewRecorder(*traceBuf)
	}
	cpu.Instrument(inst)
	if *fastfwd > 0 {
		if _, err := cpu.FastForward(*fastfwd); err != nil {
			fmt.Fprintln(os.Stderr, "reese-sim:", err)
			return 1
		}
	}
	res, err := cpu.Run(*insts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reese-sim:", err)
		return 1
	}
	if rec := inst.Recorder; rec != nil {
		f, cerr := os.Create(*traceOut)
		if cerr != nil {
			fmt.Fprintln(os.Stderr, "reese-sim:", cerr)
			return 1
		}
		werr := rec.WriteChromeTrace(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "reese-sim:", werr)
			return 1
		}
		fmt.Fprintf(os.Stderr, "reese-sim: wrote %d flight-recorder events (%d overwritten) to %s; open in https://ui.perfetto.dev\n",
			rec.Len(), rec.Dropped(), *traceOut)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "reese-sim:", err)
			return 1
		}
	} else {
		printResult(res, cfg.Reese.RSQSize, at)
		if *why {
			printWhy(res)
		}
	}
	if res.PermError {
		return 2
	}
	return 0
}

// printWhy renders the stall attribution report: for each slot class
// (dispatch/issue/commit), the share of the run's slot budget that did
// work and where every unused slot went, one row per cause. The rows of
// a column sum to 100% by construction (the invariant the pipeline
// tests check), so this table is a complete answer to "why is it
// slow?".
func printWhy(r pipeline.Result) {
	classes := []struct {
		name string
		b    obs.SlotBreakdown
	}{
		{"dispatch", r.Stalls.Dispatch},
		{"issue", r.Stalls.Issue},
		{"commit", r.Stalls.Commit},
	}
	fmt.Printf("\nstall attribution (%% of slot-cycles over %d cycles)\n", r.Stalls.Cycles)
	fmt.Printf("  %-18s", "cause")
	for _, cl := range classes {
		fmt.Printf("  %9s", fmt.Sprintf("%s×%d", cl.name, cl.b.Width))
	}
	fmt.Println()
	fmt.Printf("  %-18s", "(used)")
	for _, cl := range classes {
		fmt.Printf("  %8.1f%%", cl.b.UtilPct())
	}
	fmt.Println()
	for cause := obs.StallCause(1); cause < obs.NumCauses; cause++ {
		all := uint64(0)
		for _, cl := range classes {
			all += cl.b.Stalls[cause]
		}
		if all == 0 {
			continue
		}
		fmt.Printf("  %-18s", cause.String())
		for _, cl := range classes {
			if cl.b.Stalls[cause] == 0 {
				fmt.Printf("  %9s", "-")
				continue
			}
			fmt.Printf("  %8.1f%%", cl.b.Pct(cause))
		}
		fmt.Println()
	}
}

func printResult(r pipeline.Result, cfgRSQ int, at *fault.AtStruct) {
	fmt.Printf("workload:          %s\n", r.Workload)
	fmt.Printf("config:            %s\n", r.Config)
	if r.FastForwarded > 0 {
		fmt.Printf("fast-forwarded:    %d instructions (untimed)\n", r.FastForwarded)
	}
	fmt.Printf("committed:         %d instructions\n", r.Committed)
	fmt.Printf("cycles:            %d\n", r.Cycles)
	fmt.Printf("IPC:               %.4f\n", r.IPC)
	fmt.Printf("halted:            %v   permanent-error: %v\n", r.Halted, r.PermError)
	fmt.Printf("branches:          %d (%.2f%% predicted)\n", r.Branches, r.BranchAcc*100)
	fmt.Printf("fetch stalls:      icache=%d  branch=%d cycles\n", r.FetchICacheStalls, r.FetchBranchStalls)
	if r.WrongPathFetched > 0 {
		fmt.Printf("wrong path:        fetched=%d squashed=%d\n", r.WrongPathFetched, r.WrongPathSquashed)
	}
	fmt.Printf("dispatch stalls:   ruu-full=%d  lsq-full=%d\n", r.DispatchRUUFull, r.DispatchLSQFull)
	fmt.Printf("fu utilisation:    alu=%.1f%%  mult=%.1f%%  memport=%.1f%%\n",
		r.ALUUtil*100, r.MultUtil*100, r.MemPortUtil*100)
	fmt.Printf("instruction mix:   alu=%.0f%% mult=%.0f%% load=%.0f%% store=%.0f%% ctrl=%.0f%% fp=%.0f%%\n",
		r.Mix.IntALU*100, r.Mix.IntMult*100, r.Mix.Load*100, r.Mix.Store*100, r.Mix.Control*100, r.Mix.FP*100)
	fmt.Printf("caches:            il1 %.2f%% miss, dl1 %.2f%% miss, l2 %.2f%% miss\n",
		r.L1I.MissRate()*100, r.L1D.MissRate()*100, r.L2.MissRate()*100)
	if r.Reese != nil {
		fmt.Printf("reese:             enq=%d reexec=%d verified=%d mismatch=%d skipped=%d\n",
			r.Reese.Enqueued, r.Reese.Reexecuted, r.Reese.Verified, r.Reese.Mismatches, r.Reese.Skipped)
		fmt.Printf("reese pressure:    rsq-full-stalls=%d priority-cycles=%d\n",
			r.Reese.FullStalls, r.Reese.PriorityCycles)
		fmt.Printf("rsq occupancy:     mean=%.1f max=%d of %d\n",
			r.RSQOccupancyMean, r.RSQOccupancyMax, cfgRSQ)
	}
	if at != nil && at.Fired() {
		fmt.Printf("fault:             bit %d at #%d, detected=%d recoveries=%d\n",
			at.Bit, at.FiredSeq(), r.FaultsDetected, r.Recoveries)
		if r.FaultsDetected > 0 {
			fmt.Printf("detection latency: mean=%.1f max=%d cycles\n",
				r.DetectionLatencyMean, r.DetectionLatencyMax)
		}
	}
}
