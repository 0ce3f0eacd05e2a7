package main

// The layer probe: a fixed set of calls into each layer's public
// functions, made in every workload's traced run on the same inputs,
// so every per-layer metric has a measured value on every workload.
// Its simulated outputs are exact and checked against recorded values.
// Spans the workload's own traced operations record under the same
// names join the probe's in the per-layer figures.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"reese/internal/emu"
	"reese/internal/fault"
	"reese/internal/harness"
	"reese/internal/mem"
	"reese/internal/obs"
	"reese/internal/pipeline"
	"reese/internal/program"
	"reese/internal/workload"
)

type probeDef struct {
	Program string `json:"program"`
	// Insts is the pipeline runs' committed-instruction budget.
	Insts uint64 `json:"insts"`
	// Repeats is how many times each timed layer call is repeated.
	Repeats          int    `json:"repeats"`
	SnapshotInterval uint64 `json:"snapshot_interval"`
	Snapshots        int    `json:"snapshots"`
	Forks            int    `json:"forks"`
	// Campaign is run once per structure, Trials trials each, with Seed.
	Campaign faultsDef `json:"campaign"`
	Trials   int       `json:"trials"`
	Seed     uint64    `json:"seed"`
	// ClusterSeconds is how long the probe drives the cluster-open rig
	// on workloads that have no cluster of their own.
	ClusterSeconds float64 `json:"cluster_seconds"`
	// Recorded holds what a speed-only change must leave identical: the
	// cellDigest of the baseline and REESE pipeline runs, and the outcome
	// counts summed over the per-structure campaigns.
	Recorded struct {
		Pipeline map[string]string     `json:"pipeline"`
		Outcomes harness.OutcomeCounts `json:"outcomes"`
	} `json:"recorded"`
}

// timed runs fn under a root span named name.
func timed(tr *tracer, name string, fn func() error) error {
	sp := tr.begin(0, name)
	defer sp.end()
	return fn()
}

func medianSpan(tr *tracer, name string) float64 { return median(durations(tr.snapshot(), name)) }

// runProbe makes the probe's calls and writes the metrics only it
// measures into out.
func runProbe(d probeDef, hasCluster bool, clusterRaw json.RawMessage, seed uint64, out map[string]metric) (attempted, failed int, split map[string]metric, spans []span, err error) {
	spec, ok := workload.ByName(d.Program)
	if !ok {
		return 0, 0, nil, nil, fmt.Errorf("unknown program %q", d.Program)
	}
	ptr := newTracer()
	var prog *program.Program
	for i := 0; i < d.Repeats; i++ {
		if err := timed(ptr, "workload.build", func() (err error) {
			prog, err = spec.Rebuild(0)
			return err
		}); err != nil {
			return 0, 0, nil, nil, err
		}
	}
	out["workload.build_s"] = metric{medianSpan(ptr, "workload.build"), "s"}

	var emuInsts uint64
	for i := 0; i < d.Repeats; i++ {
		m, err := emu.New(prog)
		if err != nil {
			return 0, 0, nil, nil, err
		}
		if err := timed(ptr, "emu.run", func() (err error) {
			emuInsts, err = m.Run(0)
			return err
		}); err != nil {
			return 0, 0, nil, nil, err
		}
	}
	out["emu.insts_per_s"] = metric{float64(emuInsts) / medianSpan(ptr, "emu.run"), "1/s"}

	// Pipeline runs, baseline and REESE, on the same program, each
	// checked against its recorded digest.
	results := map[string]pipeline.Result{}
	for _, mn := range []string{"baseline", "reese"} {
		cfg, err := machineByName(mn)
		if err != nil {
			return 0, 0, nil, nil, err
		}
		for i := 0; i < d.Repeats; i++ {
			if err := timed(ptr, "pipeline.run."+mn, func() error {
				cpu, err := pipeline.New(cfg, prog, fault.None{})
				if err != nil {
					return err
				}
				results[mn], err = cpu.Run(d.Insts)
				return err
			}); err != nil {
				return attempted, failed, nil, nil, err
			}
			attempted++
			if got := cellDigest(results[mn]); got != d.Recorded.Pipeline[mn] {
				fmt.Fprintf(os.Stderr, "perfbench: probe %s pipeline digest %s, recorded %q\n", mn, got, d.Recorded.Pipeline[mn])
				failed++
			}
		}
	}
	base, re := results["baseline"], results["reese"]
	nsBase := medianSpan(ptr, "pipeline.run.baseline") / float64(base.Committed)
	nsReese := medianSpan(ptr, "pipeline.run.reese") / float64(re.Committed)
	out["pipeline.insts_per_s.baseline"] = metric{1 / nsBase, "1/s"}
	out["pipeline.insts_per_s.reese"] = metric{1 / nsReese, "1/s"}
	out["reese.overhead_ratio"] = metric{nsReese / nsBase, "ratio"}
	out["pipeline.ipc.baseline"] = metric{base.IPC, "ipc"}
	out["pipeline.ipc.reese"] = metric{re.IPC, "ipc"}
	out["reese.gap_pct"] = metric{100 * (base.IPC - re.IPC) / base.IPC, "%"}
	out["bpred.accuracy"] = metric{base.BranchAcc, "frac"}
	out["mem.l1d_miss_rate"] = metric{base.L1D.MissRate(), "frac"}
	out["mem.l2_miss_rate"] = metric{base.L2.MissRate(), "frac"}
	for c := obs.StallCause(1); c < obs.NumCauses; c++ {
		out["pipeline.stall."+c.String()] = metric{re.Stalls.Commit.Pct(c) / 100, "frac"}
	}

	// Snapshots from a boundary hook on the benchmark's own golden CPU,
	// then forks from them into one recycled CPU, each checked for
	// convergence with its checkpoint.
	a, f, err := probeCheckpoints(d, prog, ptr)
	attempted, failed = attempted+a, failed+f
	if err != nil {
		return attempted, failed, nil, nil, err
	}
	out["pipeline.snapshot_us"] = metric{medianSpan(ptr, "pipeline.snapshot") * 1e6, "us"}
	out["mem.page_snapshot_us"] = metric{medianSpan(ptr, "mem.page_snapshot") * 1e6, "us"}
	out["pipeline.fork_us"] = metric{medianSpan(ptr, "pipeline.fork") * 1e6, "us"}
	out["pipeline.converge_us"] = metric{medianSpan(ptr, "pipeline.converge") * 1e6, "us"}

	// One campaign per structure.
	warm, err := d.Campaign.spec(d.Seed, 1)
	if err != nil {
		return attempted, failed, nil, nil, err
	}
	if _, err := harness.Campaign(warm, harness.Options{Parallel: 1}); err != nil {
		return attempted, failed, nil, nil, err
	}
	var all harness.CampaignReport
	var counts harness.OutcomeCounts
	for _, st := range d.Campaign.Structures {
		one := d.Campaign
		one.Structures = []string{st}
		cs, err := one.spec(d.Seed, d.Trials)
		if err != nil {
			return attempted, failed, nil, nil, err
		}
		var rep *harness.CampaignReport
		if err := timed(ptr, "harness.campaign."+st, func() (err error) {
			rep, err = harness.Campaign(cs, harness.Options{Parallel: 1})
			return err
		}); err != nil {
			return attempted, failed, nil, nil, err
		}
		out["harness.trial_ms."+st] = metric{medianSpan(ptr, "harness.campaign."+st) * 1e3 / float64(d.Trials), "ms"}
		all.Trials = append(all.Trials, rep.Trials...)
		c := rep.OutcomeCounts
		counts = harness.OutcomeCounts{
			Detected: counts.Detected + c.Detected, Recovered: counts.Recovered + c.Recovered,
			SDC: counts.SDC + c.SDC, Masked: counts.Masked + c.Masked,
			Hang: counts.Hang + c.Hang, Corrected: counts.Corrected + c.Corrected,
		}
	}
	attempted++
	if counts != d.Recorded.Outcomes {
		fmt.Fprintf(os.Stderr, "perfbench: probe outcomes %+v, recorded %+v\n", counts, d.Recorded.Outcomes)
		failed++
	}
	// No corrected count: the probe's machine has no ECC.
	for name, v := range map[string]uint64{"detected": counts.Detected, "recovered": counts.Recovered,
		"sdc": counts.SDC, "masked": counts.Masked, "hang": counts.Hang} {
		out["harness.outcome."+name] = metric{float64(v), "count"}
	}
	for i := 0; i < d.Repeats; i++ {
		if err := timed(ptr, "harness.jsonl", func() error { return all.WriteJSONL(io.Discard) }); err != nil {
			return attempted, failed, nil, nil, err
		}
	}
	out["harness.jsonl_ms"] = metric{medianSpan(ptr, "harness.jsonl") * 1e3 * 1000 / float64(len(all.Trials)), "ms"}

	spans = ptr.snapshot()
	if hasCluster {
		return attempted, failed, nil, spans, nil
	}
	// The cluster-open rig, driven briefly at its own rate.
	var cd clusterDef
	if err := json.Unmarshal(clusterRaw, &cd); err != nil {
		return attempted, failed, nil, nil, err
	}
	cb := &clusterBench{def: cd, seed: seed}
	defer cb.tearDown()
	if err := cb.setUp(); err != nil {
		return attempted, failed, nil, nil, err
	}
	ctr := newTracer()
	m, err := cb.measure(d.ClusterSeconds, ctr)
	if err != nil {
		return attempted, failed, nil, nil, err
	}
	a, f, err = cb.check(ctr)
	attempted, failed = attempted+a, failed+f
	for _, o := range m.ops {
		attempted++
		if !o.ok {
			failed++
		}
	}
	return attempted, failed, m.split, append(spans, ctr.snapshot()...), err
}

func probeCheckpoints(d probeDef, prog *program.Program, tr *tracer) (attempted, failed int, err error) {
	cfg, err := machineByName("reese")
	if err != nil {
		return 0, 0, err
	}
	cpu, err := pipeline.New(cfg, prog, fault.None{})
	if err != nil {
		return 0, 0, err
	}
	memory := cpu.OracleMemory()
	memory.EnableDirtyTracking()
	img := mem.SnapshotPages(memory.Bytes(), nil, nil)
	memory.ClearDirty()
	var marks []uint64
	for i := 1; i <= d.Snapshots; i++ {
		marks = append(marks, uint64(i)*d.SnapshotInterval)
	}
	var cks []*pipeline.Checkpoint
	cpu.SetBoundaryHook(marks, func(c *pipeline.CPU) bool {
		var next *mem.PageImage
		_ = timed(tr, "mem.page_snapshot", func() error {
			next = mem.SnapshotPages(memory.Bytes(), memory.DirtyPages(), img)
			return nil
		})
		memory.ClearDirty()
		img = next
		_ = timed(tr, "pipeline.snapshot", func() error {
			cks = append(cks, c.Snapshot(img))
			return nil
		})
		return false
	})
	if _, err := cpu.Run(marks[len(marks)-1] + 1); err != nil {
		return 0, 0, err
	}
	if len(cks) == 0 {
		return 0, 0, fmt.Errorf("probe: no checkpoints taken")
	}
	work, err := program.LoadMemory(prog)
	if err != nil {
		return 0, 0, err
	}
	var dst *pipeline.CPU
	for i := 0; i < d.Forks; i++ {
		ck := cks[(i*7+3)%len(cks)]
		work.Overwrite(0, ck.Mem.Materialize())
		if err := timed(tr, "pipeline.fork", func() (err error) {
			dst, err = ck.Fork(work, nil, dst)
			return err
		}); err != nil {
			return attempted, failed, err
		}
		var same bool
		_ = timed(tr, "pipeline.converge", func() error {
			same = ck.StateConverged(dst)
			return nil
		})
		attempted++
		if !same {
			failed++
		}
	}
	return attempted, failed, nil
}
