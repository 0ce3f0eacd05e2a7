package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"

	"reese/internal/config"
	"reese/internal/fault"
	"reese/internal/obs"
	"reese/internal/pipeline"
	"reese/internal/program"
	"reese/internal/workload"
)

// simDef is the sim-figure workload: the paper's Figure 2 grid, every
// Table 2 program on each machine, at a fixed per-cell budget.
type simDef struct {
	Programs []string `json:"programs"`
	Machines []string `json:"machines"`
	// CellInsts is the committed-instruction budget of every cell.
	CellInsts uint64 `json:"cell_insts"`
	// Recorded maps "program/machine" to the sha256 of the cell's
	// cycles, committed count and stall ledger (cellDigest).
	Recorded map[string]string `json:"recorded"`
}

type simCell struct {
	program, machine string
	cfg              config.Machine
	prog             *program.Program
}

type simBench struct {
	def   simDef
	seed  uint64
	cells []simCell
}

// machineByName resolves the machine names workloads.json uses.
func machineByName(name string) (config.Machine, error) {
	switch name {
	case "baseline":
		return config.Starting(), nil
	case "reese":
		return config.Starting().WithReese(), nil
	case "reese+spares":
		return config.Starting().WithReese().WithSpares(2, 1), nil
	case "reese+ecc-l2":
		m := config.Starting().WithReese().WithName("REESE+ECC-L2")
		m.Memory.L2.ECC = true
		return m, nil
	}
	return config.Machine{}, fmt.Errorf("unknown machine %q", name)
}

// cellIters sizes a program past the budget the way the harness's
// figure grid does, so each cell is the grid's own cell.
func cellIters(spec workload.Spec, insts uint64) int {
	return spec.DefaultIters * (int(insts/150_000) + 2)
}

func (b *simBench) setUp() error {
	for _, p := range b.def.Programs {
		spec, ok := workload.ByName(p)
		if !ok {
			return fmt.Errorf("unknown program %q", p)
		}
		prog, err := spec.Build(cellIters(spec, b.def.CellInsts))
		if err != nil {
			return err
		}
		for _, mn := range b.def.Machines {
			cfg, err := machineByName(mn)
			if err != nil {
				return err
			}
			b.cells = append(b.cells, simCell{program: p, machine: mn, cfg: cfg, prog: prog})
		}
	}
	return nil
}

// cellDigest hashes what a speed-only change must leave identical:
// simulated cycles, committed instructions and the stall ledger.
func cellDigest(r pipeline.Result) string {
	h := sha256.New()
	w := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
	w(r.Cycles)
	w(r.Committed)
	for _, sb := range []obs.SlotBreakdown{r.Stalls.Dispatch, r.Stalls.Issue, r.Stalls.Commit} {
		w(sb.Slots)
		w(sb.Used)
		for _, s := range sb.Stalls {
			w(s)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (b *simBench) runCell(c simCell, parent spanRef) (pipeline.Result, error) {
	sp := parent.child("pipeline.run." + c.machine)
	defer sp.end()
	cpu, err := pipeline.New(c.cfg, c.prog, fault.None{})
	if err != nil {
		return pipeline.Result{}, err
	}
	return cpu.Run(b.def.CellInsts)
}

// measure runs grid cells back to back, one operation per cell, in
// passes over the grid; the seed sets the order cells run in within each
// pass. Every cell is checked against its recorded digest as it
// completes.
func (b *simBench) measure(seconds float64, tr *tracer) (*measurement, error) {
	var order []int
	return closedLoop(seconds, tr, func(i int, root spanRef) (float64, error) {
		pos := i % len(b.cells)
		if pos == 0 {
			rng := rand.New(rand.NewSource(int64(splitmix(b.seed ^ uint64(i/len(b.cells))))))
			order = rng.Perm(len(b.cells))
		}
		c := b.cells[order[pos]]
		res, err := b.runCell(c, root)
		if err != nil {
			return 0, err
		}
		key := c.program + "/" + c.machine
		if got := cellDigest(res); got != b.def.Recorded[key] {
			fmt.Fprintf(os.Stderr, "perfbench: cell %s digest %s, recorded %q\n", key, got, b.def.Recorded[key])
			return 0, errCheck
		}
		return float64(res.Committed), nil
	})
}

// check has nothing left to do: every timed cell was checked.
func (b *simBench) check(*tracer) (int, int, error) { return 0, 0, nil }

func (b *simBench) tearDown() {}
