package harness

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"

	"reese/internal/config"
	"reese/internal/fault"
	"reese/internal/isa"
	"reese/internal/mem"
	"reese/internal/workload"
)

// TestForkFromCheckpointMatchesScratchRun is the core soundness
// property of checkpoint/fork replay: an uninjected machine forked from
// any checkpoint and run to completion must finish in exactly the state
// the golden from-scratch run finished in — same cycle count, same
// commit and oracle digests, same stall attribution.
func TestForkFromCheckpointMatchesScratchRun(t *testing.T) {
	for _, cfg := range []config.Machine{config.Starting().WithReese(), config.Starting()} {
		spec, _ := CampaignSpec{
			Workload: "li",
			Machine:  cfg,
			Seed:     1,
		}.withDefaults()
		wspec, ok := workload.ByName(spec.Workload)
		if !ok {
			t.Fatalf("unknown workload %q", spec.Workload)
		}
		b, err := bundleForSpec(spec, wspec)
		if err != nil {
			t.Fatal(err)
		}
		if len(b.checkpoints) < 3 {
			t.Fatalf("golden run produced %d checkpoints, want >= 3", len(b.checkpoints))
		}

		// Checkpoint 0 (the pre-run state), the last one, and a few
		// seeded-random interior picks.
		rng := rand.New(rand.NewSource(0xC0FFEE))
		picks := []int{0, len(b.checkpoints) - 1}
		for i := 0; i < 3; i++ {
			picks = append(picks, 1+rng.Intn(len(b.checkpoints)-1))
		}

		for _, i := range picks {
			ck := b.checkpoints[i]
			w := &campaignWorker{}
			if err := w.adopt(b.prog, ck.Mem); err != nil {
				t.Fatal(err)
			}
			cpu, err := ck.Fork(w.mem, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cpu.Run(b.budget)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cycles != b.finalRes.Cycles || res.Committed != b.finalRes.Committed {
				t.Errorf("%s fork@%d (commit %d): finished at cycle %d / %d insts, golden %d / %d",
					cfg.Name, i, ck.Committed, res.Cycles, res.Committed, b.finalRes.Cycles, b.finalRes.Committed)
			}
			if got := cpu.CommitDigest(); got != b.finalCommit {
				t.Errorf("%s fork@%d: commit digest diverged from golden", cfg.Name, i)
			}
			if got := cpu.OracleDigest(); got != b.finalOracle {
				t.Errorf("%s fork@%d: oracle digest diverged from golden", cfg.Name, i)
			}
			if !reflect.DeepEqual(res.Stalls, b.finalRes.Stalls) {
				t.Errorf("%s fork@%d: stall ledger diverged from golden:\nfork   %+v\ngolden %+v",
					cfg.Name, i, res.Stalls, b.finalRes.Stalls)
			}
		}
	}
}

// TestCampaignInvariantToCheckpointInterval pins the engine's headline
// guarantee: per-trial results are a pure function of the campaign spec
// and seed, not of the snapshot schedule. An interval larger than the
// workload degenerates to full-prefix simulation with no splice
// opportunities, so equality across these runs is fork+splice vs.
// from-scratch equivalence for every trial — exercised across every
// fault structure the machine supports, pipeline latches and memory-
// hierarchy targets alike.
func TestCampaignInvariantToCheckpointInterval(t *testing.T) {
	base := CampaignSpec{
		Workload:   "gcc", // hosts victims for every structure (loads, stores, branches)
		Machine:    config.Starting().WithReese(),
		Injections: 120,
		Seed:       0xBEEF,
		Structures: fault.Structures(true),
	}
	render := func(interval uint64) (string, string, *CampaignReport) {
		spec := base
		spec.CheckpointInterval = interval
		rep, err := Campaign(spec, Options{Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String(), rep.Table(), rep
	}
	refJSONL, refTable, refRep := render(0) // DefaultCheckpointInterval
	// The run must actually sample the memory hierarchy, or the
	// invariance below says nothing about mem-fault replay.
	memInjected := uint64(0)
	for _, sc := range refRep.Structures {
		if st, ok := fault.ParseStruct(sc.Structure); ok && st.InMemHierarchy() {
			memInjected += sc.Injected
		}
	}
	if memInjected == 0 {
		t.Fatal("campaign sampled no memory-hierarchy structures")
	}
	for _, interval := range []uint64{64, 1 << 20} {
		jsonl, table, _ := render(interval)
		if jsonl != refJSONL {
			t.Errorf("per-trial JSONL differs between interval %d and the default", interval)
		}
		if table != refTable {
			t.Errorf("report table differs between interval %d and the default", interval)
		}
	}
}

// faultsMemoryStructs is the benchmark's memory-campaign mix: every
// memory-hierarchy structure plus the two architectural sites (regfile,
// fetch PC), the structures whose trials splice only through the
// golden-suffix comparisons (cache/TLB set replay, unread memory words,
// dead registers).
var faultsMemoryStructs = []fault.Struct{
	fault.StructMemWord, fault.StructL1DTag, fault.StructL1DDirty,
	fault.StructL1DData, fault.StructL1ITag, fault.StructL2Line,
	fault.StructITLB, fault.StructDTLB, fault.StructRegFile, fault.StructFetchPC,
}

// smallCacheECCMachine is the reese-faults -mem-smoke machine: REESE
// with 2 KB L1s and a 16 KB SECDED L2, so fault residue sees eviction
// pressure within a short run.
func smallCacheECCMachine() config.Machine {
	cfg := config.Starting().WithReese()
	cfg.Name = cfg.Name + "+memsmoke"
	cfg.Memory.L1D = mem.CacheConfig{Name: "dl1", SizeBytes: 2 * 1024, BlockBytes: 32, Assoc: 2, HitLatency: 2}
	cfg.Memory.L1I = mem.CacheConfig{Name: "il1", SizeBytes: 2 * 1024, BlockBytes: 32, Assoc: 2, HitLatency: 2}
	cfg.Memory.L2 = mem.CacheConfig{Name: "ul2", SizeBytes: 16 * 1024, BlockBytes: 64, Assoc: 4, HitLatency: 12, ECC: true}
	return cfg
}

// TestMemFaultTrialsInvariantToCheckpointInterval narrows interval
// invariance to the memory-hierarchy and architectural-site structures,
// with small intervals in the mix so trials fork close to their
// injection point and meet many splice boundaries. That forces armed
// and pending fault residue — in particular the lost-write-back record
// with its pre-store block snapshot — to ride through checkpoint
// restore (mem/clone.go deep-copies frec.snap), and it puts every
// golden-suffix comparison (cache/TLB set replay, unread memory words,
// register liveness) against the no-splice reference: any unsound
// splice or settle-ordering bug shows up as a per-trial diff between
// schedules. Three machines: gcc on REESE, li on the baseline, and
// PRBS on small caches with a SECDED L2, where residue lines are
// evicted within the run.
func TestMemFaultTrialsInvariantToCheckpointInterval(t *testing.T) {
	liStructs := make([]fault.Struct, 0, len(faultsMemoryStructs))
	for _, st := range faultsMemoryStructs {
		if st != fault.StructL1DDirty { // li executes no stores
			liStructs = append(liStructs, st)
		}
	}
	cases := []struct {
		name string
		spec CampaignSpec
	}{
		{"gcc-reese", CampaignSpec{Workload: "gcc", Machine: config.Starting().WithReese(),
			Injections: 200, Seed: 0xD00D, Structures: faultsMemoryStructs}},
		{"li-baseline", CampaignSpec{Workload: "li", Machine: config.Starting(),
			Injections: 120, Seed: 0x11, Structures: liStructs}},
		{"prbs-smallcache-ecc", CampaignSpec{Workload: "prbs", Machine: smallCacheECCMachine(),
			Injections: 160, Seed: 0x5EC, TargetInsts: 20_000, Structures: faultsMemoryStructs}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			render := func(interval uint64) (string, *CampaignReport) {
				spec := tc.spec
				spec.CheckpointInterval = interval
				rep, err := Campaign(spec, Options{Parallel: 2})
				// Small intervals make large checkpoint chains; hold one
				// at a time.
				dropBundles()
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := rep.WriteJSONL(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.String(), rep
			}
			refJSONL, refRep := render(1 << 20) // no checkpoints: pure from-scratch
			for _, sc := range refRep.Structures {
				if sc.Injected == 0 {
					t.Errorf("structure %s drew no trials", sc.Structure)
				}
				// Lost write-backs must actually fire somewhere, or the
				// deep-clone path under test never carries a non-empty
				// snapshot.
				if sc.Structure == fault.StructL1DDirty.String() && sc.Fired == 0 {
					t.Error("no l1d-dirty trial fired; lost-write-back replay untested")
				}
			}
			for _, interval := range []uint64{16, 64, 0} {
				jsonl, _ := render(interval)
				if jsonl != refJSONL {
					t.Errorf("JSONL differs between interval %d and from-scratch:\n%s", interval, firstLineDiff(refJSONL, jsonl))
				}
			}
		})
	}
}

// dropBundles empties the campaign-bundle memo and returns the freed
// memory, so a test sweeping many checkpoint intervals and machines
// keeps one golden checkpoint chain alive at a time instead of all of
// them (at interval 16 one chain is ~250 MB).
func dropBundles() {
	bundleCache.Range(func(k, _ any) bool {
		bundleCache.Delete(k)
		return true
	})
	debug.FreeOSMemory()
}

// firstLineDiff renders the first differing line pair of two JSONL
// streams.
func firstLineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return "want " + w[i] + "\ngot  " + g[i]
		}
	}
	return "line counts differ"
}

// TestTrialCostMemorySplices checks the trial-cost record and the
// memory-hierarchy splice rate it exists to show: on a seeded gcc/REESE
// campaign over the memory-campaign mix, at least half of the fired
// memory-hierarchy trials must end spliced. Turning the record on must
// not change anything else in the JSONL.
func TestTrialCostMemorySplices(t *testing.T) {
	spec := CampaignSpec{
		Workload:    "gcc",
		Machine:     config.Starting().WithReese(),
		Injections:  160,
		Seed:        7,
		TargetInsts: 20_000,
		Structures:  faultsMemoryStructs,
	}
	plain, err := Campaign(spec, Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	costed, err := Campaign(spec, Options{Parallel: 2, TrialCost: true})
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := plain.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	stripped := make([]Trial, len(costed.Trials))
	type row struct{ fired, spliced, hang int }
	perStruct := map[string]*row{}
	var fired, spliced int
	for i, tr := range costed.Trials {
		if tr.TrialCost == nil {
			t.Fatalf("trial %d carries no cost record", i)
		}
		switch tr.End {
		case "spliced", "hang", "ran":
		default:
			t.Errorf("trial %d: end %q", i, tr.End)
		}
		if tr.End == "hang" && tr.Outcome != "hang" || tr.End == "spliced" && tr.Outcome == "hang" {
			t.Errorf("trial %d: end %q with outcome %q", i, tr.End, tr.Outcome)
		}
		if tr.SimCycles == 0 || tr.SimCycles > tr.Cycles && tr.End != "spliced" {
			t.Errorf("trial %d: sim_cycles %d against %d total cycles", i, tr.SimCycles, tr.Cycles)
		}
		r := perStruct[tr.Structure]
		if r == nil {
			r = &row{}
			perStruct[tr.Structure] = r
		}
		st, _ := fault.ParseStruct(tr.Structure)
		if tr.Fired {
			r.fired++
			if tr.End == "spliced" {
				r.spliced++
			}
			if st.InMemHierarchy() {
				fired++
				if tr.End == "spliced" {
					spliced++
				}
			}
		}
		if tr.End == "hang" {
			r.hang++
		}
		stripped[i] = tr
		stripped[i].TrialCost = nil
	}
	for _, st := range faultsMemoryStructs {
		if r := perStruct[st.String()]; r != nil {
			t.Logf("%-12s fired %3d  spliced %3d  hang %3d", st, r.fired, r.spliced, r.hang)
		}
	}
	if err := (&CampaignReport{Trials: stripped}).WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Error("JSONL with the cost record stripped differs from a run without it")
	}
	if !strings.Contains(want.String(), `"cycles"`) || strings.Contains(want.String(), `"sim_cycles"`) {
		t.Error("default JSONL must not carry cost fields")
	}
	if fired == 0 || 2*spliced < fired {
		t.Errorf("%d of %d fired memory-hierarchy trials spliced, want at least half", spliced, fired)
	}
}

// TestRegfileLivenessSplice pins register-liveness splicing: a regfile
// flip of a register the golden suffix never reads splices at the first
// boundary after it fires, with the dead register's corrupt value
// folded into the spliced oracle digest; a flip of a register that is
// live at that boundary does not splice there. Both trials must match
// full simulation (the 1<<20-interval bundle) field for field.
func TestRegfileLivenessSplice(t *testing.T) {
	spec, _ := CampaignSpec{Workload: "gcc", Machine: config.Starting().WithReese()}.withDefaults()
	wspec, _ := workload.ByName(spec.Workload)
	b, err := bundleForSpec(spec, wspec)
	if err != nil {
		t.Fatal(err)
	}
	full := spec
	full.CheckpointInterval = 1 << 20
	fb, err := bundleForSpec(full, wspec)
	if err != nil {
		t.Fatal(err)
	}
	g := b.g
	fk := len(b.checkpoints) / 2
	seq := b.checkpoints[fk].ICount + 3
	for b.forkPoint(seq) != fk {
		seq++
	}
	next := b.checkpoints[fk+1]

	// First access (read or write) of each integer register at or after
	// seq, scanning the golden stream.
	dec := b.prog.Decoded()
	const none = ^uint64(0)
	var firstRead, firstWrite [32]uint64
	for r := range firstRead {
		firstRead[r], firstWrite[r] = none, none
	}
	for p := seq; p < g.total; p++ {
		in, _ := dec.At(g.pcs[p])
		f1, f2 := in.Op.SourceFiles()
		if in.Op.ReadsRs1() && f1 != isa.FileFP && firstRead[in.Rs1&31] == none {
			firstRead[in.Rs1&31] = p
		}
		if in.Op.ReadsRs2() && f2 != isa.FileFP && firstRead[in.Rs2&31] == none {
			firstRead[in.Rs2&31] = p
		}
		if r := g.destReg[p]; r != destNone && !g.destFP[p] && firstWrite[r&31] == none {
			firstWrite[r&31] = p
		}
	}
	dead, live := -1, -1
	for r := 1; r < 32; r++ {
		switch {
		case dead < 0 && firstRead[r] == none && firstWrite[r] == none:
			dead = r
		case live < 0 && firstWrite[r] >= next.ICount && b.suffix[fk+1].LiveInt&(1<<r) != 0:
			live = r
		}
	}
	if dead < 0 || live < 0 {
		t.Fatalf("no dead (%d) or live (%d) register found after seq %d", dead, live, seq)
	}

	run := func(b *campaignBundle, reg int) Trial {
		tr := Trial{Structure: fault.StructRegFile.String(), Seq: seq, Reg: uint8(reg), Bit: 5}
		if err := b.runTrial(context.Background(), &tr, Options{TrialCost: true}); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	firstBoundary := next.Cycle - b.checkpoints[fk].Cycle
	for _, tc := range []struct {
		name   string
		reg    int
		splice bool
	}{{"dead", dead, true}, {"live", live, false}} {
		got, want := run(b, tc.reg), run(fb, tc.reg)
		if !got.Fired {
			t.Fatalf("%s r%d: fault did not fire", tc.name, tc.reg)
		}
		atFirst := got.End == "spliced" && got.SimCycles == firstBoundary
		if atFirst != tc.splice {
			t.Errorf("%s r%d: end %s after %d cycles (first boundary %d); want spliced there = %v",
				tc.name, tc.reg, got.End, got.SimCycles, firstBoundary, tc.splice)
		}
		if got.oracleDig != want.oracleDig || got.commitDig != want.commitDig {
			t.Errorf("%s r%d: spliced digests differ from full simulation", tc.name, tc.reg)
		}
		if got.Outcome != want.Outcome || got.Cycles != want.Cycles || got.Committed != want.Committed ||
			got.diffWords != want.diffWords || got.Locale != want.Locale {
			t.Errorf("%s r%d: %s/%d/%d differs from full simulation %s/%d/%d", tc.name, tc.reg,
				got.Outcome, got.Cycles, got.Committed, want.Outcome, want.Cycles, want.Committed)
		}
		if tc.name == "dead" && got.Outcome != "sdc" {
			t.Errorf("dead r%d never rewritten: outcome %s, want sdc", tc.reg, got.Outcome)
		}
	}
}
