package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"

	"reese/internal/fault"
	"reese/internal/harness"
)

// faultsDef is a faults-* workload: seeded campaigns on one program and
// machine over an explicit structure list.
type faultsDef struct {
	Program     string   `json:"program"`
	Machine     string   `json:"machine"`
	Structures  []string `json:"structures"`
	TargetInsts uint64   `json:"target_insts"`
	// Batch is the injections per timed campaign; Parallel the trial
	// goroutines each campaign runs on.
	Batch    int `json:"batch"`
	Parallel int `json:"parallel"`
	// OracleTrials is how many trials of the first and of the last
	// timed campaign are re-run without checkpoints (full simulation,
	// the engine's own reference) and compared byte for byte.
	OracleTrials int `json:"oracle_trials"`
	// Reference is a fixed campaign whose JSONL sha256 is recorded.
	Reference struct {
		Seed        uint64 `json:"seed"`
		Injections  int    `json:"injections"`
		JSONLSHA256 string `json:"jsonl_sha256"`
	} `json:"reference"`
}

// noSpliceInterval puts a single checkpoint before the whole run, so
// every trial simulates from the start to the end.
const noSpliceInterval = 1 << 20

type faultsBench struct {
	def  faultsDef
	seed uint64
	// timed keeps the first and last timed campaign (seed and JSONL) for
	// the oracle check.
	timed [2]struct {
		seed  uint64
		jsonl []byte
	}
	units int
}

func (d faultsDef) spec(seed uint64, injections int) (harness.CampaignSpec, error) {
	cfg, err := machineByName(d.Machine)
	if err != nil {
		return harness.CampaignSpec{}, err
	}
	spec := harness.CampaignSpec{
		Workload:    d.Program,
		Machine:     cfg,
		Injections:  injections,
		Seed:        seed,
		TargetInsts: d.TargetInsts,
	}
	for _, name := range d.Structures {
		st, ok := fault.ParseStruct(name)
		if !ok {
			return spec, fmt.Errorf("unknown structure %q", name)
		}
		spec.Structures = append(spec.Structures, st)
	}
	return spec, nil
}

// setUp builds the golden run and its checkpoint chain (memoized in the
// process) by running a one-trial campaign.
func (b *faultsBench) setUp() error {
	spec, err := b.def.spec(b.seed, 1)
	if err != nil {
		return err
	}
	_, err = harness.Campaign(spec, harness.Options{Parallel: 1})
	return err
}

func campaignJSONL(rep *harness.CampaignReport, parent spanRef) ([]byte, error) {
	sp := parent.child("harness.jsonl")
	defer sp.end()
	var buf bytes.Buffer
	err := rep.WriteJSONL(&buf)
	return buf.Bytes(), err
}

func (b *faultsBench) measure(seconds float64, tr *tracer) (*measurement, error) {
	m, err := closedLoop(seconds, tr, func(i int, root spanRef) (float64, error) {
		seed := splitmix(b.seed<<20 ^ uint64(i))
		spec, err := b.def.spec(seed, b.def.Batch)
		if err != nil {
			return 0, err
		}
		sp := root.child("harness.campaign")
		rep, err := harness.Campaign(spec, harness.Options{Parallel: b.def.Parallel})
		sp.end()
		if err != nil {
			return 0, err
		}
		jsonl, err := campaignJSONL(rep, root)
		if err != nil {
			return 0, err
		}
		slot := 1
		if i == 0 {
			slot = 0
		}
		b.timed[slot].seed, b.timed[slot].jsonl = seed, jsonl
		b.units = i + 1
		return float64(rep.Injected), nil
	})
	return m, err
}

// check re-runs a prefix of the first and last timed campaigns as a
// shard with no usable checkpoints, so every trial simulates in full,
// and compares their JSONL lines byte for byte with the timed ones;
// then it runs the reference campaign and compares its JSONL sha256
// with the recorded value.
func (b *faultsBench) check(tr *tracer) (attempted, failed int, err error) {
	for k := range b.timed {
		if k == 1 && b.units < 2 {
			break
		}
		t := b.timed[k]
		spec, err := b.def.spec(t.seed, b.def.Batch)
		if err != nil {
			return attempted, failed, err
		}
		n := min(b.def.OracleTrials, b.def.Batch)
		spec.CheckpointInterval = noSpliceInterval
		spec.Shard = &harness.ShardRange{Offset: 0, Count: n, Plan: b.def.Batch}
		rep, err := harness.Campaign(spec, harness.Options{Parallel: b.def.Parallel})
		if err != nil {
			return attempted, failed, err
		}
		got, err := campaignJSONL(rep, spanRef{})
		if err != nil {
			return attempted, failed, err
		}
		lines := bytes.SplitAfter(t.jsonl, []byte("\n"))
		attempted++
		if !bytes.Equal(got, bytes.Join(lines[:n], nil)) {
			fmt.Fprintf(os.Stderr, "perfbench: campaign seed %d: trials differ from full simulation\n", t.seed)
			failed++
		}
	}
	ref := b.def.Reference
	spec, err := b.def.spec(ref.Seed, ref.Injections)
	if err != nil {
		return attempted, failed, err
	}
	rep, err := harness.Campaign(spec, harness.Options{Parallel: b.def.Parallel})
	if err != nil {
		return attempted, failed, err
	}
	jsonl, err := campaignJSONL(rep, spanRef{})
	if err != nil {
		return attempted, failed, err
	}
	sum := sha256.Sum256(jsonl)
	attempted++
	if got := hex.EncodeToString(sum[:]); got != ref.JSONLSHA256 {
		fmt.Fprintf(os.Stderr, "perfbench: reference campaign JSONL sha256 %s, recorded %q\n", got, ref.JSONLSHA256)
		failed++
	}
	return attempted, failed, nil
}

func (b *faultsBench) tearDown() {}
