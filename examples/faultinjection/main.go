// Fault injection: flip bits in instruction results mid-flight and
// watch REESE detect and recover, while the undefended baseline commits
// silent data corruption. This is the paper's §4.2-4.3 behaviour.
package main

import (
	"fmt"
	"log"

	"reese"
)

// run simulates vortex for 100k committed instructions, returning the
// result and a digest of the committed architectural state (registers,
// stores, output).
func run(cfg reese.Config, inj reese.Injector) (reese.Result, any) {
	prog, err := reese.Workload("vortex", 0)
	if err != nil {
		log.Fatal(err)
	}
	cpu, err := reese.New(cfg, prog, inj)
	if err != nil {
		log.Fatal(err)
	}
	res, err := cpu.Run(100_000)
	if err != nil {
		log.Fatal(err)
	}
	return res, cpu.CommitDigest()
}

func main() {
	// One surgical fault: bit 7 of the first result at or after the
	// 5000th instruction.
	fmt.Println("== single injected fault ==")
	for _, cfg := range []reese.Config{reese.StartingConfig(), reese.StartingConfig().WithReese()} {
		_, clean := run(cfg, nil)
		res, got := run(cfg, reese.FaultAt(5000, 7))
		state := "matches the fault-free run"
		if got != clean {
			state = "CORRUPTED (silent data corruption)"
		}
		fmt.Printf("%-28s detected=%d recoveries=%d, final state %s\n",
			res.Config, res.FaultsDetected, res.Recoveries, state)
		if res.FaultsDetected > 0 {
			fmt.Printf("%-28s detected %.0f cycles after the bit flipped (the P->R separation of paper §2)\n",
				"", res.DetectionLatencyMean)
		}
	}

	// The statistical campaign API samples faults over (instruction,
	// structure, bit) and classifies each against a golden run.
	fmt.Println("\n== campaign (REESE vs baseline on vortex) ==")
	for _, cfg := range []reese.Config{reese.StartingConfig().WithReese(), reese.StartingConfig()} {
		c, err := reese.Campaign(reese.CampaignSpec{
			Workload:   "vortex",
			Machine:    cfg,
			Injections: 60,
			Seed:       7,
		}, reese.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s coverage %.0f%% [%.0f%%, %.0f%%]  detected=%d recovered=%d sdc=%d masked=%d hang=%d\n",
			c.Config, c.Coverage*100, c.CoverageLo*100, c.CoverageHi*100,
			c.Detected, c.Recovered, c.SDC, c.Masked, c.Hang)
	}
}
