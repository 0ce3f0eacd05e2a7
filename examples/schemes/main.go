// Schemes: compare the three redundancy organisations head to head —
// no redundancy, Franklin's duplicate-at-the-scheduler (the comparison
// scheme the paper cites), and REESE's R-stream Queue — and demonstrate
// why the paper's design wins: R-stream copies carry their operands, so
// they are free of the dependencies that make naive duplication
// expensive (§4.4).
package main

import (
	"fmt"
	"log"

	"reese"
)

func run(cfg reese.Config, name string) reese.Result {
	prog, err := reese.Workload(name, 0)
	if err != nil {
		log.Fatal(err)
	}
	res, err := reese.Run(cfg, prog, nil, 150_000)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	schemes := []struct {
		label string
		cfg   reese.Config
	}{
		{"baseline (no redundancy)", reese.StartingConfig()},
		{"duplicate-at-scheduler", reese.StartingConfig().WithDupDispatch()},
		{"REESE (R-stream Queue)", reese.StartingConfig().WithReese()},
	}

	fmt.Println("== performance: every instruction executed twice, three ways ==")
	for _, s := range schemes {
		var sum float64
		for _, w := range reese.WorkloadNames() {
			sum += run(s.cfg, w).IPC
		}
		fmt.Printf("  %-28s average IPC %.3f\n", s.label, sum/float64(len(reese.WorkloadNames())))
	}

	fmt.Println("\n== the common-mode blind spot ==")
	fmt.Println("A transient fault hits one copy; both schemes catch it:")
	for _, s := range schemes[1:] {
		prog, err := reese.Workload("gcc", 0)
		if err != nil {
			log.Fatal(err)
		}
		res, err := reese.Run(s.cfg, prog, reese.FaultAt(5_000, 11), 50_000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-28s detected %d, recovered %d\n", s.label, res.FaultsDetected, res.Recoveries)
	}
	fmt.Println("But a fault corrupting BOTH executions identically (a permanent")
	fmt.Println("fault in a shared structure) only fools the pair comparator:")
	fmt.Println("duplicate copies match each other and retire silently, while")
	fmt.Println("REESE recomputes from the carried operands and still detects it")
	fmt.Println("(see TestDupDispatchCommonModeBlindSpot).")
}
