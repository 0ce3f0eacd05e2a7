package reese_test

// Runnable documentation examples (go doc / go test run these).

import (
	"fmt"

	"reese"
)

// ExampleRun simulates one benchmark on the baseline machine and on a
// REESE machine with spare elements.
func ExampleRun() {
	prog, _ := reese.Workload("gcc", 0)
	base, _ := reese.Run(reese.StartingConfig(), prog, nil, 100_000)

	prog, _ = reese.Workload("gcc", 0)
	prot, _ := reese.Run(reese.StartingConfig().WithReese().WithSpares(2, 0), prog, nil, 100_000)

	fmt.Printf("baseline hit the instruction budget: %v\n", base.Committed >= 100_000)
	fmt.Printf("REESE verifies every instruction: %v\n", prot.Reese.Verified >= prot.Committed)
	fmt.Printf("REESE is slower: %v\n", prot.IPC < base.IPC)
	// Output:
	// baseline hit the instruction budget: true
	// REESE verifies every instruction: true
	// REESE is slower: true
}

// ExampleAssemble builds and runs a custom SS32 program.
func ExampleAssemble() {
	prog, err := reese.Assemble("triangle", `
		li r1, 10        ; n
		li r2, 0         ; sum
	loop:
		add r2, r2, r1
		addi r1, r1, -1
		bne r1, r0, loop
		out r2           ; emit sum(1..10) = 55
		halt
	`)
	if err != nil {
		panic(err)
	}
	m, _ := reese.Emulate(prog, 0)
	fmt.Println(m.Output()[0])
	// Output: 55
}

// ExampleFaultAt shows a single injected soft error being detected.
func ExampleFaultAt() {
	prog, _ := reese.Workload("li", 0)
	res, _ := reese.Run(reese.StartingConfig().WithReese(), prog, reese.FaultAt(1000, 6), 20_000)
	fmt.Printf("detected=%d recoveries=%d\n", res.FaultsDetected, res.Recoveries)
	// Output: detected=1 recoveries=1
}
