package main

import (
	"fmt"

	"circ"
)

// crossCheckStates is the cross-check's state budget: appmodel's 2-thread
// search needs about a million states, beyond the oracle's default.
const crossCheckStates = 1200000

// runCrossCheck compares every verdict of expected.json with the
// explicit-state search (two threads; three to confirm an expected race)
// under the oracle's rules. It never consults CIRC. It prints one line per
// program and returns a non-zero exit code on any disagreement.
func runCrossCheck() int {
	oracleStates2, oracleStates3 = crossCheckStates, crossCheckStates
	names := append(append([]string(nil), engineCorpus...), triageCorpus...)
	ps, err := loadCorpus(names)
	if err != nil {
		fmt.Println("crosscheck:", err)
		return 2
	}
	code := 0
	for _, p := range ps {
		prog, err := circ.Parse(p.Source)
		if err != nil {
			fmt.Println("crosscheck:", err)
			return 2
		}
		o, err := judge(p.Name, prog, p.Expect)
		if err != nil {
			fmt.Println("crosscheck:", err)
			return 2
		}
		fmt.Printf("%-30s agreed=%d undecided=%d\n", p.Name, o.agreed, o.undecided)
		for _, m := range o.mismatches {
			fmt.Println("  MISMATCH:", m)
			code = 1
		}
	}
	return code
}
