package main

import (
	"fmt"

	"circ"
	"circ/internal/explicit"
)

// The explicit-state oracle follows the cross-validation rules of the
// repository's fuzz test: a CIRC "safe" must have no race with two
// threads, and a CIRC "unsafe" must have a race with two or three
// threads. Values wrap at 16 and havoc ranges over every constant the
// programs compare against.
var oracleOpts = explicit.Options{ValueBound: 16, HavocDomain: []int64{-1, 0, 1, 2, 3, 4}}

// State budgets of the 2-thread search and the 3-thread confirmation;
// -crosscheck raises both.
var oracleStates2, oracleStates3 = 400000, 400000

// exploreRaces searches the n-thread symmetric instance of thread once,
// breadth first, for races on every variable in vars. It returns the
// variables with a reachable race and whether the search finished inside
// the budget; when it did not, variables outside racy are undecided.
func exploreRaces(p *circ.Program, thread string, n int, vars []string, budget int) (racy map[string]bool, complete bool, err error) {
	g, err := p.CFA(thread)
	if err != nil {
		return nil, false, err
	}
	in := explicit.NewSymmetric(g, n)
	racy = map[string]bool{}
	init := in.InitialConfig()
	seen := map[string]bool{init.Key(): true}
	queue := []*explicit.Config{init}
	for len(queue) > 0 {
		if len(seen) > budget {
			return racy, false, nil
		}
		c := queue[0]
		queue = queue[1:]
		for _, x := range vars {
			if !racy[x] && in.IsRace(c, x) {
				racy[x] = true
			}
		}
		if len(racy) == len(vars) {
			return racy, true, nil
		}
		succs, _, err := in.Successors(c, oracleOpts.HavocDomain, oracleOpts.ValueBound)
		if err != nil {
			return nil, false, err
		}
		for _, s := range succs {
			if k := s.Key(); !seen[k] {
				seen[k] = true
				queue = append(queue, s)
			}
		}
	}
	return racy, true, nil
}

// oracleOutcome tallies one program's oracle comparison.
type oracleOutcome struct {
	agreed, undecided int
	mismatches        []string
}

// judge compares CIRC's verdicts (target "Thread/var" -> verdict) on one
// program against the explicit search. Unknown and error verdicts are
// failures counted elsewhere and are not judged here.
func judge(name string, p *circ.Program, verdicts map[string]string) (oracleOutcome, error) {
	var out oracleOutcome
	byThread := map[string][]string{}
	for _, th := range p.ThreadNames() {
		for _, g := range p.Globals() {
			if v := verdicts[th+"/"+g]; v == "safe" || v == "unsafe" {
				byThread[th] = append(byThread[th], g)
			}
		}
	}
	for _, th := range p.ThreadNames() {
		vars := byThread[th]
		if len(vars) == 0 {
			continue
		}
		racy2, complete2, err := exploreRaces(p, th, 2, vars, oracleStates2)
		if err != nil {
			return out, fmt.Errorf("%s: explicit: %v", name, err)
		}
		for _, x := range vars {
			key := th + "/" + x
			switch verdicts[key] {
			case "safe":
				switch {
				case racy2[x]:
					out.mismatches = append(out.mismatches, name+" "+key+": CIRC safe, 2-thread race exists")
				case complete2:
					out.agreed++
				default:
					out.undecided++
				}
			case "unsafe":
				if racy2[x] {
					out.agreed++
					continue
				}
				racy3, complete3, err := exploreRaces(p, th, 3, []string{x}, oracleStates3)
				switch {
				case err != nil:
					return out, fmt.Errorf("%s: explicit: %v", name, err)
				case racy3[x]:
					out.agreed++
				case complete2 && complete3:
					out.mismatches = append(out.mismatches, name+" "+key+": CIRC unsafe, no 2- or 3-thread race")
				default:
					out.undecided++
				}
			}
		}
	}
	return out, nil
}
