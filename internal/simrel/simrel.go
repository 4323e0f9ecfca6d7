// Package simrel implements CheckSim, the paper's guarantee check: a weak
// simulation preorder between ACFAs. A simulates G when every behaviour of
// G — location labels (over the globals), atomicity, and havoc effects —
// can be matched by A, with G's strong moves answered by A's weak
// (tau*-Y-tau*) moves whose havoc sets are at least as permissive.
package simrel

import (
	"circ/internal/acfa"
	"circ/internal/expr"
	"circ/internal/smt"
)

// Simulates reports whether a simulates g (g \preceq a): there is a weak
// simulation relating g's entry to a's entry.
func Simulates(g, a *acfa.ACFA, chk smt.Solver) bool {
	return Relation(g, a, chk).Has(g.Entry, a.Entry)
}

// Rel is a relation between the locations of two ACFAs, stored as a dense
// row-major matrix over (g location, a location).
type Rel struct {
	na int
	in []bool
}

// Has reports whether (x, y) is in the relation.
func (r *Rel) Has(x, y acfa.Loc) bool { return r.in[int(x)*r.na+int(y)] }

func (r *Rel) drop(x, y acfa.Loc) { r.in[int(x)*r.na+int(y)] = false }

// Relation computes the largest weak simulation between g and a.
func Relation(g, a *acfa.ACFA, chk smt.Solver) *Rel {
	ng, na := g.NumLocs(), a.NumLocs()
	rel := &Rel{na: na, in: make([]bool, ng*na)}
	// Initialise with the static conditions: label implication and equal
	// atomicity. Each label is interned once, on first use, and each pair
	// issues the query Implies would: sat(g_x ∧ ¬a_y).
	gLabel := make([]expr.ID, ng)
	aNegLabel := make([]expr.ID, na)
	gDone, aDone := make([]bool, ng), make([]bool, na)
	for x := 0; x < ng; x++ {
		for y := 0; y < na; y++ {
			if g.IsAtomic(acfa.Loc(x)) != a.IsAtomic(acfa.Loc(y)) {
				continue
			}
			if !gDone[x] {
				gLabel[x], gDone[x] = expr.Intern(g.Label(acfa.Loc(x)).Formula()), true
			}
			if !aDone[y] {
				aNegLabel[y], aDone[y] = expr.InternNot(expr.Intern(a.Label(acfa.Loc(y)).Formula())), true
			}
			rel.in[x*na+y] = chk.SatID(expr.IDConj(gLabel[x], aNegLabel[y])) == smt.Unsat
		}
	}
	weakA := acfa.WeakMoves(a)
	// Greatest fixpoint: drop pairs whose moves cannot be matched.
	for {
		changed := false
		for x := 0; x < ng; x++ {
			for y := 0; y < na; y++ {
				if !rel.Has(acfa.Loc(x), acfa.Loc(y)) {
					continue
				}
				if !movesMatched(g, acfa.Loc(x), acfa.Loc(y), weakA, rel) {
					rel.drop(acfa.Loc(x), acfa.Loc(y))
					changed = true
				}
			}
		}
		if !changed {
			return rel
		}
	}
}

// movesMatched checks that every strong move of g from x is matched by a
// weak move of a from y landing in a related pair.
func movesMatched(g *acfa.ACFA, x, y acfa.Loc, weakA [][]acfa.WeakMove, rel *Rel) bool {
	for _, e := range g.OutEdges(x) {
		matched := false
		for _, m := range weakA[y] {
			if !havocCovers(m.Havoc, e.Havoc) {
				continue
			}
			if rel.Has(e.Dst, m.Dst) {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	return true
}

// havocCovers reports whether sup (a weak move's havoc, possibly empty for
// pure tau) covers sub: sub must be a subset of sup, with the pure-tau
// move covering only empty sub. Both lists are sorted.
func havocCovers(sup, sub []string) bool {
	if len(sub) == 0 {
		return true // a tau move of g is matched by any weak move ending related; prefer tau
	}
	i := 0
	for _, v := range sub {
		for i < len(sup) && sup[i] < v {
			i++
		}
		if i == len(sup) || sup[i] != v {
			return false
		}
	}
	return true
}
