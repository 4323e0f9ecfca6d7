package reach

import (
	"fmt"
	"sort"

	"circ/internal/acfa"
	"circ/internal/cfa"
	"circ/internal/pred"
)

// ARG is the abstract reachability graph built alongside reachability
// (paper Algorithms 2-4). Its locations group abstract thread states; the
// context-state component is dropped. Program operations become edges
// labelled with the written variables; environment moves identify source
// and target locations (ARG condition (4)), implemented with a union-find.
//
// The ARG also records the underlying program-operation transitions
// between thread states, which the refiner uses to concretise abstract
// context paths into CFA paths.
type ARG struct {
	C   *cfa.CFA
	Set *pred.Set

	parent  []int          // union-find over location ids
	region  []*pred.Region // per root: union of member cubes
	cfaLoc  []cfa.Loc      // per location: the shared CFA location
	members [][]ThreadState

	// Every registered thread state gets its own raw location id, so a
	// raw id doubles as a dense thread-state id: states[id] is the thread
	// state it was created for.
	states   []ThreadState
	stateLoc map[tsKey]int // thread-state key -> raw location id

	edges []argEdge // program-op edges (raw ids; canonicalise via Find)

	// opEdges records program transitions at thread-state granularity for
	// trace concretisation, indexed by the source's raw id.
	opEdges [][]OpTransition

	entry int // raw id of the initial thread state; -1 before SetEntry
}

type argEdge struct {
	src, dst int
	havoc    string // the written variable; empty for an assume
}

// OpTransition is a program-op move between two abstract thread states.
type OpTransition struct {
	Edge *cfa.Edge
	Dst  int // raw id of the target thread state
}

// NewARG returns an empty ARG for thread C over predicate set s.
func NewARG(c *cfa.CFA, s *pred.Set) *ARG {
	return &ARG{
		C:        c,
		Set:      s,
		stateLoc: make(map[tsKey]int),
		entry:    -1,
	}
}

// Find returns the canonical location id for id.
func (g *ARG) Find(id int) int {
	for g.parent[id] != id {
		g.parent[id] = g.parent[g.parent[id]]
		id = g.parent[id]
	}
	return id
}

// EntryLoc returns the location of the initial thread state.
func (g *ARG) EntryLoc() int { return g.Find(g.entry) }

// EntryState returns the raw id of the initial thread state.
func (g *ARG) EntryState() int { return g.entry }

// State returns the thread state registered under raw id.
func (g *ARG) State(id int) ThreadState { return g.states[id] }

// NumRawLocs returns the number of allocated (pre-union) location ids.
func (g *ARG) NumRawLocs() int { return len(g.parent) }

// register ensures thread state r has a location (paper Algorithm 3,
// Find). It returns r's raw location id.
func (g *ARG) register(r ThreadState) int {
	key := r.key()
	if id, ok := g.stateLoc[key]; ok {
		return id
	}
	id := len(g.parent)
	g.parent = append(g.parent, id)
	reg := pred.NewRegion(g.Set)
	reg.Add(r.Cube)
	g.region = append(g.region, reg)
	g.cfaLoc = append(g.cfaLoc, r.Loc)
	g.members = append(g.members, []ThreadState{r})
	g.states = append(g.states, r)
	g.opEdges = append(g.opEdges, nil)
	g.stateLoc[key] = id
	return id
}

// SetEntry records the initial thread state.
func (g *ARG) SetEntry(r ThreadState) {
	g.entry = g.register(r)
}

// connectMain records a program-op transition between the thread states
// with raw ids src and dst (paper Algorithm 2). A transition already
// recorded is not repeated: the ACFA conversion unions havoc sets per
// location pair, and path realisation takes the first of equal moves.
func (g *ARG) connectMain(src int, edge *cfa.Edge, dst int) {
	for _, tr := range g.opEdges[src] {
		if tr.Edge == edge && tr.Dst == dst {
			return
		}
	}
	g.edges = append(g.edges, argEdge{src: src, dst: dst, havoc: edge.Op.WritesVar()})
	g.opEdges[src] = append(g.opEdges[src], OpTransition{Edge: edge, Dst: dst})
}

// union merges two locations (paper Algorithm 4). An environment move
// identifies its source and target thread states this way (ARG condition
// (4), the paper's Union for context edges).
func (g *ARG) union(a, b int) {
	ra, rb := g.Find(a), g.Find(b)
	if ra == rb {
		return
	}
	if g.cfaLoc[ra] != g.cfaLoc[rb] {
		panic(fmt.Sprintf("reach: union across CFA locations %d and %d", g.cfaLoc[ra], g.cfaLoc[rb]))
	}
	g.parent[rb] = ra
	g.region[ra].AddRegion(g.region[rb])
	g.members[ra] = append(g.members[ra], g.members[rb]...)
	g.region[rb] = nil
	g.members[rb] = nil
}

// OpTransitionsFrom returns the recorded program transitions out of the
// thread state with raw id.
func (g *ARG) OpTransitionsFrom(id int) []OpTransition { return g.opEdges[id] }

// Roots returns the canonical location ids in ascending order.
func (g *ARG) Roots() []int {
	var out []int
	for id := range g.parent {
		if g.Find(id) == id {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// Region returns the label region of canonical location id.
func (g *ARG) Region(id int) *pred.Region { return g.region[g.Find(id)] }

// CFALoc returns the CFA location shared by the states of location id.
func (g *ARG) CFALoc(id int) cfa.Loc { return g.cfaLoc[g.Find(id)] }

// Members returns the thread states grouped at canonical location id.
func (g *ARG) Members(id int) []ThreadState { return g.members[g.Find(id)] }

// ToACFA converts the ARG into an ACFA whose labels are the location
// regions projected to global variables and whose edge havoc sets are
// intersected with the globals (local writes become tau edges). It also
// returns the map from canonical ARG location ids to ACFA locations.
func (g *ARG) ToACFA() (*acfa.ACFA, map[int]acfa.Loc) {
	a := &acfa.ACFA{}
	locMap := make(map[int]acfa.Loc)
	roots := g.Roots()
	for _, r := range roots {
		label := g.region[r].ProjectLocals(g.C.IsGlobal)
		locMap[r] = a.AddLoc(label, g.C.IsAtomic(g.cfaLoc[r]))
	}
	// Group edges by canonical endpoints, union havoc sets.
	type pair struct{ s, d acfa.Loc }
	grouped := make(map[pair]map[string]bool)
	for _, e := range g.edges {
		p := pair{locMap[g.Find(e.src)], locMap[g.Find(e.dst)]}
		hs, ok := grouped[p]
		if !ok {
			hs = make(map[string]bool)
			grouped[p] = hs
		}
		if e.havoc != "" && g.C.IsGlobal(e.havoc) {
			hs[e.havoc] = true
		}
	}
	pairs := make([]pair, 0, len(grouped))
	for p := range grouped {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].s != pairs[j].s {
			return pairs[i].s < pairs[j].s
		}
		return pairs[i].d < pairs[j].d
	})
	for _, p := range pairs {
		hs := grouped[p]
		havoc := make([]string, 0, len(hs))
		for v := range hs {
			havoc = append(havoc, v)
		}
		a.AddEdge(p.s, p.d, havoc)
	}
	if g.entry >= 0 {
		a.Entry = locMap[g.EntryLoc()]
	}
	a.Finish()
	return a, locMap
}
