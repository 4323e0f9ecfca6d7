package reach

import (
	"context"
	"errors"
	"strings"
	"testing"

	"circ/internal/acfa"
	"circ/internal/cfa"
	"circ/internal/expr"
	"circ/internal/lang"
	"circ/internal/pred"
	"circ/internal/smt"
	"circ/internal/telemetry"
)

func buildCFA(t testing.TB, src string) *cfa.CFA {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := cfa.Build(p, "")
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return c
}

func TestCtxCounters(t *testing.T) {
	c := Ctx{0, 1, Omega}
	if c.Occupied(0) || !c.Occupied(1) || !c.Occupied(2) {
		t.Fatalf("Occupied broken")
	}
	if c.AtLeastTwo(1) || !c.AtLeastTwo(2) {
		t.Fatalf("AtLeastTwo broken")
	}
	// Inc saturates above k.
	d := c.Inc(1, 1)
	if d[1] != Omega {
		t.Fatalf("Inc(1,k=1) = %v", d)
	}
	d = c.Inc(0, 2)
	if d[0] != 1 {
		t.Fatalf("Inc = %v", d)
	}
	// Dec of omega stays omega; of 1 goes to 0.
	d = c.Dec(2)
	if d[2] != Omega {
		t.Fatalf("Dec(omega) = %v", d)
	}
	d = c.Dec(1)
	if d[1] != 0 {
		t.Fatalf("Dec(1) = %v", d)
	}
	if c.Key() != "0,1,w" {
		t.Fatalf("Key = %q", c.Key())
	}
	// Clone must not alias.
	e := c.CloneCtx()
	e[0] = 5
	if c[0] != 0 {
		t.Fatalf("CloneCtx aliased")
	}
}

func TestReachEmptyContextNoRace(t *testing.T) {
	// A single thread can never race with a do-nothing context.
	c := buildCFA(t, `
global int x;
thread T {
  while (1) { x = x + 1; }
}
`)
	chk := smt.NewChecker()
	set := pred.NewSet()
	abs := pred.NewAbstractor(chk, set)
	res, err := ReachAndBuild(context.Background(), c, acfa.Empty(set), abs, "x", Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) != 0 {
		t.Fatalf("race against empty context: %v", res.Races[0])
	}
	if res.NumStates == 0 || len(res.ARG.Roots()) == 0 {
		t.Fatalf("no exploration happened")
	}
}

func TestReachFindsRaceUnderWritingContext(t *testing.T) {
	c := buildCFA(t, `
global int x;
thread T {
  while (1) { x = x + 1; }
}
`)
	chk := smt.NewChecker()
	set := pred.NewSet()
	abs := pred.NewAbstractor(chk, set)
	// Context that can write x from its entry.
	a := acfa.Empty(set)
	l1 := a.AddLoc(pred.TrueRegion(set), false)
	a.AddEdge(a.Entry, l1, []string{"x"})
	a.AddEdge(l1, a.Entry, nil)
	a.Finish()
	res, err := ReachAndBuild(context.Background(), c, a, abs, "x", Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) == 0 {
		t.Fatalf("expected a race against an x-writing context")
	}
	tr := res.Races[0]
	if len(tr.States) != len(tr.Steps)+1 {
		t.Fatalf("malformed trace: %d states, %d steps", len(tr.States), len(tr.Steps))
	}
}

func TestOmegaEntryWriterRacesWithItself(t *testing.T) {
	// Omega threads parked at an x-writing location race pairwise even if
	// the main thread never touches x.
	c := buildCFA(t, `
global int x;
thread T {
  while (1) { atomic { x = x + 1; } }
}
`)
	chk := smt.NewChecker()
	set := pred.NewSet()
	abs := pred.NewAbstractor(chk, set)
	a := acfa.Empty(set)
	l1 := a.AddLoc(pred.TrueRegion(set), false)
	a.AddEdge(a.Entry, l1, []string{"x"})
	a.AddEdge(l1, a.Entry, nil)
	a.Finish()
	res, err := ReachAndBuild(context.Background(), c, a, abs, "x", Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) == 0 {
		t.Fatalf("context-context race among omega entry threads not detected")
	}
}

func TestAtomicBlocksContextMoves(t *testing.T) {
	// While the main thread sits at an atomic location, no environment
	// move may fire (atomic scheduling).
	c := buildCFA(t, `
global int x;
thread T {
  while (1) { atomic { x = x + 1; } }
}
`)
	chk := smt.NewChecker()
	set := pred.NewSet()
	abs := pred.NewAbstractor(chk, set)
	a := acfa.Empty(set)
	l1 := a.AddLoc(pred.TrueRegion(set), false)
	a.AddEdge(a.Entry, l1, []string{"x"})
	a.Finish()
	e := newExplorer(c, a, abs, "x", Options{K: 1})
	// Find an atomic main location.
	var atomicLoc cfa.Loc = -1
	for l := 0; l < c.NumLocs(); l++ {
		if c.IsAtomic(cfa.Loc(l)) {
			atomicLoc = cfa.Loc(l)
			break
		}
	}
	if atomicLoc < 0 {
		t.Fatalf("no atomic location in CFA")
	}
	ctx := make(Ctx, a.NumLocs())
	ctx[a.Entry] = Omega
	st := node{ts: ThreadState{Loc: atomicLoc, Cube: pred.TopCube(set)}, ctx: e.ctxs.intern(ctx)}
	for _, s := range e.successors(st, nil) {
		if s.op.IsEnv() {
			t.Fatalf("environment move fired while main is atomic: %v", s.op)
		}
	}
	// And a race must not be reported at an atomic state.
	if e.isRace(st) {
		t.Fatalf("race reported while main is atomic")
	}
}

func TestContextContextRace(t *testing.T) {
	// Main never accesses x, but two context threads can both reach a
	// writing location: context-context write-write race.
	c := buildCFA(t, `
global int x;
global int y;
thread T {
  while (1) { y = y + 1; }
}
`)
	chk := smt.NewChecker()
	set := pred.NewSet()
	abs := pred.NewAbstractor(chk, set)
	a := acfa.Empty(set)
	l1 := a.AddLoc(pred.TrueRegion(set), false)
	a.AddEdge(a.Entry, l1, nil)
	a.AddEdge(l1, a.Entry, []string{"x"})
	a.Finish()
	res, err := ReachAndBuild(context.Background(), c, a, abs, "x", Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) == 0 {
		t.Fatalf("context-context race not detected")
	}
}

func TestExactSeedLimitsThreads(t *testing.T) {
	// With ExactSeed and K=0 there are no context threads at all, so no
	// env moves can happen.
	c := buildCFA(t, `
global int x;
thread T {
  while (1) { x = x + 1; }
}
`)
	chk := smt.NewChecker()
	set := pred.NewSet()
	abs := pred.NewAbstractor(chk, set)
	a := acfa.Empty(set)
	l1 := a.AddLoc(pred.TrueRegion(set), false)
	a.AddEdge(a.Entry, l1, []string{"x"})
	a.Finish()
	res, err := ReachAndBuild(context.Background(), c, a, abs, "x", Options{K: 0, ExactSeed: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) != 0 {
		t.Fatalf("race with zero context threads")
	}
}

func TestARGEnvIdentification(t *testing.T) {
	// Environment moves register successor thread states at the same ARG
	// location (condition (4) of the ARG definition).
	c := buildCFA(t, `
global int g;
thread T {
  while (1) { g = g + 1; }
}
`)
	chk := smt.NewChecker()
	set := pred.NewSet(expr.Eq(expr.V("g"), expr.Num(0)))
	abs := pred.NewAbstractor(chk, set)
	a := acfa.Empty(set)
	l1 := a.AddLoc(pred.TrueRegion(set), false)
	a.AddEdge(a.Entry, l1, []string{"g"})
	a.AddEdge(l1, a.Entry, []string{"g"})
	a.Finish()
	res, err := ReachAndBuild(context.Background(), c, a, abs, "g", Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := res.ARG
	// For every location, all member thread states share one CFA loc.
	for _, root := range g.Roots() {
		locs := map[cfa.Loc]bool{}
		for _, m := range g.Members(root) {
			locs[m.Loc] = true
		}
		if len(locs) != 1 {
			t.Fatalf("ARG location %d mixes CFA locations %v", root, locs)
		}
	}
}

func TestARGToACFAProjectsLocals(t *testing.T) {
	c := buildCFA(t, `
global int g;
thread T {
  local int l;
  l = g;
  g = l + 1;
}
`)
	chk := smt.NewChecker()
	set := pred.NewSet(
		expr.Eq(expr.V("l"), expr.V("g")),
		expr.Eq(expr.V("g"), expr.Num(0)),
	)
	abs := pred.NewAbstractor(chk, set)
	res, err := ReachAndBuild(context.Background(), c, acfa.Empty(set), abs, "g", Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, locMap := res.ARG.ToACFA()
	if len(locMap) != len(res.ARG.Roots()) {
		t.Fatalf("locMap incomplete")
	}
	// No ACFA label may mention the local l.
	for l := 0; l < a.NumLocs(); l++ {
		f := a.Label(acfa.Loc(l)).Formula()
		if expr.Mentions(f, "l") {
			t.Fatalf("label %v mentions local", f)
		}
	}
	// Havoc sets contain only globals.
	for _, e := range a.Edges {
		for _, v := range e.Havoc {
			if v != "g" {
				t.Fatalf("non-global havoc %q", v)
			}
		}
	}
}

// testAndSet returns the test-and-set program under a context that
// havocs both globals: a few hundred states with several races on x.
func testAndSet(t *testing.T) (*cfa.CFA, *acfa.ACFA, *pred.Abstractor) {
	t.Helper()
	c := buildCFA(t, `
global int x;
global int state;
thread T {
  local int old;
  while (1) {
    atomic {
      old = state;
      if (state == 0) { state = 1; }
    }
    if (old == 0) {
      x = x + 1;
      state = 0;
    }
  }
}
`)
	set := pred.NewSet()
	abs := pred.NewAbstractor(smt.NewCachedChecker(), set)
	a := acfa.Empty(set)
	l1 := a.AddLoc(pred.TrueRegion(set), false)
	a.AddEdge(a.Entry, l1, []string{"x", "state"})
	a.AddEdge(l1, a.Entry, []string{"x", "state"})
	a.Finish()
	return c, a, abs
}

// TestStateBudget: a run that needs exactly MaxStates states completes;
// one state fewer fails with the budget error.
func TestStateBudget(t *testing.T) {
	c, a, abs := testAndSet(t)
	full, err := ReachAndBuild(context.Background(), c, a, abs, "x", Options{K: 2, MaxRaces: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReachAndBuild(context.Background(), c, a, abs, "x",
		Options{K: 2, MaxRaces: 1000, MaxStates: full.NumStates}); err != nil {
		t.Fatalf("MaxStates = NumStates (%d): %v", full.NumStates, err)
	}
	_, err = ReachAndBuild(context.Background(), c, a, abs, "x",
		Options{K: 2, MaxRaces: 1000, MaxStates: full.NumStates - 1})
	if err == nil || !strings.Contains(err.Error(), "state budget exceeded") {
		t.Fatalf("MaxStates = %d: err = %v, want state budget exceeded", full.NumStates-1, err)
	}
}

// TestStealBudgetExceeded: a budget far below the state count stops the
// test-and-set run early with the budget error and no partial result.
func TestStealBudgetExceeded(t *testing.T) {
	c, a, abs := testAndSet(t)
	res, err := ReachAndBuild(context.Background(), c, a, abs, "x", Options{K: 2, MaxStates: 10})
	if err == nil || !strings.Contains(err.Error(), "state budget exceeded") {
		t.Fatalf("err = %v, want state budget exceeded", err)
	}
	if res != nil {
		t.Fatalf("budget error returned a result with %d states", res.NumStates)
	}
}

// TestRaceCap: exploration stops at the MaxRaces-th race, returning the
// same shortest-first traces an uncapped run reports first.
func TestRaceCap(t *testing.T) {
	c, a, abs := testAndSet(t)
	all, err := ReachAndBuild(context.Background(), c, a, abs, "x", Options{K: 2, MaxRaces: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Races) <= 2 {
		t.Fatalf("fixture finds %d races, want more than 2", len(all.Races))
	}
	capped, err := ReachAndBuild(context.Background(), c, a, abs, "x", Options{K: 2, MaxRaces: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.Races) != 2 {
		t.Fatalf("race cap ignored: %d races", len(capped.Races))
	}
	for i, tr := range capped.Races {
		if tr.String() != all.Races[i].String() {
			t.Fatalf("capped race %d differs from the uncapped run's:\n%s\nvs\n%s", i, tr, all.Races[i])
		}
	}
	if capped.NumStates >= all.NumStates {
		t.Fatalf("capped run explored %d states, uncapped %d; want fewer", capped.NumStates, all.NumStates)
	}
}

// TestReachCounters: the registry's state and race counters match the
// result, and the frontier gauge and post-cache counters are recorded.
func TestReachCounters(t *testing.T) {
	c, a, abs := testAndSet(t)
	reg := telemetry.NewRegistry()
	res, err := ReachAndBuild(context.Background(), c, a, abs, "x", Options{K: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["reach.states"] != int64(res.NumStates) {
		t.Fatalf("reach.states = %d, want %d", snap.Counters["reach.states"], res.NumStates)
	}
	if snap.Counters["reach.races"] != int64(len(res.Races)) {
		t.Fatalf("reach.races = %d, want %d", snap.Counters["reach.races"], len(res.Races))
	}
	if snap.Gauges["reach.frontier.max"] < 1 {
		t.Fatalf("reach.frontier.max = %d, want >= 1", snap.Gauges["reach.frontier.max"])
	}
	if snap.Counters["reach.post.cache.misses"] == 0 || snap.Counters["reach.post.cache.hits"] == 0 {
		t.Fatalf("post cache counters not recorded: %v", snap.Counters)
	}
}

// TestReachCancellation: a cancelled context stops exploration with the
// context's error.
func TestReachCancellation(t *testing.T) {
	c := buildCFA(t, `
global int x;
thread T {
  while (1) { x = x + 1; }
}
`)
	chk := smt.NewChecker()
	set := pred.NewSet()
	abs := pred.NewAbstractor(chk, set)
	a := acfa.Empty(set)
	l1 := a.AddLoc(pred.TrueRegion(set), false)
	a.AddEdge(a.Entry, l1, []string{"x"})
	a.Finish()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ReachAndBuild(ctx, c, a, abs, "x", Options{K: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestTraceStringAndOpString(t *testing.T) {
	c := buildCFA(t, `
global int x;
thread T {
  while (1) { x = x + 1; }
}
`)
	chk := smt.NewChecker()
	set := pred.NewSet()
	abs := pred.NewAbstractor(chk, set)
	a := acfa.Empty(set)
	l1 := a.AddLoc(pred.TrueRegion(set), false)
	a.AddEdge(a.Entry, l1, []string{"x"})
	a.Finish()
	res, err := ReachAndBuild(context.Background(), c, a, abs, "x", Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Race() == nil {
		t.Fatalf("expected race")
	}
	if res.Race().String() == "" {
		t.Fatalf("empty trace render")
	}
	for _, s := range res.Race().Steps {
		if s.String() == "" {
			t.Fatalf("empty op render")
		}
	}
}

// TestStateIdentityIsValuation pins the state-key contract: a state's
// cube identity is its three-valued vector, not its FormulaID. A set may
// hold an atom and its negation (pred.Set.Add does not reject it), so
// "p true" and "¬p false" are different valuations of one formula; they
// must stay distinct states and distinct ARG thread states.
func TestStateIdentityIsValuation(t *testing.T) {
	c := buildCFA(t, `
global int x;
thread T {
  while (1) { x = x + 1; }
}
`)
	p := expr.Eq(expr.V("x"), expr.Num(0))
	set := pred.NewSet(p, expr.Negate(p))
	if set.Len() != 2 {
		t.Fatalf("set rejected the negated atom: %s", set)
	}
	c1 := pred.NewCube(set, map[int]pred.TV{0: pred.True})
	c2 := pred.NewCube(set, map[int]pred.TV{1: pred.False})
	if c1.FormulaID() != c2.FormulaID() {
		t.Fatalf("fixture cubes %s and %s no longer share a FormulaID", c1.Key(), c2.Key())
	}
	abs := pred.NewAbstractor(smt.NewChecker(), set)
	a := acfa.Empty(set)
	e := newExplorer(c, a, abs, "x", Options{K: 1})
	ctx := e.ctxs.intern(make(Ctx, a.NumLocs()))
	n1 := node{ts: ThreadState{Loc: c.Entry, Cube: c1, vid: e.cubes.intern(c1)}, ctx: ctx}
	n2 := node{ts: ThreadState{Loc: c.Entry, Cube: c2, vid: e.cubes.intern(c2)}, ctx: ctx}
	n3 := node{ts: ThreadState{Loc: c.Entry, Cube: c2.Clone(), vid: e.cubes.intern(c2.Clone())}, ctx: ctx}
	arg := NewARG(c, set)
	arg.SetEntry(n1.ts)
	ts2, ts3 := arg.register(n2.ts), arg.register(n3.ts)
	if ts2 == arg.EntryState() || ts3 != ts2 {
		t.Fatalf("ARG thread-state ids: entry %d, %s -> %d, copy of %s -> %d; want the valuations apart and the copies together",
			arg.EntryState(), c2.Key(), ts2, c2.Key(), ts3)
	}
	d := newDiscovered(n1, arg.EntryState())
	if !d.add(n2, ts2, 0, Op{}) || d.len() != 2 {
		t.Fatalf("second valuation was merged into the first state")
	}
	if d.add(n3, ts3, 0, Op{}) {
		t.Fatalf("an equal valuation was discovered twice")
	}
}
