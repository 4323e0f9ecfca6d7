package reach

import (
	"context"
	"fmt"

	"circ/internal/acfa"
	"circ/internal/cfa"
	"circ/internal/expr"
	"circ/internal/journal"
	"circ/internal/pred"
	"circ/internal/smt"
	"circ/internal/telemetry"
)

// Options configures ReachAndBuild.
type Options struct {
	// K is the counter parameter: counts above K abstract to Omega.
	K int
	// ExactSeed seeds the ACFA entry location with exactly K threads
	// instead of Omega (the omega-CIRC ReachAndBuild_k variant).
	ExactSeed bool
	// MaxStates bounds exploration; 0 means the default (200000).
	MaxStates int
	// MaxRaces caps how many distinct race traces are collected; 0 means
	// the default (64).
	MaxRaces int
	// Metrics, when non-nil, receives exploration counters (states,
	// frontier high-water mark, post-cache effectiveness, races).
	// Telemetry never affects the verdict, only observes it.
	Metrics *telemetry.Registry
}

func (o Options) maxStates() int {
	if o.MaxStates > 0 {
		return o.MaxStates
	}
	return 200000
}

func (o Options) maxRaces() int {
	if o.MaxRaces > 0 {
		return o.MaxRaces
	}
	return 64
}

// Result is the outcome of ReachAndBuild.
type Result struct {
	// Races holds the abstract counterexamples for every reachable race
	// state (shortest first, capped at MaxRaces). Exploring all of them
	// lets the refiner fall back to alternative interleavings when the
	// first trace is spurious for reasons the abstraction cannot express.
	Races []*Trace
	// ARG is the abstract reachability graph built during exploration.
	ARG *ARG
	// NumStates is the number of distinct abstract states explored.
	NumStates int
}

// Race returns the first (shortest) race trace, or nil.
func (r *Result) Race() *Trace {
	if len(r.Races) == 0 {
		return nil
	}
	return r.Races[0]
}

// ReachAndBuild explores the abstract multithreaded program ((C,P),(A,k)),
// checking for races on raceVar, and builds the ARG. abs carries the
// predicate set P and the SMT solver. The context cancels long runs
// between state expansions.
func ReachAndBuild(ctx context.Context, C *cfa.CFA, A *acfa.ACFA, abs *pred.Abstractor, raceVar string, opts Options) (*Result, error) {
	e := newExplorer(C, A, abs, raceVar, opts)
	// Instrument handles are fetched once; with a nil registry they are nil
	// and every update on the hot path degrades to a nil check.
	if reg := opts.Metrics; reg != nil {
		e.cStates = reg.Counter("reach.states")
		e.cRaces = reg.Counter("reach.races")
		e.cPostHits = reg.Counter("reach.post.cache.hits")
		e.cPostMisses = reg.Counter("reach.post.cache.misses")
		e.gFrontier = reg.Gauge("reach.frontier.max")
	}
	e.j = journal.FromContext(ctx)
	ctx, sp := telemetry.StartSpan(ctx, "reach")
	res, err := e.run(ctx)
	if res != nil {
		sp.Annotate("states", res.NumStates)
		sp.Annotate("races", len(res.Races))
	}
	sp.End()
	return res, err
}

// postKey identifies an abstract-post computation. Posts are a pure
// function of the source cube's canonical formula (its interned ID) and
// the edge being taken, so the key is a small comparable struct — no
// string is built on the cache path, and states whose cubes differ only
// in spelling share entries. Main edges are identified by (source
// location, edge index); env moves by (ACFA location, edge index, target
// cube index) — the main-thread location is irrelevant to an env post,
// which widens sharing further.
type postKey struct {
	fid     expr.ID
	kind    byte // 'm' main edge, 'e' env move
	a, b, c int32
}

func mainPostKey(fid expr.ID, loc cfa.Loc, ei int) postKey {
	return postKey{fid: fid, kind: 'm', a: int32(loc), b: int32(ei)}
}

func envPostKey(fid expr.ID, n acfa.Loc, ai, ti int) postKey {
	return postKey{fid: fid, kind: 'e', a: int32(n), b: int32(ai), c: int32(ti)}
}

// postVal is a memoised post: the successor cube and its valuation ID,
// or a nil cube for bottom.
type postVal struct {
	cube *pred.Cube
	vid  int32
}

type explorer struct {
	C       *cfa.CFA
	A       *acfa.ACFA
	abs     *pred.Abstractor
	raceVar string
	opts    Options

	// posts memoises abstract posts: states sharing a cube formula but
	// differing in counters or spelling would otherwise recompute
	// identical SMT-heavy posts. A nil cube records bottom.
	posts map[postKey]postVal
	cubes cubeTable
	ctxs  *ctxTable

	// recs is the successor buffer, reused across expansions: merge
	// consumes a state's successors before the next state is expanded.
	recs []succRecord

	// Telemetry handles, nil when no registry is configured (each update
	// is then a single nil check — see BenchmarkReachTelemetry).
	cStates, cRaces        *telemetry.Counter
	cPostHits, cPostMisses *telemetry.Counter
	gFrontier              *telemetry.Gauge

	// j records counter-widening events.
	j *journal.Stream
}

func newExplorer(C *cfa.CFA, A *acfa.ACFA, abs *pred.Abstractor, raceVar string, opts Options) *explorer {
	return &explorer{
		C: C, A: A, abs: abs, raceVar: raceVar, opts: opts,
		posts: make(map[postKey]postVal),
		cubes: make(cubeTable),
		ctxs:  newCtxTable(A, opts.K),
	}
}

// cachedPost memoises the abstract post computed by compute under key,
// interning the successor cube's valuation on a miss.
func (e *explorer) cachedPost(key postKey, compute func() *pred.Cube) postVal {
	if v, ok := e.posts[key]; ok {
		e.cPostHits.Inc()
		return v
	}
	e.cPostMisses.Inc()
	var v postVal
	if c := compute(); c != nil {
		v = postVal{cube: c, vid: e.cubes.intern(c)}
	}
	e.posts[key] = v
	return v
}

// run is the exploration loop: a FIFO breadth-first search in which the
// discovery record doubles as the worklist. State i is expanded, counted
// against the state budget, checked for a race, and its successors are
// merged; newly found states are appended to the record and expanded in
// turn.
func (e *explorer) run(ctx context.Context) (*Result, error) {
	arg, d := e.seed()
	var races []*Trace
	// widened tracks which context locations have already been journalled
	// as saturating their counter to omega (reported once per run).
	var widened map[acfa.Loc]bool
	if e.j.Enabled() {
		widened = make(map[acfa.Loc]bool)
	}
	for i := int32(0); i < d.len(); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := d.at(i).n
		e.recs = e.successors(n, e.recs[:0])
		e.cStates.Inc()
		if int(i) >= e.opts.maxStates() {
			return nil, fmt.Errorf("reach: state budget exceeded (%d states)", e.opts.maxStates())
		}
		if e.isRace(n) {
			e.cRaces.Inc()
			races = append(races, d.trace(i))
			if len(races) >= e.opts.maxRaces() {
				// Enough counterexamples for this refinement round; the
				// ARG is partial but unused on the error path.
				return &Result{Races: races, ARG: arg, NumStates: int(i) + 1}, nil
			}
		}
		e.merge(arg, d, i, e.recs, widened)
		e.gFrontier.Max(int64(d.len() - i - 1))
	}
	return &Result{Races: races, ARG: arg, NumStates: int(d.len())}, nil
}

// seed builds the ARG and the discovery record, holding the initial
// state.
func (e *explorer) seed() (*ARG, *discovered) {
	arg := NewARG(e.C, e.abs.Set)
	allVars := append(append([]string(nil), e.C.Globals...), e.C.Locals...)
	cube0 := e.abs.InitialCube(allVars)
	ctx0 := make(Ctx, e.A.NumLocs())
	if e.opts.ExactSeed {
		ctx0[e.A.Entry] = e.opts.K
	} else {
		ctx0[e.A.Entry] = Omega
	}
	init := node{
		ts:  ThreadState{Loc: e.C.Entry, Cube: cube0, vid: e.cubes.intern(cube0)},
		ctx: e.ctxs.intern(ctx0),
	}
	arg.SetEntry(init.ts)
	return arg, newDiscovered(init, arg.EntryState())
}

// emitWidened journals context locations whose counter just saturated to
// omega on the parent→child transition, once per run.
func (e *explorer) emitWidened(widened map[acfa.Loc]bool, parent, child *ctxEntry) {
	if widened == nil || parent == child {
		return
	}
	// A location whose counter just saturated (the parent's was finite)
	// crossed k → omega on this transition. The omega-seeded entry never
	// trips this: its parent value is already Omega.
	for n, v := range child.vec {
		l := acfa.Loc(n)
		if v == Omega && parent.vec[l] != Omega && !widened[l] {
			widened[l] = true
			e.j.Emit(journal.Event{
				Type: journal.EvCounterWidened,
				Loc:  n, K: e.opts.K,
			})
		}
	}
}

// merge records the successors of discovered state i in the ARG and in
// d, in record order; the newly discovered states are appended to d.
func (e *explorer) merge(arg *ARG, d *discovered, i int32, recs []succRecord, widened map[acfa.Loc]bool) {
	src := d.at(i)
	srcCtx, srcTS := src.n.ctx, int(src.ts)
	for _, rec := range recs {
		dst := arg.register(rec.n.ts)
		if rec.op.IsEnv() {
			arg.union(srcTS, dst)
		} else {
			arg.connectMain(srcTS, rec.op.MainEdge, dst)
		}
		if d.add(rec.n, dst, i, rec.op) {
			e.emitWidened(widened, srcCtx, rec.n.ctx)
		}
	}
}

// atomicOccupancy classifies the scheduling state: which ops are enabled.
// The returned slice is shared with the context entry and read-only.
func (e *explorer) atomicOccupancy(n node) (mainEnabled bool, envLocs []acfa.Loc) {
	mainAtomic := e.C.IsAtomic(n.ts.Loc)
	atomicEnv := n.ctx.atomicOcc
	total := len(atomicEnv)
	if mainAtomic {
		total++
	}
	switch {
	case total == 0:
		// Everything runs.
		return true, n.ctx.occupied
	case total == 1 && mainAtomic:
		return true, nil
	case total == 1:
		return false, atomicEnv
	default:
		// Multiple atomic occupants: nothing is enabled (cannot arise when
		// the initial location is non-atomic; kept for soundness).
		return false, nil
	}
}

// succRecord is one computed successor, carrying what merge needs to
// record the ARG transition (op) and enqueue the state.
type succRecord struct {
	n  node
	op Op
}

// successors appends the successors of s to out. It touches only the
// explorer's intern tables and caches and the solver; ARG recording and
// deduplication happen in merge.
func (e *explorer) successors(s node, out []succRecord) []succRecord {
	mainEnabled, envLocs := e.atomicOccupancy(s)

	// Note on the paper's Lambda-G conjunct: the abstract post in the
	// paper additionally conjoins the labels of all occupied context
	// locations. Taken literally this is unsound in combination with the
	// omega-seeded entry location: the entry label would become a
	// permanent pseudo-invariant pruning the main thread's own writes (a
	// non-moving context thread's label is not an invariant — other
	// threads may break it, leaving that thread stuck but the state
	// reachable). We therefore constrain only by the moving thread's
	// target label (part of the ACFA transition semantics), which the
	// worked example's proof actually relies on.
	cube := s.ts.Cube
	fid := cube.FormulaID()
	if mainEnabled {
		for ei, edge := range e.C.OutEdges(s.ts.Loc) {
			next := e.cachedPost(mainPostKey(fid, s.ts.Loc, ei), func() *pred.Cube {
				switch edge.Op.Kind {
				case cfa.OpAssign:
					return e.abs.PostAssign(cube, edge.Op.LHS, edge.Op.RHS, expr.TrueExpr)
				case cfa.OpAssume:
					return e.abs.PostAssume(cube, edge.Op.Pred, expr.TrueExpr)
				case cfa.OpHavoc:
					return e.abs.PostHavoc(cube, []string{edge.Op.LHS}, expr.TrueExpr, expr.TrueExpr)
				}
				return nil
			})
			if next.cube == nil {
				continue
			}
			out = append(out, succRecord{
				n:  node{ts: ThreadState{Loc: edge.Dst, Cube: next.cube, vid: next.vid}, ctx: s.ctx},
				op: Op{MainEdge: edge},
			})
		}
	}

	for _, n := range envLocs {
		for ai, aedge := range e.A.OutEdges(n) {
			var ctx2 *ctxEntry
			for ti, tc := range e.A.Label(aedge.Dst).Cubes() {
				next := e.cachedPost(envPostKey(fid, n, ai, ti), func() *pred.Cube {
					return e.abs.PostHavoc(cube, aedge.Havoc, tc.Formula(), expr.TrueExpr)
				})
				if next.cube == nil {
					continue
				}
				if ctx2 == nil {
					ctx2 = e.ctxs.move(s.ctx, n, ai, aedge.Dst)
				}
				out = append(out, succRecord{
					n:  node{ts: ThreadState{Loc: s.ts.Loc, Cube: next.cube, vid: next.vid}, ctx: ctx2},
					op: Op{EnvEdge: aedge},
				})
			}
		}
	}
	return out
}

// isRace reports whether s is a race state on e.raceVar: no occupied
// atomic location, and two distinct threads with enabled accesses of which
// at least one is a write (paper Section 4.1; abstract threads never
// read).
func (e *explorer) isRace(s node) bool {
	if e.C.IsAtomic(s.ts.Loc) || len(s.ctx.atomicOcc) > 0 {
		return false
	}
	x := e.raceVar

	mainWrites := e.C.WritesVarAt(s.ts.Loc, x)
	mainReads := e.mainReadEnabled(s.ts, x)

	// Context write capability, requiring a genuinely enabled havoc edge.
	writerLocs := 0
	multiWriter := false
	for _, n := range s.ctx.occupied {
		if !e.envWriteEnabled(s.ts, n, x) {
			continue
		}
		writerLocs++
		if s.ctx.vec.AtLeastTwo(n) {
			multiWriter = true
		}
	}
	ctxWrites := writerLocs > 0

	// main vs context.
	if (mainWrites || mainReads) && ctxWrites {
		return true
	}
	// context vs context (write-write; abstract threads never read).
	if writerLocs >= 2 || multiWriter {
		return true
	}
	return false
}

// mainReadEnabled reports whether the main thread has an enabled operation
// reading x at its current location: an assignment mentioning x on its
// right-hand side, or an assume mentioning x whose predicate is abstractly
// satisfiable in the current cube.
func (e *explorer) mainReadEnabled(ts ThreadState, x string) bool {
	for _, edge := range e.C.OutEdges(ts.Loc) {
		switch edge.Op.Kind {
		case cfa.OpAssign:
			if expr.Mentions(edge.Op.RHS, x) {
				return true
			}
		case cfa.OpAssume:
			// An assume reading x is enabled unless the cube refutes its
			// predicate (Unknown counts as enabled: sound over-approximation).
			// cube ⊭ ¬p  ⇔  sat(cube ∧ p) is not unsat, queried on interned
			// IDs so no formula tree is rebuilt.
			if expr.Mentions(edge.Op.Pred, x) &&
				e.abs.Chk.SatID(expr.IDConj(ts.Cube.FormulaID(), expr.Intern(edge.Op.Pred))) != smt.Unsat {
				return true
			}
		}
	}
	return false
}

// envWriteEnabled reports whether some havoc edge out of n writes x and
// has a non-empty abstract post from the current state. It shares the
// explorer's post cache with successor expansion (identical computations).
func (e *explorer) envWriteEnabled(ts ThreadState, n acfa.Loc, x string) bool {
	fid := ts.Cube.FormulaID()
	for ai, aedge := range e.A.OutEdges(n) {
		writes := false
		for _, v := range aedge.Havoc {
			if v == x {
				writes = true
				break
			}
		}
		if !writes {
			continue
		}
		for ti, tc := range e.A.Label(aedge.Dst).Cubes() {
			if e.cachedPost(envPostKey(fid, n, ai, ti), func() *pred.Cube {
				return e.abs.PostHavoc(ts.Cube, aedge.Havoc, tc.Formula(), expr.TrueExpr)
			}).cube != nil {
				return true
			}
		}
	}
	return false
}
