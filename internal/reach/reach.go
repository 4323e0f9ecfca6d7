package reach

import (
	"context"
	"fmt"
	"sync"

	"circ/internal/acfa"
	"circ/internal/cfa"
	"circ/internal/expr"
	"circ/internal/journal"
	"circ/internal/pred"
	"circ/internal/smt"
	"circ/internal/telemetry"
)

// Sched selects the exploration scheduler. Both schedulers produce
// identical verdicts, race lists, ARGs, and journals at any parallelism;
// they differ only in how expansion work is distributed across workers.
type Sched int

const (
	// SchedSteal (the default) runs the deterministic work-stealing pool:
	// a sequential merger walks states in discovery order while workers
	// race ahead expanding outstanding states from per-worker deques. No
	// level barrier — workers stay busy as long as any work is
	// outstanding. See steal.go for the determinism argument.
	SchedSteal Sched = iota
	// SchedLevel runs the original level-synchronous BFS: each frontier
	// level is expanded by a worker pool, then merged sequentially before
	// the next level starts. Kept for comparison (-sched level).
	SchedLevel
)

func (s Sched) String() string {
	if s == SchedLevel {
		return "level"
	}
	return "steal"
}

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
	// Parallelism is the number of workers expanding frontier states
	// concurrently; 0 or 1 runs sequentially. Results are identical at any
	// parallelism: successors are computed in parallel but merged in
	// deterministic BFS order. Parallelism > 1 requires the abstractor's
	// solver to be safe for concurrent use (smt.CachedChecker).
	Parallelism int
	// Sched selects the scheduler; the zero value is SchedSteal.
	Sched Sched
	// Metrics, when non-nil, receives exploration counters (states,
	// levels, frontier high-water mark, post-cache effectiveness, races,
	// steals, worker idle time). Telemetry never affects the verdict,
	// only observes it.
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

func (o Options) parallelism() int {
	if o.Parallelism > 1 {
		return o.Parallelism
	}
	return 1
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
// between frontier levels.
func ReachAndBuild(ctx context.Context, C *cfa.CFA, A *acfa.ACFA, abs *pred.Abstractor, raceVar string, opts Options) (*Result, error) {
	e := newExplorer(C, A, abs, raceVar, opts)
	// Instrument handles are fetched once; with a nil registry they are nil
	// and every update on the hot path degrades to a nil check.
	if reg := opts.Metrics; reg != nil {
		e.cStates = reg.Counter("reach.states")
		e.cLevels = reg.Counter("reach.levels")
		e.cRaces = reg.Counter("reach.races")
		e.cPostHits = reg.Counter("reach.post.cache.hits")
		e.cPostMisses = reg.Counter("reach.post.cache.misses")
		e.cSteals = reg.Counter("reach.steal.count")
		e.gFrontier = reg.Gauge("reach.frontier.max")
		// Exported to Prometheus as circ_reach_worker_idle_seconds (the
		// exporter appends the unit suffix to histogram families).
		e.hIdle = reg.Histogram("reach.worker.idle")
	}
	e.j = journal.FromContext(ctx)
	e.tl = telemetry.TimelineFromContext(ctx)
	ctx, sp := telemetry.StartSpan(ctx, "reach")
	res, err := e.run(ctx)
	if res != nil {
		sp.Annotate("states", res.NumStates)
		sp.Annotate("races", len(res.Races))
	}
	sp.End()
	return res, err
}

// postShardCount shards the abstract-post cache; frontier workers hit it
// on every expansion, so it is the engine's hottest shared structure after
// the SMT cache.
const postShardCount = 32

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

// shard mixes the key fields into a shard index with one multiply-fold.
func (k postKey) shard() uint32 {
	h := uint64(k.fid) ^ uint64(k.kind)<<56 ^
		uint64(uint32(k.a))<<8 ^ uint64(uint32(k.b))<<24 ^ uint64(uint32(k.c))<<40
	h *= 0x9E3779B97F4A7C15
	return uint32(h>>32) % postShardCount
}

// postVal is a memoised post: the successor cube and its valuation ID,
// or a nil cube for bottom.
type postVal struct {
	cube *pred.Cube
	vid  int32
}

type postShard struct {
	mu sync.RWMutex
	m  map[postKey]postVal
}

// postCache memoises abstract posts behind sharded RW mutexes: states
// sharing a cube formula but differing in counters or spelling would
// otherwise recompute identical SMT-heavy posts, and concurrent frontier
// workers share each other's results.
type postCache struct {
	shards [postShardCount]postShard
}

func (p *postCache) get(key postKey, compute func() postVal) (postVal, bool) {
	sh := &p.shards[key.shard()]
	sh.mu.RLock()
	c, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		return c, true
	}
	// Compute outside the lock; a concurrent duplicate computes the same
	// deterministic cube (and valuation ID), so last-write-wins is
	// harmless.
	c = compute()
	sh.mu.Lock()
	sh.m[key] = c
	sh.mu.Unlock()
	return c, false
}

type explorer struct {
	C       *cfa.CFA
	A       *acfa.ACFA
	abs     *pred.Abstractor
	raceVar string
	opts    Options

	posts postCache
	cubes cubeTable
	ctxs  *ctxTable

	// Telemetry handles, nil when no registry is configured (each update
	// is then a single nil check — see BenchmarkReachTelemetry).
	cStates, cLevels, cRaces *telemetry.Counter
	cPostHits, cPostMisses   *telemetry.Counter
	cSteals                  *telemetry.Counter
	gFrontier                *telemetry.Gauge
	hIdle                    *telemetry.Histogram

	// tl, when a flight-deck timeline rides in on the context, receives
	// per-worker busy/idle/steal segments from the steal scheduler. Like
	// the journal it is carried alongside the verdict path: segments are
	// wall-clock observations and never feed back into exploration.
	tl *telemetry.Timeline

	// j records counter-widening events; emission happens only in the
	// sequential merge phase, so the journal stays deterministic at any
	// parallelism.
	j *journal.Stream
}

func newExplorer(C *cfa.CFA, A *acfa.ACFA, abs *pred.Abstractor, raceVar string, opts Options) *explorer {
	e := &explorer{C: C, A: A, abs: abs, raceVar: raceVar, opts: opts, ctxs: newCtxTable(A, opts.K)}
	e.cubes.ids = make(map[string]int32)
	for i := range e.posts.shards {
		e.posts.shards[i].m = make(map[postKey]postVal)
	}
	return e
}

// cachedPost memoises the abstract post computed by compute under key,
// interning the successor cube's valuation on a miss.
func (e *explorer) cachedPost(key postKey, compute func() *pred.Cube) postVal {
	v, hit := e.posts.get(key, func() postVal {
		c := compute()
		if c == nil {
			return postVal{}
		}
		return postVal{cube: c, vid: e.cubes.intern(c)}
	})
	if hit {
		e.cPostHits.Inc()
	} else {
		e.cPostMisses.Inc()
	}
	return v
}

// run dispatches to the configured scheduler. Both produce identical
// results; see the Sched constants.
func (e *explorer) run(ctx context.Context) (*Result, error) {
	if e.opts.Sched == SchedLevel {
		return e.runLevel(ctx)
	}
	return e.runSteal(ctx)
}

// seed builds the ARG and the discovery record, holding the initial
// state, shared by both schedulers.
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
// omega on the parent→child transition, once per run. Called only from
// sequential merge phases, so emission order is deterministic.
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
// Called only from the sequential merge phase of either scheduler.
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

// runLevel is a level-synchronous BFS. Each level's states are expanded
// by a worker pool (the expansion is pure: abstract posts and SMT
// queries, no shared mutable state beyond the concurrent caches); the
// results are then merged sequentially in frontier order, which
// reproduces the exact dequeue order, race list, ARG, and budget
// accounting of a sequential FIFO worklist — verdicts are bit-identical
// at any parallelism.
func (e *explorer) runLevel(ctx context.Context) (*Result, error) {
	arg, d := e.seed()
	frontier := []int32{0}
	numStates := 0
	var races []*Trace
	// widened tracks which context locations have already been journalled
	// as saturating their counter to omega (reported once per run).
	var widened map[acfa.Loc]bool
	if e.j.Enabled() {
		widened = make(map[acfa.Loc]bool)
	}

levels:
	for len(frontier) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e.cLevels.Inc()
		e.gFrontier.Max(int64(len(frontier)))
		recs := e.expandLevel(d, frontier)

		next := d.len()
		for fi, i := range frontier {
			numStates++
			e.cStates.Inc()
			if numStates > e.opts.maxStates() {
				return nil, fmt.Errorf("reach: state budget exceeded (%d states)", e.opts.maxStates())
			}
			if e.isRace(d.at(i).n) {
				e.cRaces.Inc()
				races = append(races, d.trace(i))
				if len(races) >= e.opts.maxRaces() {
					// Enough counterexamples for this refinement round; the
					// ARG is partial but unused on the error path.
					break levels
				}
			}
			// ARG bookkeeping happens here, in deterministic order, not in
			// the parallel expansion phase.
			e.merge(arg, d, i, recs[fi], widened)
		}
		frontier = frontier[:0]
		for i := next; i < d.len(); i++ {
			frontier = append(frontier, i)
		}
	}
	return &Result{Races: races, ARG: arg, NumStates: numStates}, nil
}

// minParallelFrontier is the frontier size below which SchedLevel
// expansion runs sequentially even when a worker pool is configured.
// Small levels — common in the narrow early and late phases of a run,
// and throughout programs whose frontier never widens — cost more in
// goroutine spawn and channel handoff than their (mostly post-cache-hit)
// expansions save; this cutover is what fixed the table1/surge parallel
// regression. It keys on frontier length because that IS the outstanding
// work of a level-synchronous round; the work-stealing scheduler has no
// levels and uses the (smaller) outstanding-work cutover
// minStealOutstanding in steal.go instead.
const minParallelFrontier = 8

// expandLevel computes the successor records of every frontier state,
// fanning the states out over the configured worker pool once the level
// is large enough to amortise the handoff.
func (e *explorer) expandLevel(d *discovered, frontier []int32) [][]succRecord {
	recs := make([][]succRecord, len(frontier))
	workers := e.opts.parallelism()
	if workers > len(frontier) {
		workers = len(frontier)
	}
	if workers <= 1 || len(frontier) < minParallelFrontier {
		for fi, i := range frontier {
			recs[fi] = e.successors(d.at(i).n)
		}
		return recs
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for fi := range idx {
				recs[fi] = e.successors(d.at(frontier[fi]).n)
			}
		}()
	}
	for fi := range frontier {
		idx <- fi
	}
	close(idx)
	wg.Wait()
	return recs
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

// succRecord is one computed successor, carrying what the merge phase
// needs to record the ARG transition (op) and enqueue the state.
type succRecord struct {
	n  node
	op Op
}

// successors expands a state. It is pure with respect to the explorer —
// safe to call from concurrent workers — touching only the concurrent
// post cache and the (concurrency-safe) solver; ARG recording and
// deduplication happen later in the sequential merge.
func (e *explorer) successors(s node) []succRecord {
	mainEnabled, envLocs := e.atomicOccupancy(s)
	// Collect into a stack buffer and return an exact-size copy: one
	// allocation per expansion instead of one per append doubling.
	var buf [16]succRecord
	out := buf[:0]

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
	if len(out) == 0 {
		return nil
	}
	return append([]succRecord(nil), out...)
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
