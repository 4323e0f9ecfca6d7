package smt

import (
	"sort"
	"strings"
	"sync"

	"circ/internal/expr"
	"circ/internal/smt/sat"
)

// Shared-learning SMT portfolio.
//
// Incremental Sessions solving the same φ (predicate-abstraction re-runs
// the same cube formula across reach expansions, refinement rounds, and
// the targets of a batch) each rediscover the same theory-conflict
// lemmas. The portfolio keeps a bounded pool of those lemmas per φ,
// keyed by the formula's interned ID: a session captures every
// minimised theory conflict its DPLL(T) loop blocks, and later sessions
// on the same φ replay the pooled clauses into their fresh solver right
// after encoding φ — the enumeration starts with the conflicts already
// learned instead of re-deriving them query by query.
//
// Soundness and determinism: a pooled clause is the blocking form of an
// irreducible theory conflict, i.e. a theory-valid lemma over canonical
// atoms (variable names, not expr.IDs — pools survive arena compaction
// of everything but φ itself). Adding valid lemmas can never flip a
// Sat/Unsat verdict; the only verdict they can shift is Unknown (a
// budget artifact), and Sessions already re-derive every incremental
// Unknown with a from-scratch solve that never sees the pool (the
// "opt-out" path). Cached verdicts therefore remain a pure function of
// the formula at any parallelism, pool or no pool.
//
// Bounds: at most maxPoolClauses clauses of at most maxPoolLits literals
// per φ, and at most maxPools formulas; past the caps the pool simply
// stops absorbing (and the pool registry resets), so memory stays O(1)
// per process. Pools are generation-stamped with expr.Generation() and
// are dropped wholesale when the arena is compacted (φ's ID may have
// been tombstoned; dead IDs are never reused, so a stale pool is
// unreachable garbage, not a collision).
const (
	maxPoolClauses = 128  // clauses retained per formula
	maxPoolLits    = 8    // max literals per pooled clause
	maxPools       = 1024 // distinct formulas with pools
)

// pooledLit is one literal of a pooled theory lemma: a canonical atom
// plus the polarity it was *asserted* with in the conflict (the replayed
// clause negates it, exactly like the original blocking clause).
// tAtoms are immutable after interning into a query, so sharing the
// pointer across queries is safe.
type pooledLit struct {
	a   *tAtom
	pos bool
}

type pooledClause struct {
	lits []pooledLit
}

// clausePool is the shared learned-clause pool for one φ. Concurrent
// sessions capture into and replay from it under a single mutex; the
// pool is append-only up to its bound, so replay sees a prefix of a
// deterministic-per-run sequence.
type clausePool struct {
	mu   sync.Mutex
	gen  uint64 // expr.Generation() at creation
	seen map[string]struct{}
	cls  []pooledClause
}

// add captures a minimised theory conflict. Oversized conflicts are
// skipped (long clauses prune little and cost replay time), duplicates
// are dropped, and a full pool stops absorbing.
func (p *clausePool) add(conflict []assertedAtom) {
	if p == nil || len(conflict) == 0 || len(conflict) > maxPoolLits {
		return
	}
	keys := make([]string, len(conflict))
	for i, tl := range conflict {
		if tl.pos {
			keys[i] = "+" + tl.a.key
		} else {
			keys[i] = "-" + tl.a.key
		}
	}
	sort.Strings(keys)
	ck := strings.Join(keys, "|")
	p.mu.Lock()
	if _, dup := p.seen[ck]; !dup && len(p.cls) < maxPoolClauses {
		lits := make([]pooledLit, len(conflict))
		for i, tl := range conflict {
			lits[i] = pooledLit{a: tl.a, pos: tl.pos}
		}
		p.seen[ck] = struct{}{}
		p.cls = append(p.cls, pooledClause{lits: lits})
	}
	p.mu.Unlock()
}

// snapshot returns the pooled clauses for replay.
func (p *clausePool) snapshot() []pooledClause {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	out := make([]pooledClause, len(p.cls))
	copy(out, p.cls)
	p.mu.Unlock()
	return out
}

// replayClause asserts a pooled lemma into q, interning its atoms (and
// allocating their SAT variables) as needed. Replayed atoms that do not
// occur in φ are unconstrained extra theory atoms — sound, because the
// theory check covers whatever the SAT model asserts of them. It
// returns false when the clause database became unsatisfiable — with
// valid lemmas that means φ itself is unsatisfiable.
func (q *query) replayClause(cl pooledClause) bool {
	lits := make([]sat.Lit, 0, len(cl.lits))
	for _, pl := range cl.lits {
		id, ok := q.atomID[pl.a.key]
		if !ok {
			id = len(q.atoms)
			q.atoms = append(q.atoms, pl.a)
			q.atomID[pl.a.key] = id
			q.atomV[id] = q.solver.NewVar()
		}
		// Same construction as the original blocking clause in dpll:
		// the clause holds the negation of each asserted literal.
		lits = append(lits, sat.MkLit(q.atomV[id], pl.pos))
	}
	return q.solver.AddClause(lits...)
}

// pool returns the learned-clause pool for phi, creating it on first
// use. A pool stamped with an older arena generation is replaced (its
// clauses referenced a pre-compaction world; they are still name-based
// and thus valid, but the wholesale reset keeps the invariant trivial).
func (c *CachedChecker) pool(phi expr.ID) *clausePool {
	gen := expr.Generation()
	core := c.core
	core.poolMu.Lock()
	defer core.poolMu.Unlock()
	if core.pools == nil {
		core.pools = make(map[expr.ID]*clausePool)
	}
	p := core.pools[phi]
	if p != nil && p.gen == gen {
		return p
	}
	if p == nil && len(core.pools) >= maxPools {
		// The registry is a cache; resetting it wholesale is the simplest
		// bound that cannot starve any particular φ forever.
		core.pools = make(map[expr.ID]*clausePool)
	}
	p = &clausePool{gen: gen, seen: make(map[string]struct{})}
	core.pools[phi] = p
	return p
}

// SweepDead drops cached verdicts for tombstoned formulas and every
// stale clause pool after an arena compaction. The daemon calls this
// right after expr.Compact, with no analyses in flight. It returns the
// number of cache entries removed.
func (c *CachedChecker) SweepDead() (removed int) {
	gen := expr.Generation()
	for i := range c.core.shards {
		sh := &c.core.shards[i]
		sh.mu.Lock()
		for id := range sh.m {
			if !expr.Live(id) {
				delete(sh.m, id)
				removed++
			}
		}
		sh.mu.Unlock()
	}
	c.core.poolMu.Lock()
	for id, p := range c.core.pools {
		if p.gen != gen || !expr.Live(id) {
			delete(c.core.pools, id)
		}
	}
	c.core.poolMu.Unlock()
	return removed
}
