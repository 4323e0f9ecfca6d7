package expr

// Arena snapshot/compaction: a long-lived process (the circd daemon)
// interns every formula of every job into the process-wide arena, which
// is otherwise append-only. Compact sweeps the arena between jobs,
// reclaiming the payloads of nodes unreachable from a caller-supplied
// root set while preserving the identity of every live ID.
//
// Invariants the rest of the engine relies on:
//
//   - Live IDs keep their value: nodes are never moved or reindexed, so
//     FromID/IDView/IDHash/LookupID on a live ID return exactly what they
//     returned before the sweep, and ID-keyed caches holding live keys
//     stay valid.
//   - Dead IDs are never reused: tombstones keep their slot, and new
//     interns always append. A stale dead key in an external cache can
//     therefore never alias a new formula — it is merely garbage.
//   - The boolean constants are always live (their IDs are fixed
//     constants the engine uses without looking them up).
//
// What a caller must guarantee: the root set covers every ID it will
// ever dereference again (memoised cube formulas, predicate sets,
// certificate-store evidence). Compacting while analyses are in flight
// is unsound — the daemon only compacts between jobs, with no job
// running. Node reads (FromID, IDHash, IDKind, IDView, the negation
// memo) take no lock, so this rule is also what makes the sweep safe:
// the write lock excludes other interns and lookups, but only the
// absence of running analyses excludes those lock-free readers while
// Compact rewrites tombstoned slots and negation links.

// CompactStats reports one Compact pass.
type CompactStats struct {
	// Live and Freed count nodes surviving and tombstoned by the pass.
	Live, Freed int
	// FreedBytes is the estimated footprint reclaimed.
	FreedBytes int64
	// Generation is the arena generation after the pass (the total number
	// of Compact passes over the process lifetime).
	Generation uint64
}

// Compact tombstones every arena node not reachable from roots (through
// child links) and rebuilds the hash-cons indexes over the survivors.
// Memoised negation links into dead nodes are cleared (they re-memoise
// on demand). It returns what was reclaimed.
func Compact(roots []ID) CompactStats {
	ar.mu.Lock()
	defer ar.mu.Unlock()

	n := ar.n
	mark := make([]bool, n+1) // 1-based, like IDs
	stack := make([]ID, 0, len(roots)+2)
	push := func(id ID) {
		if id != NoID && int(id) <= n && !mark[id] {
			mark[id] = true
			stack = append(stack, id)
		}
	}
	push(falseID)
	push(trueID)
	for _, r := range roots {
		push(r)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, k := range ar.node(id).kids {
			push(k)
		}
	}

	st := CompactStats{}
	// Sweep: tombstone the dead, clear dangling negation links on the
	// live, and rebuild the lookup indexes from the survivors.
	byHash := make(map[uint64][]ID)
	ints := make(map[int64]ID)
	vars := make(map[string]ID)
	for i := 1; i <= n; i++ {
		id := ID(i)
		nd := ar.node(id)
		if nd.kind == KindInvalid {
			continue // already a tombstone from an earlier pass
		}
		if !mark[id] {
			st.Freed++
			st.FreedBytes += nodeBytes(nd)
			// Tombstone (kind == KindInvalid) and release the payloads; neg
			// goes through its atomic accessor like every other write of it.
			nd.kind, nd.op, nd.hash, nd.kids, nd.rep = KindInvalid, 0, 0, nil, nil
			nd.storeNeg(NoID)
			continue
		}
		st.Live++
		if neg := nd.loadNeg(); neg != NoID && !mark[neg] {
			nd.storeNeg(NoID)
		}
		byHash[nd.hash] = append(byHash[nd.hash], id)
		switch nd.kind {
		case KindInt:
			ints[nd.rep.(Int).Value] = id
		case KindVar:
			vars[nd.rep.(Var).Name] = id
		}
	}
	ar.byHash, ar.ints, ar.vars = byHash, ints, vars
	ar.live = st.Live
	ar.bytes -= st.FreedBytes
	ar.gen++
	st.Generation = ar.gen
	return st
}

// Live reports whether id refers to a live (non-tombstoned) arena node.
// Out-of-range and NoID report false.
func Live(id ID) bool {
	ar.mu.RLock()
	ok := id != NoID && int(id) <= ar.n && ar.node(id).kind != KindInvalid
	ar.mu.RUnlock()
	return ok
}

// Generation returns the number of Compact passes completed so far.
// ID-keyed structures outside the arena (learned-clause pools, verdict
// caches) stamp themselves with this and invalidate when it moves.
func Generation() uint64 {
	ar.mu.RLock()
	g := ar.gen
	ar.mu.RUnlock()
	return g
}
