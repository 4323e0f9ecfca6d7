package reach

import (
	"circ/internal/acfa"
	"circ/internal/pred"
)

// Dense abstract states.
//
// A state is identified by (CFA location, cube valuation, context
// vector). The variable-width parts are interned per ReachAndBuild run:
// cube valuations into IDs (cubeTable), contexts into immutable entries
// (ctxTable), and the (location, valuation) pair into the ARG's dense
// thread-state id. Deduplication hashes one packed word and never builds
// a key string.
//
// The cube part is the three-valued vector itself, never the cube's
// FormulaID: pred.Set.Add does not reject an atom whose negation is
// already in the set, so two different valuations can denote the same
// canonical formula. Keying by FormulaID would merge such states.
//
// Each context entry memoises its env moves in a successor row indexed
// by ACFA edge, so an expansion follows a pointer instead of cloning the
// counter vector.

// stateKey is the identity of an abstract state: its ARG thread-state id
// (standing for CFA location and cube valuation) and its context ID,
// packed into one word.
type stateKey uint64

func makeStateKey(ts int, ctx *ctxEntry) stateKey {
	return stateKey(uint64(uint32(ts))<<32 | uint64(uint32(ctx.id)))
}

// node is a discovered abstract state in dense form.
type node struct {
	ts  ThreadState
	ctx *ctxEntry
}

// state materialises n for a trace. The context vector is shared with the
// intern table; it is immutable.
func (n node) state() *State { return &State{TS: n.ts, Ctx: n.ctx.vec} }

// cubeTable interns cube valuations, keyed by Cube.Key. It is filled on
// post-cache misses and at seeding, so the hot path (a post-cache hit)
// never touches it.
type cubeTable map[string]int32

// intern returns the valuation ID of c.
func (t cubeTable) intern(c *pred.Cube) int32 {
	k := c.Key()
	id, ok := t[k]
	if !ok {
		id = int32(len(t))
		t[k] = id
	}
	return id
}

// ctxEntry is an interned, immutable context state.
type ctxEntry struct {
	id  int32
	vec Ctx
	// occupied lists the locations holding at least one thread and
	// atomicOcc the atomic ones among them, both ascending.
	occupied, atomicOcc []acfa.Loc
	// next[edgeBase[n]+i] is the context after a thread takes the i-th
	// edge out of n; nil until that move is first taken.
	next []*ctxEntry
}

// ctxTable interns the context vectors of one run. Lookups by vector
// happen only when a successor row slot is first filled.
type ctxTable struct {
	a        *acfa.ACFA
	k        int
	edgeBase []int
	numEdges int

	byKey  map[string]*ctxEntry
	keyBuf []byte
}

func newCtxTable(a *acfa.ACFA, k int) *ctxTable {
	t := &ctxTable{a: a, k: k, byKey: make(map[string]*ctxEntry), edgeBase: make([]int, a.NumLocs())}
	for n := range t.edgeBase {
		t.edgeBase[n] = t.numEdges
		t.numEdges += len(a.OutEdges(acfa.Loc(n)))
	}
	return t
}

// intern returns the entry for vec, which it takes ownership of.
func (t *ctxTable) intern(vec Ctx) *ctxEntry {
	t.keyBuf = vec.appendKey(t.keyBuf[:0])
	if c, ok := t.byKey[string(t.keyBuf)]; ok {
		return c
	}
	c := &ctxEntry{id: int32(len(t.byKey)), vec: vec, next: make([]*ctxEntry, t.numEdges)}
	for n, v := range c.vec {
		if v == 0 {
			continue
		}
		c.occupied = append(c.occupied, acfa.Loc(n))
		if t.a.IsAtomic(acfa.Loc(n)) {
			c.atomicOcc = append(c.atomicOcc, acfa.Loc(n))
		}
	}
	t.byKey[string(t.keyBuf)] = c
	return c
}

// move returns the context after one thread at n takes its i-th out-edge
// (to dst).
func (t *ctxTable) move(c *ctxEntry, n acfa.Loc, i int, dst acfa.Loc) *ctxEntry {
	slot := &c.next[t.edgeBase[n]+i]
	if *slot == nil {
		*slot = t.intern(c.vec.Dec(n).Inc(dst, t.k))
	}
	return *slot
}

// discovered is the record of every state found so far, in discovery
// order, under dense indices; it is also the exploration worklist.
// Entries live in fixed-size blocks so that growing the record never
// copies it.
type discovered struct {
	index  map[stateKey]int32
	blocks [][]discEntry
	n      int32
}

// discEntry is one discovered state with its ARG thread-state id, its
// parent's index (-1 for the initial state) and the op that first reached
// it.
type discEntry struct {
	n      node
	ts     int32
	parent int32
	op     Op
}

const discBlock = 1024

func newDiscovered(init node, ts int) *discovered {
	d := &discovered{index: make(map[stateKey]int32)}
	d.add(init, ts, -1, Op{})
	return d
}

// len returns the number of discovered states.
func (d *discovered) len() int32 { return d.n }

// at returns discovered state i.
func (d *discovered) at(i int32) *discEntry { return &d.blocks[i/discBlock][i%discBlock] }

// add records n, whose thread state has ARG id ts, as reached from
// parent by op unless it is already known, reporting whether it was new.
func (d *discovered) add(n node, ts int, parent int32, op Op) bool {
	k := makeStateKey(ts, n.ctx)
	if _, ok := d.index[k]; ok {
		return false
	}
	if d.n%discBlock == 0 {
		d.blocks = append(d.blocks, make([]discEntry, discBlock))
	}
	d.index[k] = d.n
	*d.at(d.n) = discEntry{n: n, ts: int32(ts), parent: parent, op: op}
	d.n++
	return true
}

// trace builds the counterexample ending at discovered state i.
func (d *discovered) trace(i int32) *Trace {
	var rev []int32
	for ; i >= 0; i = d.at(i).parent {
		rev = append(rev, i)
	}
	t := &Trace{}
	for j := len(rev) - 1; j >= 0; j-- {
		t.States = append(t.States, d.at(rev[j]).n.state())
		if j > 0 {
			t.Steps = append(t.Steps, d.at(rev[j-1]).op)
		}
	}
	return t
}
