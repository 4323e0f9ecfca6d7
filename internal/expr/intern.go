package expr

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// This file implements hash-consing for expressions: a process-wide
// interning arena that assigns every structurally-distinct *canonical*
// expression a unique 32-bit ID and a precomputed 64-bit structural hash.
//
// Interning happens through smart constructors that canonicalise as they
// build: constants fold, And/Or flatten, deduplicate, sort their children
// and collapse complementary literals, and comparisons normalise (Gt/Ge
// rewrite to Lt/Le by swapping operands), all preserving logical
// equivalence. Consequently
//
//   - equality of canonical forms is ID equality (O(1)),
//   - map keys and cache keys are IDs, not recursive Key() strings,
//   - obvious tautologies/contradictions (x ∧ ¬x, 3 < 2) intern directly
//     to the boolean constants, giving SMT callers a syntactic sat/unsat
//     fast path that never touches a solver.
//
// Children are ordered by structural hash (ties broken by canonical key),
// which is a function of content only — canonical forms are identical
// across runs and across goroutine interleavings, so verdicts derived
// from them stay deterministic at any parallelism. ID *values* are
// process-local (assigned in first-intern order) and must never leak into
// anything order-sensitive; the codebase only uses them as cache keys.
//
// Storage and concurrency. Nodes live in geometrically growing buckets:
// bucket b holds 64·2^b nodes and is published through an atomic pointer
// when its first node is stored. A node is written once, before its ID
// leaves the write lock, and is never copied or moved afterwards, so
// every read of a known ID — hash, kind, children, representative — is a
// plain load with no lock. The one mutable field, the memoised negation
// link, is read and written atomically. Inserts and the hash-cons indexes
// (byHash, ints, vars) stay behind one RWMutex: looking up existing
// structure takes the read lock, inserts double-check under the write
// lock. Memory is monotonic for the process lifetime (Compact tombstones
// but never moves a node), which is the right trade for an analysis
// engine that re-queries the same predicate cubes thousands of times.

// ID is the arena identity of a canonical interned expression. The zero
// ID is invalid (NoID); valid IDs start at 1.
type ID uint32

// NoID is the invalid ID.
const NoID ID = 0

// Kind discriminates interned node shapes. It mirrors the concrete Expr
// types one-to-one.
type Kind uint8

// Node kinds.
const (
	KindInvalid Kind = iota
	KindInt
	KindVar
	KindBin
	KindBool
	KindCmp
	KindNot
	KindAnd
	KindOr
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindVar:
		return "var"
	case KindBin:
		return "bin"
	case KindBool:
		return "bool"
	case KindCmp:
		return "cmp"
	case KindNot:
		return "not"
	case KindAnd:
		return "and"
	case KindOr:
		return "or"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// inode is one arena entry (56 bytes). Nodes are immutable after
// insertion except for the memoised negation link, which is only touched
// through loadNeg/storeNeg. Leaves keep their value only in rep.
type inode struct {
	kind Kind
	op   int8   // BinOp or CmpOp, by kind
	neg  ID     // memoised logical negation; NoID until first computed
	hash uint64 // structural hash (content-only, stable across runs)
	kids []ID   // children, canonical order; never mutated after insert
	rep  Expr   // canonical representative tree (children shared)
}

func (n *inode) loadNeg() ID    { return ID(atomic.LoadUint32((*uint32)(&n.neg))) }
func (n *inode) storeNeg(id ID) { atomic.StoreUint32((*uint32)(&n.neg), uint32(id)) }

// Bucket b holds 1<<(bucket0Bits+b) nodes; numBuckets of them cover every
// uint32 ID.
const (
	bucket0Bits = 6
	numBuckets  = 33 - bucket0Bits
)

// locate maps a 0-based node index to its bucket and the offset in it.
func locate(i uint64) (b int, off uint64) {
	j := i + 1<<bucket0Bits
	b = bits.Len64(j) - bucket0Bits - 1
	return b, j - 1<<(bucket0Bits+b)
}

type arena struct {
	buckets [numBuckets]atomic.Pointer[[]inode]

	mu     sync.RWMutex
	n      int // nodes stored, tombstones included; IDs are 1..n
	byHash map[uint64][]ID
	ints   map[int64]ID
	vars   map[string]ID
	// bytes is a running estimate of the arena's memory footprint,
	// maintained at insert and decremented by Compact, so observability
	// reads are O(1). nodesHW/bytesHW are the process-lifetime high-water
	// marks; they diverge from the live values after a compaction pass.
	bytes   int64
	nodesHW int
	bytesHW int64
	// live counts non-tombstoned nodes; it equals n until the first
	// Compact. gen increments on every Compact so ID-keyed caches outside
	// the arena can detect that a sweep happened.
	live int
	gen  uint64
}

// The boolean constants are the first two nodes of every arena.
const (
	falseID ID = 1
	trueID  ID = 2
)

var ar = newArena()

func newArena() *arena {
	a := &arena{
		byHash: make(map[uint64][]ID),
		ints:   make(map[int64]ID),
		vars:   make(map[string]ID),
	}
	a.insertLocked(inode{kind: KindBool, hash: hashInt(KindBool, 0), rep: FalseExpr})
	a.insertLocked(inode{kind: KindBool, hash: hashInt(KindBool, 1), rep: TrueExpr})
	return a
}

// BoolID returns the ID of a boolean constant. It never locks.
func BoolID(v bool) ID {
	if v {
		return trueID
	}
	return falseID
}

// --- structural hashing ---

// mix64 folds x into h with strong avalanche, so child order and node
// content both shape the result. The constants are the usual splitmix64
// multipliers.
func mix64(h, x uint64) uint64 {
	h ^= x
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

func hashSeed(kind Kind, op int8) uint64 {
	return mix64(0x2545F4914F6CDD1D, uint64(kind)<<8|uint64(uint8(op)))
}

func hashString(kind Kind, s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(hashSeed(kind, 0), h)
}

func hashInt(kind Kind, v int64) uint64 {
	return mix64(hashSeed(kind, 0), uint64(v))
}

// --- arena primitives ---

// node returns the arena slot of id. It takes no lock: the caller learnt
// id from an intern, a lookup or a negation link, all of which happen
// after the slot was written.
func (a *arena) node(id ID) *inode {
	b, off := locate(uint64(id) - 1)
	return &(*a.buckets[b].Load())[off]
}

// insertLocked stores n in the next free slot, indexes it by hash and
// accounts for it, and returns its ID. Caller holds the write lock.
func (a *arena) insertLocked(n inode) ID {
	b, off := locate(uint64(a.n))
	if off == 0 {
		bucket := make([]inode, 1<<(bucket0Bits+b))
		a.buckets[b].Store(&bucket)
	}
	(*a.buckets[b].Load())[off] = n
	a.n++
	id := ID(a.n)
	a.byHash[n.hash] = append(a.byHash[n.hash], id)
	a.live++
	a.bytes += nodeBytes(&n)
	a.nodesHW = max(a.nodesHW, a.live)
	a.bytesHW = max(a.bytesHW, a.bytes)
	return id
}

// findLocked returns the existing composite node matching (kind, op,
// kids), or NoID. Caller holds at least the read lock.
func (a *arena) findLocked(h uint64, kind Kind, op int8, kids []ID) ID {
	for _, id := range a.byHash[h] {
		n := a.node(id)
		if n.kind == kind && n.op == op && slices.Equal(n.kids, kids) {
			return id
		}
	}
	return NoID
}

// compositeHash folds the children's hashes into the node seed.
func (a *arena) compositeHash(kind Kind, op int8, kids []ID) uint64 {
	h := hashSeed(kind, op)
	for _, k := range kids {
		h = mix64(h, a.node(k).hash)
	}
	return h
}

// leafLocked returns the existing Int or Var node, or NoID. Caller holds
// at least the read lock.
func (a *arena) leafLocked(kind Kind, ival int64, name string) ID {
	if kind == KindInt {
		return a.ints[ival]
	}
	return a.vars[name]
}

// internLeaf interns an Int or Var node. The representative is boxed only
// on insert, so a hit allocates nothing.
func internLeaf(kind Kind, ival int64, name string) ID {
	ar.mu.RLock()
	id := ar.leafLocked(kind, ival, name)
	ar.mu.RUnlock()
	if id != NoID {
		return id
	}
	var h uint64
	var rep Expr
	if kind == KindVar {
		h, rep = hashString(kind, name), Var{Name: name}
	} else {
		h, rep = hashInt(kind, ival), Int{Value: ival}
	}
	ar.mu.Lock()
	defer ar.mu.Unlock()
	if id := ar.leafLocked(kind, ival, name); id != NoID {
		return id
	}
	id = ar.insertLocked(inode{kind: kind, hash: h, rep: rep})
	if kind == KindInt {
		ar.ints[ival] = id
	} else {
		ar.vars[name] = id
	}
	return id
}

// internComposite interns a node with children, building the canonical
// representative from the children's representatives. kids must already
// be in canonical order; the slice is copied on insert.
func internComposite(kind Kind, op int8, kids []ID) ID {
	h := ar.compositeHash(kind, op, kids)
	ar.mu.RLock()
	id := ar.findLocked(h, kind, op, kids)
	ar.mu.RUnlock()
	if id != NoID {
		return id
	}
	ar.mu.Lock()
	defer ar.mu.Unlock()
	if id := ar.findLocked(h, kind, op, kids); id != NoID {
		return id
	}
	var rep Expr
	switch kind {
	case KindBin:
		rep = Bin{Op: BinOp(op), X: ar.node(kids[0]).rep, Y: ar.node(kids[1]).rep}
	case KindCmp:
		rep = Cmp{Op: CmpOp(op), X: ar.node(kids[0]).rep, Y: ar.node(kids[1]).rep}
	case KindNot:
		rep = Not{X: ar.node(kids[0]).rep}
	case KindAnd, KindOr:
		xs := make([]Expr, len(kids))
		for i, k := range kids {
			xs[i] = ar.node(k).rep
		}
		if kind == KindAnd {
			rep = And{Xs: xs}
		} else {
			rep = Or{Xs: xs}
		}
	default:
		panic(fmt.Sprintf("expr: internComposite of %v", kind))
	}
	return ar.insertLocked(inode{kind: kind, op: op, kids: slices.Clone(kids), hash: h, rep: rep})
}

// --- public accessors ---

// FromID returns the canonical representative expression of id. The
// returned tree shares substructure with every other representative;
// treat it as immutable.
func FromID(id ID) Expr { return ar.node(id).rep }

// IDHash returns the precomputed 64-bit structural hash of id. Hashes
// are a function of content only and identical across runs.
func IDHash(id ID) uint64 { return ar.node(id).hash }

// IDKind returns the node kind of id.
func IDKind(id ID) Kind { return ar.node(id).kind }

// IDBoolValue reports whether id is a boolean constant and, if so, its
// truth value. The two constant IDs are fixed in every arena.
func IDBoolValue(id ID) (value, ok bool) {
	switch id {
	case trueID:
		return true, true
	case falseID:
		return false, true
	}
	return false, false
}

// IDKey returns the canonical Key() string of id's representative. This
// exists for diagnostics and tests; hot paths compare IDs instead.
func IDKey(id ID) string { return FromID(id).Key() }

// View is a read-only structural decomposition of an interned node.
type View struct {
	Kind  Kind
	BinOp BinOp  // KindBin
	CmpOp CmpOp  // KindCmp
	Int   int64  // KindInt
	Bool  bool   // KindBool
	Name  string // KindVar
	Kids  []ID   // children; shared with the arena, do not mutate
}

// IDView decomposes id for structure-directed consumers (the SMT encoder
// walks formulas this way without rebuilding trees or keys).
func IDView(id ID) View {
	n := ar.node(id)
	v := View{Kind: n.kind, Kids: n.kids}
	switch n.kind {
	case KindInt:
		v.Int = n.rep.(Int).Value
	case KindBool:
		v.Bool = id == trueID
	case KindVar:
		v.Name = n.rep.(Var).Name
	case KindBin:
		v.BinOp = BinOp(n.op)
	case KindCmp:
		v.CmpOp = CmpOp(n.op)
	}
	return v
}

// InternStats reports the number of distinct canonical expressions in the
// arena, for observability.
func InternStats() (nodes int) {
	return Stats().Nodes
}

// ArenaStats describes the process-wide interning arena for resource
// watermarking: distinct canonical nodes, an estimated memory footprint,
// and the high-water marks of both. The live values and the high-water
// marks diverge after a Compact pass reclaims dead nodes.
type ArenaStats struct {
	// Nodes is the number of live (non-tombstoned) interned nodes.
	Nodes int
	// Bytes estimates the arena's memory footprint: per-node struct and
	// hash-index overhead plus variable-length payloads (names, child
	// slices, canonical representatives). An estimate, not an exact
	// runtime measurement — its value is trend visibility.
	Bytes int64
	// NodesHighWater and BytesHighWater are the largest values observed
	// over the process lifetime.
	NodesHighWater int
	BytesHighWater int64
	// Compactions counts completed Compact passes.
	Compactions uint64
}

// Stats snapshots the arena's size accounting in O(1).
func Stats() ArenaStats {
	ar.mu.RLock()
	s := ArenaStats{
		Nodes: ar.live, Bytes: ar.bytes,
		NodesHighWater: ar.nodesHW, BytesHighWater: ar.bytesHW,
		Compactions: ar.gen,
	}
	ar.mu.RUnlock()
	return s
}

// nodeBytes estimates one interned node's footprint: the inode struct
// (56 bytes), its byHash index slot, an amortized share of the canonical
// representative tree, a variable's name, and 4 bytes per child ID.
// Constants were calibrated against unsafe.Sizeof; exactness is not the
// point — monotone growth visibility is.
func nodeBytes(n *inode) int64 {
	const perNode = 56 + 16 + 48 // inode + index slot + representative share
	b := int64(perNode + 4*len(n.kids))
	if v, ok := n.rep.(Var); ok {
		b += int64(len(v.Name))
	}
	return b
}

// --- smart constructors ---

// InternNum interns an integer constant.
func InternNum(v int64) ID { return internLeaf(KindInt, v, "") }

// InternV interns a variable reference.
func InternV(name string) ID { return internLeaf(KindVar, 0, name) }

// InternBin interns x op y with the same constant folding and identity
// rules as Simplify, plus hash-ordering of commutative operands.
func InternBin(op BinOp, x, y ID) ID {
	xv, yv := IDView(x), IDView(y)
	if xv.Kind == KindInt && yv.Kind == KindInt {
		switch op {
		case OpAdd:
			return InternNum(xv.Int + yv.Int)
		case OpSub:
			return InternNum(xv.Int - yv.Int)
		case OpMul:
			return InternNum(xv.Int * yv.Int)
		}
	}
	switch op {
	case OpAdd:
		if xv.Kind == KindInt && xv.Int == 0 {
			return y
		}
		if yv.Kind == KindInt && yv.Int == 0 {
			return x
		}
	case OpSub:
		if yv.Kind == KindInt && yv.Int == 0 {
			return x
		}
	case OpMul:
		if xv.Kind == KindInt && xv.Int == 1 {
			return y
		}
		if yv.Kind == KindInt && yv.Int == 1 {
			return x
		}
		if (xv.Kind == KindInt && xv.Int == 0) || (yv.Kind == KindInt && yv.Int == 0) {
			return InternNum(0)
		}
	}
	if op != OpSub && idLess(y, x) {
		x, y = y, x
	}
	return internComposite(KindBin, int8(op), []ID{x, y})
}

// InternCmp interns the comparison x op y: constant comparisons fold,
// identical operands fold, and Gt/Ge normalise to Lt/Le by swapping, so
// different spellings of one atom share an ID.
func InternCmp(op CmpOp, x, y ID) ID {
	xv, yv := IDView(x), IDView(y)
	if xv.Kind == KindInt && yv.Kind == KindInt {
		return BoolID(evalCmp(op, xv.Int, yv.Int))
	}
	if x == y {
		switch op {
		case OpEq, OpLe, OpGe:
			return trueID
		case OpNe, OpLt, OpGt:
			return falseID
		}
	}
	switch op {
	case OpGt:
		op, x, y = OpLt, y, x
	case OpGe:
		op, x, y = OpLe, y, x
	}
	return internComposite(KindCmp, int8(op), []ID{x, y})
}

// InternNot interns the logical negation of x, pushing the negation into
// boolean constants, comparisons, and double negations (the same rules as
// Negate). Negations are memoised both ways on the nodes, so repeated
// complement lookups are one atomic load.
func InternNot(x ID) ID {
	n := ar.node(x)
	if neg := n.loadNeg(); neg != NoID {
		return neg
	}
	var out ID
	switch n.kind {
	case KindBool:
		out = BoolID(x == falseID)
	case KindCmp:
		out = InternCmp(CmpOp(n.op).Negate(), n.kids[0], n.kids[1])
	case KindNot:
		out = n.kids[0]
	default:
		out = internComposite(KindNot, 0, []ID{x})
	}
	// Racing callers compute the same hash-consed out, so the stores agree.
	n.storeNeg(out)
	ar.node(out).storeNeg(x)
	return out
}

// hid is a child ID paired with its structural hash, so sorting reads
// each child's hash once instead of once per comparison.
type hid struct {
	h  uint64
	id ID
}

// cmpHID is the canonical child order: by structural hash, with the
// (vanishingly rare) hash ties broken by canonical key so the order is a
// pure function of content — never of intern order.
func cmpHID(x, y hid) int {
	if x.h != y.h {
		return cmp.Compare(x.h, y.h)
	}
	if x.id == y.id {
		return 0
	}
	return strings.Compare(IDKey(x.id), IDKey(y.id))
}

func idLess(a, b ID) bool { return cmpHID(hid{IDHash(a), a}, hid{IDHash(b), b}) < 0 }

// internNary builds a canonical And/Or: flatten same-kind children, drop
// identity constants, collapse on absorbing constants, deduplicate,
// detect complementary children (x and ¬x), and sort. For KindAnd a
// complementary pair collapses to false; for KindOr to true.
func internNary(kind Kind, xs []ID) ID {
	identity, absorb := trueID, falseID
	if kind == KindOr {
		identity, absorb = falseID, trueID
	}
	if len(xs) == 2 {
		phi, lit := xs[0], xs[1]
		if IDKind(phi) != kind {
			phi, lit = lit, phi
		}
		if IDKind(phi) == kind && IDKind(lit) != kind {
			return insertLit(kind, phi, lit, identity, absorb)
		}
	}
	// Canonical same-kind children carry no constants, so only the
	// arguments themselves need the identity/absorb check.
	var buf [32]hid
	kids := buf[:0]
	if len(xs) > len(buf) {
		kids = make([]hid, 0, len(xs))
	}
	for _, x := range xs {
		n := ar.node(x)
		switch {
		case n.kind == kind:
			for _, k := range n.kids {
				kids = append(kids, hid{IDHash(k), k})
			}
		case x == identity:
		case x == absorb:
			return absorb
		default:
			kids = append(kids, hid{n.hash, x})
		}
	}
	slices.SortFunc(kids, cmpHID)
	kids = slices.Compact(kids) // sorted ⇒ equal IDs adjacent
	var idBuf [32]ID
	ids := idBuf[:0]
	for _, k := range kids {
		ids = append(ids, k.id)
	}
	// Complementary pair ⇒ the absorbing constant. Negations are memoised
	// on the nodes, so this is n hash lookups, not n interns after warmup.
	for _, id := range ids {
		if containsID(ids, InternNot(id)) {
			return absorb
		}
	}
	switch len(ids) {
	case 0:
		return identity
	case 1:
		return ids[0]
	}
	return internComposite(kind, 0, ids)
}

// insertLit is internNary for its commonest call, a canonical And/Or phi
// joined with one child lit of another kind — the cube query φ ∧ p of the
// abstract post. phi's children are sorted, distinct and free of
// complementary pairs already, so it binary-searches lit's slot and
// probes once for ¬lit instead of re-sorting and re-checking them all.
func insertLit(kind Kind, phi, lit, identity, absorb ID) ID {
	switch lit {
	case identity:
		return phi
	case absorb:
		return absorb
	}
	kids := ar.node(phi).kids
	x := hid{IDHash(lit), lit}
	i, found := slices.BinarySearchFunc(kids, x, func(k ID, x hid) int {
		return cmpHID(hid{IDHash(k), k}, x)
	})
	if found {
		return phi
	}
	if containsID(kids, InternNot(lit)) {
		return absorb
	}
	var buf [32]ID
	out := append(buf[:0], kids[:i]...)
	out = append(out, lit)
	out = append(out, kids[i:]...)
	return internComposite(kind, 0, out)
}

// containsID reports membership via binary search over the hash order.
func containsID(sorted []ID, want ID) bool {
	wh := IDHash(want)
	i, _ := slices.BinarySearchFunc(sorted, wh, func(k ID, h uint64) int { return cmp.Compare(IDHash(k), h) })
	for ; i < len(sorted) && IDHash(sorted[i]) == wh; i++ {
		if sorted[i] == want {
			return true
		}
	}
	return false
}

// IDConj interns the canonical conjunction of xs (see internNary).
func IDConj(xs ...ID) ID { return internNary(KindAnd, xs) }

// IDDisj interns the canonical disjunction of xs.
func IDDisj(xs ...ID) ID { return internNary(KindOr, xs) }

// IDImplies interns a -> b as ¬a ∨ b.
func IDImplies(a, b ID) ID { return IDDisj(InternNot(a), b) }

// Intern canonicalises and interns expression e, returning its ID.
// Structurally equal inputs — and many logically equal ones, thanks to
// canonicalisation — share one ID, and Intern(FromID(id)) == id.
func Intern(e Expr) ID {
	switch g := e.(type) {
	case Int:
		return InternNum(g.Value)
	case Var:
		return InternV(g.Name)
	case Bool:
		return BoolID(g.Value)
	case Bin:
		return InternBin(g.Op, Intern(g.X), Intern(g.Y))
	case Cmp:
		return InternCmp(g.Op, Intern(g.X), Intern(g.Y))
	case Not:
		return InternNot(Intern(g.X))
	case And:
		return internNary(KindAnd, internAll(g.Xs, make([]ID, 0, 32)))
	case Or:
		return internNary(KindOr, internAll(g.Xs, make([]ID, 0, 32)))
	default:
		panic(fmt.Sprintf("expr: unknown node %T", e))
	}
}

// internAll appends the IDs of xs to buf.
func internAll(xs []Expr, buf []ID) []ID {
	for _, x := range xs {
		buf = append(buf, Intern(x))
	}
	return buf
}

// LookupID returns the ID of e without inserting anything: it succeeds
// exactly when e is already in canonical interned form (for example a
// tree obtained from FromID). It allocates nothing on success, which
// keeps Sat-style cache hits on interned formulas allocation-free.
func LookupID(e Expr) (ID, bool) {
	ar.mu.RLock()
	id, ok := lookupLocked(e)
	ar.mu.RUnlock()
	return id, ok
}

func lookupLocked(e Expr) (ID, bool) {
	switch g := e.(type) {
	case Int:
		id, ok := ar.ints[g.Value]
		return id, ok
	case Var:
		id, ok := ar.vars[g.Name]
		return id, ok
	case Bool:
		return BoolID(g.Value), true
	case Bin:
		var kids [2]ID
		var ok bool
		if kids[0], ok = lookupLocked(g.X); !ok {
			return NoID, false
		}
		if kids[1], ok = lookupLocked(g.Y); !ok {
			return NoID, false
		}
		h := ar.compositeHash(KindBin, int8(g.Op), kids[:])
		id := ar.findLocked(h, KindBin, int8(g.Op), kids[:])
		return id, id != NoID
	case Cmp:
		var kids [2]ID
		var ok bool
		if kids[0], ok = lookupLocked(g.X); !ok {
			return NoID, false
		}
		if kids[1], ok = lookupLocked(g.Y); !ok {
			return NoID, false
		}
		h := ar.compositeHash(KindCmp, int8(g.Op), kids[:])
		id := ar.findLocked(h, KindCmp, int8(g.Op), kids[:])
		return id, id != NoID
	case Not:
		var kids [1]ID
		var ok bool
		if kids[0], ok = lookupLocked(g.X); !ok {
			return NoID, false
		}
		h := ar.compositeHash(KindNot, 0, kids[:])
		id := ar.findLocked(h, KindNot, 0, kids[:])
		return id, id != NoID
	case And:
		return lookupNaryLocked(KindAnd, g.Xs)
	case Or:
		return lookupNaryLocked(KindOr, g.Xs)
	}
	return NoID, false
}

func lookupNaryLocked(kind Kind, xs []Expr) (ID, bool) {
	var buf [16]ID
	kids := buf[:0]
	if len(xs) > len(buf) {
		kids = make([]ID, 0, len(xs))
	}
	for _, x := range xs {
		id, ok := lookupLocked(x)
		if !ok {
			return NoID, false
		}
		kids = append(kids, id)
	}
	h := ar.compositeHash(kind, 0, kids)
	id := ar.findLocked(h, kind, 0, kids)
	return id, id != NoID
}
