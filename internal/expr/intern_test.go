package expr

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// genExpr builds a random formula from a byte stream, consuming bytes as
// structure decisions. Shared between the property tests and the fuzzer.
func genExpr(data []byte, pos *int, depth int) Expr {
	next := func() byte {
		if *pos >= len(data) {
			return 0
		}
		b := data[*pos]
		*pos++
		return b
	}
	vars := []string{"x", "y", "z", "lock", "n"}
	term := func(d int) Expr {
		var t func(d int) Expr
		t = func(d int) Expr {
			b := next()
			if d <= 0 {
				if b%2 == 0 {
					return Num(int64(int8(next())))
				}
				return V(vars[int(next())%len(vars)])
			}
			switch b % 4 {
			case 0:
				return Num(int64(int8(next())))
			case 1:
				return V(vars[int(next())%len(vars)])
			default:
				return Bin{Op: BinOp(next() % 3), X: t(d - 1), Y: t(d - 1)}
			}
		}
		return t(d)
	}
	var form func(d int) Expr
	form = func(d int) Expr {
		b := next()
		if d <= 0 {
			switch b % 3 {
			case 0:
				return Bool{Value: next()%2 == 0}
			default:
				return Cmp{Op: CmpOp(next() % 6), X: term(1), Y: term(1)}
			}
		}
		switch b % 6 {
		case 0:
			return Bool{Value: next()%2 == 0}
		case 1:
			return Cmp{Op: CmpOp(next() % 6), X: term(d), Y: term(d)}
		case 2:
			return Not{X: form(d - 1)}
		case 3, 4:
			n := 2 + int(next()%3)
			xs := make([]Expr, n)
			for i := range xs {
				xs[i] = form(d - 1)
			}
			if b%6 == 3 {
				return And{Xs: xs}
			}
			return Or{Xs: xs}
		default:
			return Cmp{Op: CmpOp(next() % 6), X: term(d), Y: term(d)}
		}
	}
	return form(depth)
}

// checkInternProperties asserts the arena invariants for one formula.
func checkInternProperties(t *testing.T, f Expr) {
	t.Helper()
	id := Intern(f)

	// Idempotence: re-interning the same tree gives the same ID.
	if id2 := Intern(f); id2 != id {
		t.Fatalf("Intern not idempotent: %v then %v for %s", id, id2, f.Key())
	}
	// Round-trip: the canonical representative reinterns to the same ID,
	// and LookupID finds it without inserting.
	rep := FromID(id)
	if id2 := Intern(rep); id2 != id {
		t.Fatalf("Intern(FromID(id)) = %v, want %v for %s", id2, id, f.Key())
	}
	if got, ok := LookupID(rep); !ok || got != id {
		t.Fatalf("LookupID(FromID(%v)) = %v, %v", id, got, ok)
	}
	// The canonical form is logically equivalent to the input: under any
	// total environment both evaluate identically.
	env := map[string]int64{}
	rng := rand.New(rand.NewSource(int64(IDHash(id))))
	for v := range FreeVars(f) {
		env[v] = int64(rng.Intn(11) - 5)
	}
	want, err1 := EvalFormula(f, env)
	got, err2 := EvalFormula(rep, env)
	if err1 == nil && err2 == nil && want != got {
		t.Fatalf("canonical form not equivalent: %s=%v but %s=%v under %v",
			f.Key(), want, rep.Key(), got, env)
	}
	// Canonicalisation subsumes Simplify: the simplified tree interns to
	// the same ID (Key-level agreement of interned and uninterned forms).
	if id2 := Intern(Simplify(f)); id2 != id {
		t.Fatalf("Intern(Simplify(f)) = %v, want %v for %s", id2, id, f.Key())
	}
	// Hash is content-stable and matches the node.
	if IDHash(id) != IDHash(Intern(f)) {
		t.Fatalf("hash unstable for %s", f.Key())
	}

	// Negation round-trips through the arena and matches Negate semantics.
	nid := InternNot(id)
	if back := InternNot(nid); back != id {
		t.Fatalf("double negation: %v -> %v -> %v for %s", id, nid, back, f.Key())
	}
	if id2 := Intern(Negate(rep)); id2 != nid {
		t.Fatalf("Intern(Negate(rep)) = %v, want InternNot = %v for %s", id2, nid, f.Key())
	}

	// Conj/Disj round-trip: the tree-level constructors over canonical
	// reps intern to the ID-level constructors' results.
	other := Intern(Lt(V("x"), Num(3)))
	if a, b := Intern(Conj(rep, FromID(other))), IDConj(id, other); a != b {
		t.Fatalf("Conj/IDConj disagree: %v vs %v for %s", a, b, f.Key())
	}
	if a, b := Intern(Disj(rep, FromID(other))), IDDisj(id, other); a != b {
		t.Fatalf("Disj/IDDisj disagree: %v vs %v for %s", a, b, f.Key())
	}
}

func TestInternProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		data := make([]byte, 64)
		rng.Read(data)
		pos := 0
		f := genExpr(data, &pos, 3)
		checkInternProperties(t, f)
	}
}

func TestInternSharing(t *testing.T) {
	// Structurally-equal terms share one canonical representative:
	// pointer-equal for reference kinds, identical interface value for
	// value kinds.
	a := Intern(And{Xs: []Expr{Lt(V("a"), Num(1)), Eq(V("b"), Num(2))}})
	b := Intern(And{Xs: []Expr{Eq(V("b"), Num(2)), Lt(V("a"), Num(1))}}) // commuted
	if a != b {
		t.Fatalf("commuted conjunctions intern differently: %v vs %v", a, b)
	}
	ra, rb := FromID(a).(And), FromID(b).(And)
	if reflect.ValueOf(ra.Xs).Pointer() != reflect.ValueOf(rb.Xs).Pointer() {
		t.Fatalf("canonical And children not shared")
	}
	if FromID(Intern(V("a"))) != FromID(Intern(V("a"))) {
		t.Fatalf("canonical Var not shared")
	}

	// Different spellings of one atom share an ID.
	if Intern(Gt(V("x"), Num(0))) != Intern(Lt(Num(0), V("x"))) {
		t.Fatalf("x > 0 and 0 < x intern differently")
	}
}

func TestInternSyntacticCollapse(t *testing.T) {
	p := Lt(V("x"), Num(5))
	if got := IDConj(Intern(p), InternNot(Intern(p))); got != BoolID(false) {
		t.Fatalf("p ∧ ¬p = %v, want false", got)
	}
	if got := IDDisj(Intern(p), InternNot(Intern(p))); got != BoolID(true) {
		t.Fatalf("p ∨ ¬p = %v, want true", got)
	}
	if got := Intern(Lt(Num(3), Num(2))); got != BoolID(false) {
		t.Fatalf("3 < 2 = %v, want false", got)
	}
	if got := IDConj(); got != BoolID(true) {
		t.Fatalf("empty conjunction = %v, want true", got)
	}
	if got := IDDisj(); got != BoolID(false) {
		t.Fatalf("empty disjunction = %v, want false", got)
	}
	// Duplicates collapse; nested conjunctions flatten.
	q := Le(V("y"), Num(0))
	flat := IDConj(Intern(p), IDConj(Intern(p), Intern(q)))
	if flat != IDConj(Intern(p), Intern(q)) {
		t.Fatalf("flatten/dedup failed")
	}
	if IDImplies(Intern(p), Intern(p)) != BoolID(true) {
		t.Fatalf("p -> p should collapse to true")
	}
}

func TestInternDeterministicOrder(t *testing.T) {
	// Canonical child order is content-determined (structural hash), not
	// intern-order-determined: interleaving fresh interns between the two
	// constructions must not change the canonical key.
	a := Lt(V("detA"), Num(1))
	b := Eq(V("detB"), Num(2))
	k1 := IDKey(IDConj(Intern(a), Intern(b)))
	Intern(Lt(V("detNoise"), Num(99))) // shift subsequent ID values
	k2 := IDKey(IDConj(Intern(b), Intern(a)))
	if k1 != k2 {
		t.Fatalf("canonical key depends on intern order: %q vs %q", k1, k2)
	}
}

func FuzzIntern(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{250, 7, 42, 1, 99, 3, 18, 200, 5, 5, 5, 5, 61, 62, 63})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		e := genExpr(data, &pos, 3)
		checkInternProperties(t, e)
		// The rest of the input picks a second formula; joining it to e by
		// the insert path and by the general path must agree.
		lit := Intern(genExpr(data, &pos, 2))
		id, other := Intern(e), Intern(Lt(V("x"), Num(3)))
		r := rand.New(rand.NewSource(int64(len(data))))
		for _, phi := range []ID{id, IDConj(id, other), IDDisj(id, other)} {
			checkInsertMatchesGeneral(t, r, phi, lit)
		}
	})
}

func TestArenaStats(t *testing.T) {
	before := Stats()
	if before.Nodes <= 0 || before.Bytes <= 0 {
		t.Fatalf("arena stats empty: %+v", before)
	}
	// A fresh composite over fresh leaves must grow both nodes and the
	// byte estimate; re-interning the same structure must grow neither.
	e := Lt(V("arenaStatsProbe"), Num(987654321))
	id := Intern(e)
	mid := Stats()
	if mid.Nodes <= before.Nodes || mid.Bytes <= before.Bytes {
		t.Fatalf("arena did not grow: %+v -> %+v", before, mid)
	}
	if Intern(e) != id {
		t.Fatalf("re-intern changed identity")
	}
	after := Stats()
	if after.Nodes != mid.Nodes || after.Bytes != mid.Bytes {
		t.Fatalf("re-intern grew the arena: %+v -> %+v", mid, after)
	}
	if after.NodesHighWater < after.Nodes || after.BytesHighWater < after.Bytes {
		t.Fatalf("high-water below live values: %+v", after)
	}
	if InternStats() != after.Nodes {
		t.Fatalf("InternStats shim disagrees with Stats")
	}
}

// generalNary joins phi and lit with kind through internNary's general
// path: phi's children (or phi itself when it is not of that kind) and
// lit go in as at least three separate arguments, shuffled.
func generalNary(r *rand.Rand, kind Kind, phi, lit ID) ID {
	var xs []ID
	if IDKind(phi) == kind {
		xs = append(xs, IDView(phi).Kids...)
	} else {
		xs = append(xs, phi)
	}
	xs = append(xs, lit)
	for len(xs) < 3 {
		xs = append(xs, BoolID(kind == KindAnd)) // the identity
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return internNary(kind, xs)
}

// checkInsertMatchesGeneral asserts that IDConj(phi, lit) and
// IDDisj(phi, lit), in both argument orders, intern to the same ID as the
// general path.
func checkInsertMatchesGeneral(t *testing.T, r *rand.Rand, phi, lit ID) {
	t.Helper()
	for _, k := range []struct {
		kind Kind
		join func(...ID) ID
	}{{KindAnd, IDConj}, {KindOr, IDDisj}} {
		kind, join := k.kind, k.join
		got := join(phi, lit)
		if rev := join(lit, phi); rev != got {
			t.Fatalf("%v of %s and %s depends on argument order: %v vs %v", kind, IDKey(phi), IDKey(lit), got, rev)
		}
		if want := generalNary(r, kind, phi, lit); got != want {
			t.Fatalf("%v of %s and %s: insert path %s, general path %s",
				kind, IDKey(phi), IDKey(lit), IDKey(got), IDKey(want))
		}
	}
}

// TestIDConjInsertMatchesGeneral is the differential test of internNary's
// insert path: for random canonical φ and literal l, φ ∧ l and φ ∨ l must
// intern to the general path's ID. The literal cases cover l already in
// φ, ¬l in φ, l a boolean constant, l itself an And or Or, a fresh l, and
// φ that is not n-ary at all.
func TestIDConjInsertMatchesGeneral(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	atom := func() ID {
		return InternCmp(CmpOp(r.Intn(6)), InternV(fmt.Sprintf("ins%d", r.Intn(6))), InternNum(int64(r.Intn(4))))
	}
	atoms := func() []ID {
		xs := make([]ID, 2+r.Intn(6))
		for i := range xs {
			xs[i] = atom()
		}
		return xs
	}
	seen := map[string]int{}
	for i := 0; i < 3000; i++ {
		var phi ID
		switch r.Intn(3) {
		case 0:
			phi = IDConj(atoms()...)
		case 1:
			phi = IDDisj(atoms()...)
		default:
			phi = atom()
		}
		kids := []ID{phi}
		if k := IDKind(phi); k == KindAnd || k == KindOr {
			kids = IDView(phi).Kids
		} else {
			seen["phi not n-ary"]++
		}
		var lit ID
		var c string
		switch r.Intn(6) {
		case 0:
			lit, c = kids[r.Intn(len(kids))], "l in phi"
		case 1:
			lit, c = InternNot(kids[r.Intn(len(kids))]), "not l in phi"
		case 2:
			lit, c = BoolID(r.Intn(2) == 0), "l constant"
		case 3:
			lit = IDConj(atoms()...)
			c = "l " + IDKind(lit).String()
		case 4:
			lit = IDDisj(atoms()...)
			c = "l " + IDKind(lit).String()
		default:
			lit, c = atom(), "l fresh"
		}
		seen[c]++
		checkInsertMatchesGeneral(t, r, phi, lit)
	}
	for _, c := range []string{"phi not n-ary", "l in phi", "not l in phi", "l constant", "l and", "l or", "l fresh"} {
		if seen[c] == 0 {
			t.Errorf("case %q never generated", c)
		}
	}
}

// TestArenaConcurrentInternAndRead races writers that intern overlapping
// formula families against readers of already published IDs. It runs on
// a fresh arena, so the families cross at least three bucket boundaries
// whatever the process arena already holds. Every writer must get the
// same ID for each family, by the insert path and the general path alike,
// and every published ID must read back whole: canonical child order,
// re-interning to itself, negation round-trips.
func TestArenaConcurrentInternAndRead(t *testing.T) {
	saved := ar
	ar = newArena()
	t.Cleanup(func() { ar = saved })

	const families, width, writers, readers = 8, 40, 4, 3
	lit := func(f, j int) ID {
		return InternCmp(OpLt, InternV(fmt.Sprintf("fam%d_%d", f, j)), InternNum(int64(j)))
	}
	// Buffered so writers run ahead of the readers and keep inserting,
	// and growing buckets, while published IDs are being read.
	published := make(chan ID, 64)
	var rg sync.WaitGroup
	for i := 0; i < readers; i++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for id := range published {
				h, v := IDHash(id), IDView(id)
				for j := 1; v.Kind == KindAnd && j < len(v.Kids); j++ {
					if !idLess(v.Kids[j-1], v.Kids[j]) {
						t.Errorf("ID %d: children out of canonical order", id)
					}
				}
				if back := Intern(FromID(id)); back != id {
					t.Errorf("Intern(FromID(%d)) = %d", id, back)
				}
				if n := InternNot(id); n == id || InternNot(n) != id {
					t.Errorf("negation of %d does not round-trip (got %d)", id, n)
				}
				if IDHash(id) != h || IDKind(id) != v.Kind {
					t.Errorf("ID %d changed while being read", id)
				}
			}
		}()
	}

	got := make([][families]ID, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for _, f := range r.Perm(families) {
				phi := BoolID(true)
				for _, j := range r.Perm(width) {
					phi = IDConj(phi, lit(f, j))
					published <- phi
				}
				var xs []ID
				for _, j := range r.Perm(width) {
					xs = append(xs, lit(f, j))
				}
				if all := IDConj(xs...); all != phi {
					t.Errorf("writer %d, family %d: general path %d, insert path %d", w, f, all, phi)
				}
				published <- InternNot(phi)
				got[w][f] = phi
			}
		}(w)
	}
	wg.Wait()
	close(published)
	rg.Wait()

	for w := 1; w < writers; w++ {
		if got[w] != got[0] {
			t.Fatalf("writer %d interned the families as %v, writer 0 as %v", w, got[w], got[0])
		}
	}
	if b, _ := locate(uint64(ar.n) - 1); b < 3 {
		t.Fatalf("%d nodes reach bucket %d only; the test must cross three bucket boundaries", ar.n, b)
	}
}

// BenchmarkIDConjLit measures the cube-query shape φ ∧ p: a canonical
// conjunction of eight literals joined with a ninth. It asserts the
// result against the general path, so a drifting insert path fails.
func BenchmarkIDConjLit(b *testing.B) {
	lits := make([]ID, 9)
	for i := range lits {
		lits[i] = InternCmp(OpLt, InternV(fmt.Sprintf("bench%d", i)), InternNum(int64(i)))
	}
	phi, want := IDConj(lits[:8]...), IDConj(lits...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := IDConj(phi, lits[8]); got != want {
			b.Fatalf("IDConj(φ, p) = %v, want %v", got, want)
		}
	}
}

// BenchmarkIDHashParallel measures lock-free hash reads from every
// GOMAXPROCS goroutine. Each read is checked against the hash computed
// from the node's content.
func BenchmarkIDHashParallel(b *testing.B) {
	const n = 256
	ids, want := make([]ID, n), make([]uint64, n)
	for i := range ids {
		name := fmt.Sprintf("hashbench%d", i)
		ids[i] = InternCmp(OpLt, InternV(name), InternNum(int64(i)))
		want[i] = mix64(mix64(hashSeed(KindCmp, int8(OpLt)), hashString(KindVar, name)), hashInt(KindInt, int64(i)))
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i = (i + 1) % n {
			if got := IDHash(ids[i]); got != want[i] {
				b.Errorf("IDHash(%v) = %x, want %x", ids[i], got, want[i])
				return
			}
		}
	})
}
