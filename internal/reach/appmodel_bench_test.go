package reach_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"circ/internal/benchapps"
	"circ/internal/cfa"
	icirc "circ/internal/circ"
	"circ/internal/dataflow"
	"circ/internal/expr"
	"circ/internal/lang"
	"circ/internal/pred"
	"circ/internal/reach"
	"circ/internal/smt"
)

// BenchmarkReachAppModel times the reachability run that proves the
// application model's rxBuf race-free: the inferred context model and the
// final predicate set, over a solver whose cache is warm from inference.
// With the SMT work cached, what remains is reach's own state
// bookkeeping, which the allocs/state metric tracks. The verdict is
// asserted, so a one-iteration smoke run also guards correctness.
func BenchmarkReachAppModel(b *testing.B) {
	ctx := context.Background()
	p, err := lang.Parse(benchapps.AppModel)
	if err != nil {
		b.Fatal(err)
	}
	g, err := cfa.Build(p, "App")
	if err != nil {
		b.Fatal(err)
	}
	// The checker's default pipeline: slice to the cone of influence of
	// rxBuf and seed the flag-guard predicates.
	g, _ = dataflow.Slice(g, "rxBuf")
	var seeds []expr.Expr
	for _, sp := range dataflow.FlagGuard(g).SeedPredicates() {
		seeds = append(seeds, sp.Pred)
	}
	chk := smt.NewCachedChecker()
	rep, err := icirc.Check(ctx, g, "rxBuf", icirc.Options{InitialPreds: seeds}, chk)
	if err != nil {
		b.Fatal(err)
	}
	if rep.Verdict != icirc.Safe {
		b.Fatalf("appmodel App/rxBuf: verdict %v (%s), want safe", rep.Verdict, rep.Reason)
	}
	abs := pred.NewAbstractor(chk, pred.NewSet(rep.Preds...))

	b.ReportAllocs()
	b.ResetTimer()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	states := 0
	for i := 0; i < b.N; i++ {
		res, err := reach.ReachAndBuild(ctx, g, rep.FinalACFA, abs, "rxBuf", reach.Options{K: rep.K})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Races) != 0 {
			b.Fatalf("reach under the final context found %d races, want 0", len(res.Races))
		}
		states += res.NumStates
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(states), "allocs/state")
	b.ReportMetric(float64(states)/elapsed.Seconds(), "states/s")
}
