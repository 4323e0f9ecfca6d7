// Command perfbench is the CIRC benchmark. It runs one workload as a
// closed loop from a single process — one client, one check in flight,
// each checker at parallelism = the number of CPUs — checks every verdict
// against an independent reference, and prints the workload's metrics.
//
//	perfbench -workload corpus-cold -seed 1 -seconds 30 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
// -trace 1 it alternates untraced and traced passes and reports the
// per-layer metrics from the traced ones. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. The
// line before it ("detail: {...}") records the run environment,
// per-program rows, the exact-repeat check, and the oracle tally. See
// NOTES.md for the workloads and the metric definitions.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"circ"
	"circ/internal/telemetry"
)

// maxSpans caps the traced run's in-memory spans; spans past it are
// counted by the tracer and reported as trace.dropped_spans.
const maxSpans = 1 << 20

// A run sets up at least minSetups times, and up to maxSetups times while
// the set-ups so far took under setupBudget; setup_s is their median.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	processStart := time.Now()
	var (
		workload   = flag.String("workload", "", "workload name: corpus-cold, corpus-warm, gen-mix or lone-rxbuf")
		seed       = flag.Int64("seed", 1, "workload seed")
		seconds    = flag.Float64("seconds", 30, "length of the timed run in seconds")
		traceMode  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		traceOut   = flag.String("trace-out", "", "directory for the traced run's Chrome trace (optional)")
		commit     = flag.String("commit", "unknown", "source identity recorded with the result")
		crossCheck = flag.Bool("crosscheck", false, "cross-check expected.json against the explicit-state checker and exit")
	)
	flag.Parse()
	if *crossCheck {
		os.Exit(runCrossCheck())
	}
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == *workload {
			spec = &workloads[i]
		}
	}
	if spec == nil || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload corpus-cold|corpus-warm|gen-mix|lone-rxbuf, -seconds > 0, -trace 0|1")
		os.Exit(2)
	}
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) < nproc {
		fmt.Fprintf(os.Stderr, "perfbench: GOMAXPROCS=%d is below nproc=%d; refusing to run\n", runtime.GOMAXPROCS(0), nproc)
		os.Exit(2)
	}
	r := newRunner(*spec, *seed, nproc)
	env := map[string]any{
		"workload": spec.name, "seed": *seed, "seconds": *seconds, "trace": *traceMode,
		"nproc": nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "parallelism": nproc,
		"go": runtime.Version(), "commit": *commit, "check_deadline_s": spec.deadline.Seconds(),
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d parallelism=%d go=%s commit=%s deadline=%s\n",
		spec.name, *seed, *seconds, *traceMode, nproc, runtime.GOMAXPROCS(0), nproc, runtime.Version(), *commit, spec.deadline)

	// Set-up: inputs, store fill, warm-up pass; repeated, median reported.
	// The first repetition counts from process start.
	var setups []float64
	for i := 0; i < maxSetups && (i < minSetups || time.Since(processStart) < setupBudget); i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		if err := r.setup(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
			os.Exit(2)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var res result
	var err error
	if *traceMode == 0 {
		res, err = r.runTimed(*seconds)
	} else {
		res, err = r.runTraced(*seconds, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := r.judgeGenerated(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: oracle:", err)
		os.Exit(2)
	}
	if *traceMode == 0 {
		res.metrics["setup_s"] = metric{median(setups), "s"}
		res.samples["setup_s"] = len(setups)
	} else {
		res.metrics["oracle.undecided_pairs"] = metric{float64(r.undecided), "count"}
		res.metrics["repeat.drifts"] = metric{float64(len(r.drifts)), "count"}
		res.samples["oracle.undecided_pairs"] = r.judged
		res.samples["repeat.drifts"] = res.samples["reach.states"]
	}

	fmt.Println("programs:")
	for _, n := range r.order {
		fmt.Println("  " + r.programRow(n))
	}
	for _, d := range r.drifts {
		fmt.Println("NONDETERMINISM:", d)
	}
	for _, f := range r.failures {
		fmt.Println("MISMATCH:", f)
	}
	if r.judged > 0 {
		fmt.Printf("oracle: %d generated pairs judged, %d undecided within the explicit-state budget\n", r.judged, r.undecided)
	}
	fmt.Println("metrics:")
	for _, n := range sortedKeys(res.metrics) {
		m := res.metrics[n]
		fmt.Printf("  %-32s %14.6g %-12s samples=%d\n", n, m.Value, m.Unit, res.samples[n])
	}
	rows := map[string]any{}
	for _, n := range r.order {
		ps := r.progs[n]
		rows[n] = map[string]any{
			"n": len(ps.latMs), "p50_ms": median(ps.latMs),
			"q1_ms": quantile(ps.latMs, 0.25), "q3_ms": quantile(ps.latMs, 0.75),
			"survivors": ps.survivors, "discharged": ps.discharged, "verdicts": ps.verdicts, "counts": ps.counts,
		}
	}
	detail, _ := json.Marshal(map[string]any{
		"env": env, "setup_s": setups, "programs": rows, "drifts": r.drifts, "mismatches": r.failures,
		"oracle": map[string]int{"judged": r.judged, "undecided": r.undecided}, "extra": res.extra,
	})
	fmt.Println("detail: " + string(detail))
	correct := len(r.failures) == 0
	line, _ := json.Marshal(map[string]any{
		"correct": correct, "attempted": r.attempted, "failed": r.failed, "metrics": res.metrics,
	})
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// result is one run's metrics, their sample counts, and extra detail.
type result struct {
	metrics map[string]metric
	samples map[string]int
	extra   map[string]any
}

func newResult() result {
	return result{metrics: map[string]metric{}, samples: map[string]int{}, extra: map[string]any{}}
}

// pass runs one untraced pass over the workload's items and returns the
// checks' latencies in milliseconds.
func (r *runner) pass() (lat []float64, err error) {
	for _, it := range r.items {
		o, err := r.check(it, nil)
		if err != nil {
			return nil, err
		}
		r.record(it, o, true)
		lat = append(lat, float64(o.elapsed.Nanoseconds())/1e6)
	}
	return lat, nil
}

// runTimed is the untraced end-to-end run: whole passes until the time is
// up (at least one), so every run checks the same mix. Throughput and CPU
// per check are taken from the median pass, not from the run's totals:
// every pass does the same work, and the median pass ignores the stretches
// of a run that a contended host slows.
func (r *runner) runTimed(seconds float64) (result, error) {
	res := newResult()
	var lat, passWall, passCPU []float64
	stopHeap := watchLiveHeap()
	cpu0 := rusageCPU()
	start := time.Now()
	for len(lat) == 0 || time.Since(start).Seconds() < seconds {
		t0, c0 := time.Now(), rusageCPU()
		l, err := r.pass()
		if err != nil {
			return res, err
		}
		passWall = append(passWall, time.Since(t0).Seconds())
		passCPU = append(passCPU, rusageCPU()-c0)
		lat = append(lat, l...)
	}
	wall := time.Since(start).Seconds()
	cpu := rusageCPU() - cpu0
	peak := stopHeap()
	n := len(lat)
	perPass := float64(len(r.items))
	res.metrics["checks_per_s"] = metric{perPass / median(passWall), "1/s"}
	res.metrics["check_ms_p50"] = metric{median(lat), "ms"}
	res.metrics["check_ms_p90"] = metric{quantile(lat, 0.9), "ms"}
	res.metrics["cpu_s_per_check"] = metric{median(passCPU) / perPass, "s"}
	res.metrics["peak_live_heap_mb"] = metric{float64(peak) / (1 << 20), "MB"}
	for _, k := range []string{"check_ms_p50", "check_ms_p90", "peak_live_heap_mb"} {
		res.samples[k] = n
	}
	res.samples["checks_per_s"] = len(passWall)
	res.samples["cpu_s_per_check"] = len(passCPU)
	res.extra["checks"] = n
	res.extra["passes"] = len(passWall)
	res.extra["p90_valid"] = n >= 100
	res.extra["failed_ratio"] = ratio(float64(r.failed), float64(r.attempted))
	res.extra["run_checks_per_s"] = float64(n) / wall
	res.extra["run_cpu_s_per_check"] = cpu / float64(n)
	return res, nil
}

// layerSums accumulates the traced checks' counts.
type layerSums struct {
	checks                                    int
	counters                                  map[string]int64
	idleNs                                    int64
	smt                                       smtDelta
	batchWall, batchBusy, batchCap, straggler float64
	batches                                   int
	targets, reusedTargets                    int
	reuseUnitMs                               float64
	edges                                     int
	tracedMs                                  float64
}

// runTraced alternates untraced and traced passes until the time is up
// (at least one of each). Runtime metrics and the untraced throughput
// come from the untraced passes, the per-layer metrics from the traced
// ones; their throughput ratio is the tracing overhead.
func (r *runner) runTraced(seconds float64, traceOut string) (result, error) {
	res := newResult()
	tr := circ.NewTracer()
	tr.SetMaxSpans(maxSpans)
	sums := layerSums{counters: map[string]int64{}}
	var untracedN int
	var untracedS float64
	var rt0, rt1 runtimeSample
	var rtAlloc, rtObjs, rtCycles uint64
	var rtGC, rtCPU float64
	store0 := r.storeStats()
	start := time.Now()
	for sums.checks == 0 || untracedN == 0 || time.Since(start).Seconds() < seconds {
		rt0 = readRuntime()
		t0 := time.Now()
		l, err := r.pass()
		if err != nil {
			return res, err
		}
		untracedS += time.Since(t0).Seconds()
		untracedN += len(l)
		rt1 = readRuntime()
		rtAlloc += rt1.allocBytes - rt0.allocBytes
		rtObjs += rt1.allocObjects - rt0.allocObjects
		rtCycles += rt1.gcCycles - rt0.gcCycles
		rtGC += rt1.gcCPU - rt0.gcCPU
		rtCPU += rt1.totalCPU - rt0.totalCPU

		for _, it := range r.items {
			o, err := r.check(it, tr)
			if err != nil {
				return res, err
			}
			r.record(it, o, false)
			sums.add(o)
			sums.tracedMs += float64(o.elapsed.Nanoseconds()) / 1e6
			sums.edges += probe(telemetry.NewContext(context.Background(), tr), it, o.prog)
		}
	}
	store1 := r.storeStats()
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		return res, err
	}
	if traceOut != "" {
		err := os.MkdirAll(traceOut, 0o755)
		if err == nil {
			err = os.WriteFile(filepath.Join(traceOut, r.spec.name+".trace.json"), buf.Bytes(), 0o644)
		}
		if err != nil {
			return res, fmt.Errorf("writing the trace: %v", err)
		}
	}
	spans, err := analyseTrace(buf.Bytes())
	if err != nil {
		return res, err
	}
	n := float64(sums.checks)
	per := func(x float64) float64 { return x / n }
	c := func(name string) float64 { return float64(sums.counters[name]) }
	set := func(name, unit string, v float64) {
		res.metrics[name] = metric{v, unit}
		res.samples[name] = sums.checks
	}
	const msc, cpc = "ms/check", "count/check"

	set("lang.parse_ms", msc, per(spans.totalMs["circ.Parse"]))
	set("cfa.build_ms", msc, per(spans.totalMs["Program.CFA"]))
	set("cfa.edges", cpc, per(float64(sums.edges)))
	prepare := spans.selfMs["unit"]
	if r.lone {
		// Checker.Check opens no unit span: its pre-analysis is the
		// bench.check time outside circ.check.
		prepare = spans.selfMs["bench.check"]
	}
	set("dataflow.prepare_ms", msc, per(prepare))
	set("dataflow.probe_ms", msc, per(spans.totalMs["dataflow.triage"]+spans.totalMs["dataflow.slice"]+spans.totalMs["dataflow.flagguard"]))
	set("dataflow.discharged_ratio", "ratio", ratio(c("triage.discharged"), float64(sums.targets)))
	set("dataflow.slice_edges_removed", cpc, per(c("slice.edges_removed")))
	set("dataflow.seed_preds", cpc, per(c("seed.predicates")))

	set("batch.wall_ms", msc, per(sums.batchWall))
	set("batch.busy_ms", msc, per(sums.batchBusy))
	set("batch.worker_util", "ratio", ratio(sums.batchBusy, sums.batchCap))
	set("batch.straggler_share", "ratio", ratio(sums.straggler, float64(sums.batches)))

	set("icirc.check_ms", msc, per(spans.totalMs["circ.check"]))
	set("icirc.self_ms", msc, per(spans.selfMs["circ.check"]+spans.selfMs["iteration"]))
	set("icirc.iterations", cpc, per(c("circ.iterations")))
	set("icirc.rounds", cpc, per(c("circ.rounds")))

	set("reach.self_ms", msc, per(spans.selfMs["reach"]))
	set("reach.calls", cpc, per(float64(spans.count["reach"])))
	set("reach.states", cpc, per(c("reach.states")))
	set("reach.states_per_ms", "1/ms", ratio(c("reach.states"), spans.selfMs["reach"]))
	set("reach.post_cache_hit_ratio", "ratio", ratio(c("reach.post.cache.hits"), c("reach.post.cache.hits")+c("reach.post.cache.misses")))
	set("reach.steals", cpc, per(c("reach.steal.count")))
	set("reach.worker_idle_ms", msc, per(float64(sums.idleNs)/1e6))

	set("simrel.simcheck_ms", msc, per(spans.selfMs["simcheck"]))
	set("bisim.collapse_ms", msc, per(spans.selfMs["collapse"]))
	set("bisim.locs_in", cpc, per(c("bisim.locs.in")))
	set("bisim.locs_out", cpc, per(c("bisim.locs.out")))
	set("refine.self_ms", msc, per(spans.selfMs["refine"]))
	set("refine.calls", cpc, per(float64(refineCalls(circ.Metrics{Counters: sums.counters}))))
	set("refine.newpreds", cpc, per(c("refine.newpreds")))
	set("refine.real", cpc, per(c("refine.real")))
	set("pred.abstract_calls", cpc, per(c("pred.abstract.calls")))
	set("pred.abstract_bottom_ratio", "ratio", ratio(c("pred.abstract.bottom"), c("pred.abstract.calls")))

	s := sums.smt
	set("smt.solve_ms", msc, per(spans.totalMs["smt.solve"]))
	set("smt.queries", cpc, per(float64(s.queries)))
	set("smt.cache_hit_ratio", "ratio", ratio(float64(s.hits), float64(s.hits+s.misses)))
	set("smt.fastpath_ratio", "ratio", ratio(float64(s.fastpath), float64(s.hits+s.misses+s.fastpath)))
	set("smt.slow_queries", cpc, per(float64(s.slow)))

	set("store.hit_ratio", "ratio", ratio(float64(store1.Hits-store0.Hits), float64(store1.Hits-store0.Hits+store1.Misses-store0.Misses)))
	set("store.reused", cpc, per(float64(sums.reusedTargets)))
	set("store.revalidation_failed", cpc, per(float64(store1.RevalidationFailures-store0.RevalidationFailures)))
	set("store.reuse_unit_ms", "ms/reuse", ratio(sums.reuseUnitMs, float64(sums.reusedTargets)))
	set("store.bytes", "bytes", float64(store1.Bytes))

	arena := circ.CurrentArenaStats()
	set("expr.arena_nodes", "count", float64(arena.Nodes))
	set("expr.arena_bytes", "bytes", float64(arena.Bytes))

	un := float64(untracedN)
	set("runtime.alloc_mb_per_check", "MB/check", float64(rtAlloc)/(1<<20)/un)
	set("runtime.mallocs_per_check", cpc, float64(rtObjs)/un)
	set("runtime.gc_cycles_per_check", cpc, float64(rtCycles)/un)
	set("runtime.gc_cpu_ratio", "ratio", ratio(rtGC, rtCPU))
	for _, k := range []string{"runtime.alloc_mb_per_check", "runtime.mallocs_per_check", "runtime.gc_cycles_per_check", "runtime.gc_cpu_ratio"} {
		res.samples[k] = untracedN
	}

	untracedRate := un / untracedS
	tracedRate := n / (sums.tracedMs / 1000)
	set("trace.overhead_ratio", "ratio", ratio(tracedRate, untracedRate))
	set("trace.dropped_spans", "count", float64(tr.DroppedSpans()))
	if d := tr.DroppedSpans(); d > 0 {
		fmt.Printf("WARNING: trace capped at %d spans, %d dropped: span-derived layer times under-count\n", maxSpans, d)
	}
	res.extra["traced_checks"] = sums.checks
	res.extra["untraced_checks"] = untracedN
	res.extra["spans"] = tr.NumSpans()
	res.extra["icirc_share_reach_simcheck"] = ratio(spans.selfMs["reach"]+spans.selfMs["simcheck"], spans.totalMs["circ.check"])
	return res, nil
}

func (s *layerSums) add(o *outcome) {
	s.checks++
	for k, v := range o.metrics.Counters {
		s.counters[k] += v
	}
	s.idleNs += o.metrics.Histograms["reach.worker.idle"].SumNanos
	s.smt.queries += o.smt.queries
	s.smt.hits += o.smt.hits
	s.smt.misses += o.smt.misses
	s.smt.fastpath += o.smt.fastpath
	s.smt.slow += o.smt.slow
	s.targets += len(o.results)
	for _, tr := range o.results {
		if tr.Report != nil && tr.Report.Metrics.Counter("store.reused") > 0 {
			s.reusedTargets++
			s.reuseUnitMs += float64(tr.Elapsed.Nanoseconds()) / 1e6
		}
	}
	if b := o.batch; b != nil {
		wall := float64(b.Elapsed.Nanoseconds()) / 1e6
		var slowest float64
		for _, tr := range b.Results {
			slowest = max(slowest, float64(tr.Elapsed.Nanoseconds())/1e6)
		}
		s.batches++
		s.batchWall += wall
		s.batchBusy += float64(b.Metrics.Counter("batch.busy_nanos")) / 1e6
		s.batchCap += wall * float64(b.Metrics.Gauge("batch.workers"))
		s.straggler += ratio(slowest, wall)
	}
}

// storeStats snapshots the corpus-warm certificate store (zero elsewhere).
func (r *runner) storeStats() circ.CertStoreStats {
	if r.warm == nil || r.warm.CertStore() == nil {
		return circ.CertStoreStats{}
	}
	return r.warm.CertStore().Stats()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
