package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"circ"
	"circ/internal/dataflow"
	"circ/internal/smt"
	"circ/internal/telemetry"
)

// workloadSpec describes one workload of BENCHMARK.json.
type workloadSpec struct {
	name string
	// deadline bounds one check; a check over it fails all its targets.
	deadline time.Duration
}

var workloads = []workloadSpec{
	{name: "corpus-cold", deadline: 20 * time.Second},
	{name: "corpus-warm", deadline: 10 * time.Second},
	{name: "gen-mix", deadline: 5 * time.Second},
	{name: "lone-rxbuf", deadline: 20 * time.Second},
}

// outcome is what one check produced.
type outcome struct {
	elapsed  time.Duration
	results  []circ.TargetReport
	metrics  circ.Metrics
	smt      smtDelta
	batch    *circ.BatchReport // nil on a lone target
	prog     *circ.Program
	overTime bool
}

type smtDelta struct{ queries, hits, misses, fastpath, slow int64 }

// progStats is the per-program row of a run.
type progStats struct {
	latMs      []float64
	survivors  int
	discharged int
	verdicts   map[string]string
	counts     map[string]int64 // first check's repeat counts
	prog       *circ.Program
}

// repeatCounters are the counts that must repeat exactly across every
// check of a program.
var repeatCounters = []string{"reach.states", "smt.queries", "icirc.iterations", "bisim.locs_out", "refine.calls"}

type runner struct {
	spec     workloadSpec
	seed     int64
	par      int
	lone     bool
	items    []*program
	warm     *circ.Checker // the long-lived store-backed checker of corpus-warm
	progs    map[string]*progStats
	order    []string
	failures []string // verdict mismatches (correctness)
	drifts   []string // repeat-count drift (nondeterminism)

	attempted, failed int
	undecided         int
	judged            int
}

func newRunner(spec workloadSpec, seed int64, par int) *runner {
	return &runner{spec: spec, seed: seed, par: par, progs: map[string]*progStats{}}
}

// setup builds the workload's inputs, fills the certificate store on
// corpus-warm, and runs one untimed warm-up pass.
func (r *runner) setup() error {
	r.items = nil
	switch r.spec.name {
	case "corpus-cold", "corpus-warm":
		ps, err := loadCorpus(engineCorpus)
		if err != nil {
			return err
		}
		r.items = ps
	case "gen-mix":
		ps, err := loadCorpus(triageCorpus)
		if err != nil {
			return err
		}
		r.items = append(generate(r.seed), ps...)
	case "lone-rxbuf":
		ps, err := loadCorpus([]string{"appmodel"})
		if err != nil {
			return err
		}
		app := ps[0]
		if app.parsed, err = circ.Parse(app.Source); err != nil {
			return err
		}
		app.Name = "appmodel:App/rxBuf"
		app.Expect = map[string]string{"App/rxBuf": app.Expect["App/rxBuf"]}
		r.lone = true
		r.items = ps
	default:
		return fmt.Errorf("unknown workload %q", r.spec.name)
	}
	if r.spec.name == "corpus-warm" {
		r.warm = circ.NewChecker(r.options(nil, circ.WithCertStore(circ.NewCertStore()))...)
		for _, it := range r.items {
			if _, err := r.check(it, nil); err != nil {
				return err
			}
		}
	}
	for _, it := range r.items {
		if _, err := r.check(it, nil); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) options(tr *circ.Tracer, extra ...circ.Option) []circ.Option {
	return append([]circ.Option{
		circ.WithParallelism(r.par),
		circ.WithSMTSlowLog(100 * time.Millisecond),
		circ.WithTracer(tr),
	}, extra...)
}

// check runs one check of it: a whole-program batch, or the lone target.
// Parsing is part of a batch check. With a tracer, the engine's spans and
// a circ.Parse span are recorded under one bench.check root span.
func (r *runner) check(it *program, tr *circ.Tracer) (*outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), r.spec.deadline)
	defer cancel()
	var root *telemetry.Span
	if tr != nil {
		ctx, root = telemetry.StartSpan(telemetry.NewContext(ctx, tr), "bench.check")
	}
	out := &outcome{}
	start := time.Now()
	if r.lone {
		chk := circ.NewChecker(r.options(tr)...)
		rep, err := chk.Check(ctx, it.parsed, "App", "rxBuf")
		out.elapsed = time.Since(start)
		out.prog = it.parsed
		out.results = []circ.TargetReport{{Target: circ.Target{Thread: "App", Variable: "rxBuf"}, Report: rep, Err: err, Elapsed: out.elapsed}}
		// The fresh checker's registry holds the whole check: the
		// report's own snapshot lacks the triage, slicing and seeding
		// counters, which are booked on the checker before CIRC runs.
		out.metrics = chk.Metrics().Snapshot()
		out.smt = smtSince(chk.SMTStats(), smt.CacheStats{})
	} else {
		_, psp := telemetry.StartSpan(ctx, "circ.Parse")
		p, err := circ.Parse(it.Source)
		psp.End()
		if err != nil {
			return nil, fmt.Errorf("%s: %v", it.Name, err)
		}
		chk := r.warm
		switch {
		case chk == nil:
			chk = circ.NewChecker(r.options(tr)...)
		case tr != nil:
			chk = chk.Derive(circ.WithTracer(tr))
		}
		before := chk.SMTStats()
		b, err := chk.CheckAll(ctx, p)
		out.elapsed = time.Since(start)
		if b == nil {
			return nil, fmt.Errorf("%s: %v", it.Name, err)
		}
		out.prog, out.batch, out.results, out.metrics = p, b, b.Results, b.Metrics
		out.smt = smtSince(chk.SMTStats(), before)
	}
	root.End()
	out.overTime = out.elapsed > r.spec.deadline
	return out, nil
}

func smtSince(now, before smt.CacheStats) smtDelta {
	return smtDelta{
		queries:  now.Solver.Queries - before.Solver.Queries,
		hits:     now.Hits - before.Hits,
		misses:   now.Misses - before.Misses,
		fastpath: now.FastPath - before.FastPath,
		slow:     now.SlowQueries - before.SlowQueries,
	}
}

// verdictOf names a target's verdict; errors and missing reports read
// "error".
func verdictOf(tr circ.TargetReport) string {
	if tr.Err != nil || tr.Report == nil {
		return "error"
	}
	return tr.Report.Verdict.String()
}

// repeatCounts extracts the exact-repeat counts of one check.
func repeatCounts(o *outcome) map[string]int64 {
	m := o.metrics
	return map[string]int64{
		"reach.states":     m.Counter("reach.states"),
		"smt.queries":      o.smt.queries,
		"icirc.iterations": m.Counter("circ.iterations"),
		"bisim.locs_out":   m.Counter("bisim.locs.out"),
		"refine.calls":     refineCalls(m),
	}
}

func refineCalls(m circ.Metrics) int64 {
	return m.Counter("refine.real") + m.Counter("refine.newpreds") + m.Counter("refine.inck") +
		m.Counter("refine.stuck") + m.Counter("refine.errors")
}

// record books one timed check: targets attempted and failed, verdicts
// against the reference (or, for generated programs, against the
// program's first check), per-program latency, and repeat counts.
func (r *runner) record(it *program, o *outcome, timed bool) {
	ps := r.progs[it.Name]
	first := ps == nil
	if first {
		ps = &progStats{verdicts: map[string]string{}, counts: repeatCounts(o), prog: o.prog}
		r.progs[it.Name] = ps
		r.order = append(r.order, it.Name)
	}
	if timed {
		ps.latMs = append(ps.latMs, float64(o.elapsed.Nanoseconds())/1e6)
	}
	surv, disch := 0, 0
	for _, tr := range o.results {
		key := tr.Target.String()
		v := verdictOf(tr)
		r.attempted++
		if v != "safe" && v != "unsafe" || o.overTime {
			r.failed++
		}
		if tr.Report != nil && tr.Report.Triage != "" {
			disch++
		} else {
			surv++
		}
		switch {
		case it.Expect != nil:
			if want := it.Expect[key]; v != want && (v == "safe" || v == "unsafe") {
				r.failures = append(r.failures, fmt.Sprintf("%s %s: got %s, want %s", it.Name, key, v, want))
			}
		case !first && ps.verdicts[key] != v:
			r.failures = append(r.failures, fmt.Sprintf("%s %s: verdict changed between checks: %s then %s", it.Name, key, ps.verdicts[key], v))
		}
		ps.verdicts[key] = v
	}
	ps.survivors, ps.discharged = surv, disch
	if !first {
		now := repeatCounts(o)
		for _, k := range repeatCounters {
			if now[k] != ps.counts[k] {
				r.drifts = append(r.drifts, fmt.Sprintf("%s %s: %d then %d", it.Name, k, ps.counts[k], now[k]))
			}
		}
	}
}

// judgeGenerated runs the explicit-state oracle over every generated
// program after the timed run, untimed.
func (r *runner) judgeGenerated() error {
	for _, it := range r.items {
		if it.Expect != nil {
			continue
		}
		ps := r.progs[it.Name]
		if ps == nil {
			continue
		}
		o, err := judge(it.Name, ps.prog, ps.verdicts)
		if err != nil {
			return err
		}
		r.judged += o.agreed + o.undecided + len(o.mismatches)
		r.undecided += o.undecided
		r.failures = append(r.failures, o.mismatches...)
	}
	return nil
}

// probe runs the benchmark's own standalone layer probes for one traced
// check, outside its timing: the CFA build of every thread and the
// dataflow triage, slice and flag-guard analyses of every pair. A lone
// target is parsed here too (its check does not parse).
func probe(ctx context.Context, it *program, p *circ.Program) (edges int) {
	ctx, root := telemetry.StartSpan(ctx, "bench.probe")
	defer root.End()
	if it.parsed != nil {
		_, sp := telemetry.StartSpan(ctx, "circ.Parse")
		circ.Parse(it.Source)
		sp.End()
	}
	for _, th := range p.ThreadNames() {
		_, sp := telemetry.StartSpan(ctx, "Program.CFA")
		g, err := p.CFA(th)
		sp.End()
		if err != nil {
			continue
		}
		edges += len(g.Edges)
		for _, v := range p.Globals() {
			if it.parsed != nil && v != "rxBuf" {
				continue
			}
			_, sp := telemetry.StartSpan(ctx, "dataflow.triage")
			_, discharged := dataflow.Triage(g, v)
			sp.End()
			if discharged {
				continue
			}
			_, sp = telemetry.StartSpan(ctx, "dataflow.slice")
			sliced, _ := dataflow.Slice(g, v)
			sp.End()
			_, sp = telemetry.StartSpan(ctx, "dataflow.flagguard")
			dataflow.FlagGuard(sliced).SeedPredicates()
			sp.End()
		}
	}
	return edges
}

// rusageCPU returns the process's user+system CPU time in seconds.
func rusageCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// runtimeSample reads the runtime/metrics the benchmark reports.
type runtimeSample struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, totalCPU                    float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: u(0), allocObjects: u(1), gcCycles: u(2), gcCPU: f(3), totalCPU: f(4)}
}

// watchLiveHeap polls /gc/heap/live:bytes (the live heap marked by the
// latest GC) every 2 ms until the returned stop function is called, which
// returns the maximum seen. Polling catches the live peak of every GC
// cycle inside a long check; a sample taken only after each check reads
// whichever cycle ran last and missed appmodel's peak in most runs.
func watchLiveHeap() (stop func() uint64) {
	done := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var max uint64
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > max {
				max = v
			}
			select {
			case <-done:
				peak <- max
				return
			case <-t.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-peak
	}
}

// programRow renders one per-program line: sample count, latency median
// and quartiles, pair split, and verdicts.
func (r *runner) programRow(name string) string {
	ps := r.progs[name]
	keys := make([]string, 0, len(ps.verdicts))
	for k := range ps.verdicts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vs := ""
	for _, k := range keys {
		vs += " " + k + "=" + ps.verdicts[k]
	}
	return fmt.Sprintf("%-30s n=%-4d p50=%9.3fms q1=%9.3fms q3=%9.3fms survivors=%d discharged=%d%s",
		name, len(ps.latMs), median(ps.latMs), quantile(ps.latMs, 0.25), quantile(ps.latMs, 0.75),
		ps.survivors, ps.discharged, vs)
}
