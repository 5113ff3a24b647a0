// Command perfbench is the mediator's end-to-end benchmark. It builds one of
// three workloads from a seed, drives the public entry points the way a
// user does (workload builders, optimizer.PlanCache, exec.NewRuntime and
// core.RunStrategyOn, or server.New, Submit and Run), checks every query's
// output against the independent reference evaluator, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// With -trace 0 it reports the end-to-end metrics of an untraced run. With
// -trace 1 it runs an untraced phase, a phase with the engine's workers at
// nproc, a timed phase (a timing wrapper around the DSE policy under a CPU
// profile folded per package) and an event-count phase (Config.Trace), and
// reports the per-layer metrics plus the tracing overhead. See README.md for
// the workloads and the metric map.
//
// Usage (run.py builds it and passes -out and -go):
//
//	perfbench -workload tight-memory -seed 1 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"dqs/internal/core"
	dqsexec "dqs/internal/exec"
	"dqs/internal/plan"
	"dqs/internal/relation"
	"dqs/internal/server"
	"dqs/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: bulk-fig5, tight-memory or service-mix")
	seed := fs.Int64("seed", 1, "seed every input is drawn from")
	seconds := fs.Float64("seconds", 20, "measured host seconds (whole cycles are completed)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for spans, profiles and result records")
	goBin := fs.String("go", "go", "go command used to fold the CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: -seconds must be positive, got %g\n", *seconds)
		return 2
	}
	wd, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	b := &bench{
		def:     wd,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		outDir:  *out,
		goBin:   *goBin,
		m:       newMetrics(),
	}
	if err := b.run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wd.name, err)
		return 1
	}
	if err := b.report(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// mode selects how a request is observed.
type mode int

const (
	// plain runs the public calls exactly as a user does.
	plain mode = iota
	// parallel is plain with the engine's intra-query workers at nproc.
	parallel
	// timed adds the timing policy wrapper and spans (profiled phase).
	timed
	// events is timed plus Config.Trace, for event counts by kind.
	events
)

// queryOutcome is one query's observed result.
type queryOutcome struct {
	res dqsexec.Result
	// latency and first are virtual arrival-to-last and arrival-to-first
	// tuple times; admitWait is the server's admission wait.
	latency, first, admitWait time.Duration
	completedAt               time.Duration
	lwb                       time.Duration
	err                       error
}

// sameVirtual reports whether two executions of one input agree on every
// deterministic quantity.
func (q queryOutcome) sameVirtual(o queryOutcome) bool {
	return q.res.Equal(o.res) && q.latency == o.latency && q.first == o.first &&
		q.admitWait == o.admitWait && q.completedAt == o.completedAt
}

// layerAcc accumulates the traced phase's per-layer observations.
type layerAcc struct {
	queries      int
	newRuntimeUs []float64
	loadUs       []float64
	planCalls    int
	planTime     time.Duration
	engineTime   time.Duration
	events       map[core.EventKind]int
	traceEvents  map[sim.EventKind]int
	traceTotal   int
	sinkEmits    int64
	serverRunMs  []float64
	peakActive   []float64
	peakQueued   []float64
	cancelled    int
	streams      []float64
	taps         []float64
}

// observe adds one engine run: the timed policy's calls and events, the
// engine's host time, and the trace's events (tr is nil outside the
// event-count phase).
func (l *layerAcc) observe(col *collector, tr *sim.Trace, engine time.Duration) {
	l.planCalls += col.calls
	l.planTime += col.planTime
	l.engineTime += engine
	for k, v := range col.events {
		l.events[k] += v
	}
	if tr != nil {
		for _, e := range tr.Events {
			l.traceEvents[e.Kind]++
		}
		l.traceTotal += len(tr.Events)
	}
}

func newLayerAcc() *layerAcc {
	return &layerAcc{events: make(map[core.EventKind]int), traceEvents: make(map[sim.EventKind]int)}
}

// reqTime is the host time and the heap allocation of one execution of
// request ri.
type reqTime struct {
	ri    int
	ms    float64
	alloc uint64 // bytes
}

// phaseResult accumulates one phase's host measurements.
type phaseResult struct {
	wall     time.Duration
	cpu      time.Duration
	queries  int
	gcCycles uint32
	rssMB    float64
	reqMs    []reqTime
	// calMs are the calibration kernel's host times, interleaved with the
	// requests; calTime is their sum, which wall includes.
	calMs   []float64
	calTime time.Duration
	layer   *layerAcc
}

func newPhase() *phaseResult { return &phaseResult{layer: newLayerAcc()} }

// bench is one benchmark invocation.
type bench struct {
	def     *workloadDef
	seed    int64
	seconds time.Duration
	traced  bool
	outDir  string
	goBin   string

	s       *suite
	scratch *dqsexec.Scratch
	log     spanLog
	cal     *calibrator
	// first holds each request's first observed outcomes: the determinism
	// reference for every later execution and the source of the virtual
	// metrics.
	first [][]queryOutcome

	attempted, failed int
	errs              []string
	nondeterministic  bool
	m                 *metrics
}

func (b *bench) run() error {
	setupS, buildMs, loadUs, err := b.setup()
	if err != nil {
		return err
	}
	if err := b.prepareReferences(); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	runtime.GC()

	b.first = make([][]queryOutcome, b.s.requests())
	b.scratch = dqsexec.NewScratch()
	b.cal = newCalibrator()
	// Warm-up: the first request, untimed but checked.
	b.do(newPhase(), 0, plain)

	if !b.traced {
		ph := b.phase(b.seconds, b.s.minCycles, true, plain)
		b.m.set("setup_s", median(setupS), "s", fmt.Sprintf("median of %d set-ups", len(setupS)))
		b.endToEnd(ph)
	} else {
		// A third of the time each for the untraced baseline and the
		// profiled timed phase (whole cycles), a sixth for the
		// parallel-kernel phase (whole requests).
		untraced := b.phase(b.seconds/3, 1, true, plain)
		par := b.phase(b.seconds/6, 0, false, parallel)
		traced, err := b.tracedPhase(b.seconds / 3)
		if err != nil {
			return err
		}
		// Config.Trace formats every event, which would dominate the
		// profile, so event counts come from a phase of their own: the
		// first quarter of the cycle.
		counted := newPhase()
		for ri := 0; ri < max(1, b.s.requests()/4); ri++ {
			b.do(counted, ri, events)
		}
		b.perLayer(untraced, par, traced, counted, buildMs, loadUs)
	}
	for _, e := range b.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s\n", e)
	}
	if b.nondeterministic {
		fmt.Fprintln(os.Stderr, "perfbench: NONDETERMINISM: a repeated input produced different virtual results")
	}
	return nil
}

// setupRounds is how many times set-up is repeated; setup_s is the median.
const setupRounds = 15

// setup builds the workload setupRounds times and keeps the last suite.
func (b *bench) setup() (setupS, buildMs, loadUs []float64, err error) {
	for i := 0; i < setupRounds; i++ {
		// Start every round from a collected heap, so one round's garbage
		// is not charged to the next.
		b.s = nil
		runtime.GC()
		st := &setupTimer{}
		t0 := time.Now()
		s, err := b.def.build(b.seed, st)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		buildMs = append(buildMs, float64(st.buildTime.Nanoseconds())/1e6)
		loadUs = append(loadUs, st.loads...)
		b.s = s
	}
	return setupS, buildMs, loadUs, nil
}

// prepareReferences evaluates the reference answer and the isolated LWB of
// every distinct input. This is the benchmark's own oracle work and is not
// part of setup_s.
func (b *bench) prepareReferences() error {
	refs := make(references)
	var err error
	for _, in := range b.s.inputs {
		in.ref = refs.of(in.root, in.ds)
		if in.lwb, err = lwbOf(in.cfg, in.root, in.ds, in.deliveries); err != nil {
			return fmt.Errorf("%s: %w", in.label, err)
		}
	}
	// A service query's bound depends only on its plan: every query of a
	// shape shares the dataset and deliveries, and LWB reads no seed.
	lwbs := make(map[*plan.Node]time.Duration)
	for _, bt := range b.s.batches {
		for i := range bt.queries {
			q := &bt.queries[i]
			q.ref = refs.of(q.root, q.base.Dataset)
			lwb, ok := lwbs[q.root]
			if !ok {
				cfg := bt.cfg.Exec
				cfg.Governor, cfg.SharedStreams = false, false
				if lwb, err = lwbOf(cfg, q.root, q.base.Dataset, q.deliveries); err != nil {
					return fmt.Errorf("%s/%s: %w", bt.label, q.label, err)
				}
				lwbs[q.root] = lwb
			}
			q.lwb = lwb
		}
	}
	return nil
}

// lwbOf computes the analytic lower bound of one query run in isolation.
func lwbOf(cfg dqsexec.Config, root *plan.Node, ds relation.Dataset, d map[string]dqsexec.Delivery) (time.Duration, error) {
	cfg.Scratch, cfg.Stream, cfg.Trace = nil, nil, nil
	rt, err := dqsexec.NewRuntime(cfg, root, ds, d)
	if err != nil {
		return 0, err
	}
	return dqsexec.LWB(rt), nil
}

// calEvery is how often the calibration kernel runs between requests.
const calEvery = 250 * time.Millisecond

// phase runs the closed loop for at least d and minCycles whole cycles, and
// summarizes the host measurements. With wholeCycles false it ends at the
// first request boundary after d instead, after at least one request.
//
// Between requests, at most every calEvery, it runs the calibration kernel,
// so the phase also records the machine's speed while it ran.
func (b *bench) phase(d time.Duration, minCycles int, wholeCycles bool, md mode) *phaseResult {
	ph := newPhase()
	runtime.GC()
	m0 := readMem()
	cpu0 := cpuTime()
	rss := startRSS()
	start := time.Now()
	var lastCal time.Time
loop:
	for cycle := 0; cycle < minCycles || time.Since(start) < d; cycle++ {
		for ri := 0; ri < b.s.requests(); ri++ {
			if !wholeCycles && (cycle > 0 || ri > 0) && time.Since(start) >= d {
				break loop
			}
			if time.Since(lastCal) >= calEvery {
				c := b.cal.run()
				ph.calMs = append(ph.calMs, float64(c.Nanoseconds())/1e6)
				ph.calTime += c
				lastCal = time.Now()
			}
			b.do(ph, ri, md)
		}
	}
	ph.wall = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	ph.rssMB = rss.finish()
	m1 := readMem()
	ph.gcCycles = m1.numGC - m0.numGC
	return ph
}

// do executes request ri, checks every query's output and determinism, and
// records host time in ph.
func (b *bench) do(ph *phaseResult, ri int, md mode) {
	var (
		host time.Duration
		outs []queryOutcome
		n    int
		err  error
	)
	a0 := allocBytes()
	if b.s.batches != nil {
		n = len(b.s.batches[ri].queries)
		host, outs, err = b.doBatch(ph, b.s.batches[ri], md)
	} else {
		n = 1
		host, outs, err = b.doQuery(ph, b.s.inputs[ri], md)
	}
	b.attempted += n
	if err != nil {
		b.failed += n
		b.errs = append(b.errs, fmt.Sprintf("request %d: %v", ri, err))
		return
	}
	ph.reqMs = append(ph.reqMs, reqTime{ri, float64(host.Nanoseconds()) / 1e6, allocBytes() - a0})
	first := b.first[ri]
	for i, o := range outs {
		if o.err != nil {
			b.failed++
			b.errs = append(b.errs, fmt.Sprintf("request %d query %d: %v", ri, i, o.err))
			continue
		}
		ph.queries++
		if first != nil && !o.sameVirtual(first[i]) {
			b.failed++
			b.nondeterministic = true
			b.errs = append(b.errs, fmt.Sprintf("request %d query %d: virtual results drifted: %v vs %v",
				ri, i, o.res, first[i].res))
		}
	}
	if first == nil {
		b.first[ri] = outs
	}
}

// doQuery runs one runtime-mode query: NewRuntime, then the engine.
func (b *bench) doQuery(ph *phaseResult, in *input, md mode) (time.Duration, []queryOutcome, error) {
	traced := md == timed || md == events
	sink := &checkSink{live: in.ref.live}
	cfg := in.cfg
	if md == parallel {
		cfg.Workers = runtime.NumCPU()
	}
	cfg.Stream = sink
	cfg.Scratch = b.scratch
	strategy := "DSE"
	if traced {
		strategy = timedStrategy
	}
	var tr *sim.Trace
	if md == events {
		tr = &sim.Trace{}
		cfg.Trace = tr
	}
	req := b.log.begin("request", in.label, 0)
	nr := b.log.begin("exec.NewRuntime", in.label, req.ID)
	t0 := time.Now()
	rt, err := dqsexec.NewRuntime(cfg, in.root, in.ds, in.deliveries)
	t1 := time.Now()
	if err != nil {
		return 0, nil, err
	}
	eng := b.log.begin("core.RunStrategyOn", in.label, req.ID)
	var col *collector
	if traced {
		col = newCollector(&b.log, eng.ID, in.label)
		activeCollector = col
	}
	res, err := core.RunStrategyOn(rt, strategy)
	t2 := time.Now()
	activeCollector = nil
	rt.Med.Reclaim()
	host := time.Since(t0)
	if traced {
		b.log.endAt(nr, t1)
		b.log.endAt(eng, t2)
		b.log.end(req)
	}
	if err != nil {
		return 0, nil, err
	}
	out := queryOutcome{res: res, latency: res.ResponseTime, first: res.FirstTupleTime, lwb: in.lwb}
	out.err = sink.verify(in.ref, res.OutputRows)
	if traced {
		l := ph.layer
		l.queries++
		l.newRuntimeUs = append(l.newRuntimeUs, float64(t1.Sub(t0).Nanoseconds())/1e3)
		l.observe(col, tr, t2.Sub(t1))
		l.sinkEmits += sink.rows
	}
	return host, []queryOutcome{out}, nil
}

// doBatch runs one service request: plan every query through the shared
// cache, then server.New, Submit and Run.
func (b *bench) doBatch(ph *phaseResult, bt *batch, md mode) (time.Duration, []queryOutcome, error) {
	traced := md == timed || md == events
	req := b.log.begin("request", bt.label, 0)
	t0 := time.Now()
	sinks := make([]checkSink, len(bt.queries))
	queries := make([]server.Query, len(bt.queries))
	var loadUs []float64
	for i, q := range bt.queries {
		ls := b.log.begin("optimizer.Load", bt.label, req.ID)
		tl := time.Now()
		cp, err := b.s.pc.Load(q.base.Catalog, q.query, q.base.Stats)
		loadUs = append(loadUs, float64(time.Since(tl).Nanoseconds())/1e3)
		if traced {
			b.log.end(ls)
		}
		if err != nil {
			return 0, nil, fmt.Errorf("%s: %w", q.label, err)
		}
		if cp.Root != q.root {
			return 0, nil, fmt.Errorf("%s: plan cache served a different plan than at set-up", q.label)
		}
		w := *q.base
		w.Query = q.query
		w.Root = cp.Root
		queries[i] = server.Query{
			Label:      q.label,
			Workload:   &w,
			Deliveries: q.deliveries,
			ArriveAt:   q.arrive,
			Sink:       &sinks[i],
		}
		sinks[i].live = q.ref.live
	}
	cfg := bt.cfg
	if md == parallel {
		cfg.Exec.Workers = runtime.NumCPU()
	}
	var tr *sim.Trace
	run := b.log.begin("server.Run", bt.label, req.ID)
	var col *collector
	if md == events {
		tr = &sim.Trace{}
		cfg.Exec.Trace = tr
	}
	if traced {
		cfg.Strategy = timedStrategy
		col = newCollector(&b.log, run.ID, bt.label)
		activeCollector = col
		defer func() { activeCollector = nil }()
	}
	srv, err := server.New(cfg)
	if err != nil {
		return 0, nil, err
	}
	for _, q := range queries {
		if err := srv.Submit(q); err != nil {
			return 0, nil, err
		}
	}
	tr0 := time.Now()
	reports, stats, err := srv.Run()
	tr1 := time.Now()
	host := time.Since(t0)
	if traced {
		b.log.endAt(run, tr1)
		b.log.end(req)
	}
	if err != nil {
		return 0, nil, err
	}
	outs := make([]queryOutcome, len(reports))
	for i, rep := range reports {
		q := bt.queries[i]
		o := queryOutcome{
			res:         rep.Result,
			latency:     rep.CompletedAt - rep.ArrivedAt,
			first:       rep.Result.FirstTupleTime - rep.ArrivedAt,
			admitWait:   rep.AdmissionWait,
			completedAt: rep.CompletedAt,
			lwb:         q.lwb,
		}
		if rep.Cancelled {
			o.err = fmt.Errorf("%s cancelled", q.label)
		} else {
			o.err = sinks[i].verify(q.ref, rep.Result.OutputRows)
		}
		outs[i] = o
	}
	if traced {
		l := ph.layer
		l.queries += len(reports)
		l.loadUs = append(l.loadUs, loadUs...)
		l.observe(col, tr, tr1.Sub(tr0))
		for i := range sinks {
			l.sinkEmits += sinks[i].rows
		}
		l.serverRunMs = append(l.serverRunMs, float64(tr1.Sub(tr0).Nanoseconds())/1e6)
		l.peakActive = append(l.peakActive, float64(stats.PeakActive))
		l.peakQueued = append(l.peakQueued, float64(stats.PeakQueued))
		l.cancelled += stats.Cancelled
		l.streams = append(l.streams, float64(stats.SharedStreams))
		if stats.SharedStreams > 0 {
			l.taps = append(l.taps, float64(stats.StreamTaps)/float64(stats.SharedStreams))
		}
	}
	return host, outs, nil
}

// tracedPhase runs the traced phase under a CPU profile and folds it.
func (b *bench) tracedPhase(d time.Duration) (*phaseResult, error) {
	dir := filepath.Join(b.outDir, "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", b.def.name, b.seed))
	f, err := os.Create(stem + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	ph := b.phase(d, 1, true, timed)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	spans := b.log.spans
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := writeSpans(stem+".spans.jsonl", spans); err != nil {
		return nil, err
	}
	counts, samples, err := foldProfile(b.goBin, stem+".cpu.pprof")
	if err != nil {
		return nil, err
	}
	for _, mod := range cpuModules {
		share := 0.0
		if samples > 0 {
			share = float64(counts[mod]) / float64(samples)
		}
		b.m.set("cpu."+mod, share, "fraction", "")
	}
	b.m.set("cpu.samples", float64(samples), "count", "")
	return ph, nil
}

// virtuals gathers the deterministic per-query outcomes of one cycle.
func (b *bench) virtuals() []queryOutcome {
	var all []queryOutcome
	for _, outs := range b.first {
		for _, o := range outs {
			if o.err == nil {
				all = append(all, o)
			}
		}
	}
	return all
}

// endToEnd reports the untraced run's metrics.
func (b *bench) endToEnd(ph *phaseResult) {
	m := b.m
	h := b.hostTimes(ph)
	m.set("queries_per_cal", float64(b.s.queriesPerCycle())/h.cycleMs*h.calMs, "1/cal",
		fmt.Sprintf("a cycle's %d queries over the sum of its %d inputs' median host times", b.s.queriesPerCycle(), h.inputs))
	m.set("request_cal_p50", h.inputP50/h.calMs, "cal", pctLabel(50, h.inputs)+": per-input medians")
	m.set("request_cal_tail", h.inputTail/h.calMs, "cal",
		pctLabel(h.inputTailPct, h.inputs)+": per-input medians")
	b.hostInfo(ph, h, false)

	vs := b.virtuals()
	lat := make([]float64, len(vs))
	first := make([]float64, len(vs))
	var lwbSum, work float64
	for i, o := range vs {
		lat[i] = o.latency.Seconds()
		first[i] = o.first.Seconds()
		lwbSum += float64(o.latency) / float64(o.lwb)
		work += o.res.TotalWork().Seconds()
	}
	n := float64(max(len(vs), 1))
	vTail := tailPercentile(b.s.queriesPerCycle())
	m.set("virtual_latency_s_p50", percentile(lat, 50), "virt_s", pctLabel(50, len(lat)))
	m.set("virtual_latency_s_tail", percentile(lat, vTail), "virt_s", pctLabel(vTail, len(lat)))
	m.set("virtual_first_tuple_s_p50", percentile(first, 50), "virt_s", pctLabel(50, len(first)))
	m.set("lwb_ratio", lwbSum/n, "ratio", "mean of virtual response / isolated LWB")
	m.set("virtual_work_s_per_query", work/n, "virt_s", "Result.TotalWork")
	m.set("success_frac", 1-float64(b.failed)/float64(max(b.attempted, 1)), "fraction",
		fmt.Sprintf("%d of %d attempted queries failed", b.failed, b.attempted))
	m.set("alloc_mb_per_query", h.cycleAlloc/float64(b.s.queriesPerCycle())/(1<<20), "MB",
		"heap bytes allocated per query: a cycle's per-input medians")
	m.set("peak_rss_mb", ph.rssMB, "MB", fmt.Sprintf("sampled every %v during the measured phase", rssPeriod))
}

// hostTimes summarizes a phase's host times.
type hostTimes struct {
	// Raw figures: wall-clock throughput (calibration time excluded), and
	// the median and tail over every request.
	qps, p50, tail float64 // 1/s, ms, ms
	rawTailPct     float64
	n              int
	// Per-input figures: each distinct request's median over its repeats.
	// Interference from other tenants comes in bursts that hit single
	// executions; the median of an input's repeats drops them. cycleMs is the sum over one cycle; inputP50 and
	// inputTail are the median and the tail across inputs.
	cycleMs      float64
	cycleAlloc   float64 // bytes
	inputP50     float64
	inputTail    float64
	inputTailPct float64
	inputs       int
	// calMs is the median calibration-kernel time of the phase.
	calMs float64
}

// hostTimes summarizes a phase. The raw tail percentile is the highest with
// ten samples beyond it at the sample count the workload guarantees; the
// per-input one, at the number of distinct requests.
func (b *bench) hostTimes(ph *phaseResult) hostTimes {
	ms := make([]float64, len(ph.reqMs))
	byReq := make(map[int][]float64)
	allocByReq := make(map[int][]float64)
	for i, t := range ph.reqMs {
		ms[i] = t.ms
		byReq[t.ri] = append(byReq[t.ri], t.ms)
		allocByReq[t.ri] = append(allocByReq[t.ri], float64(t.alloc))
	}
	perInput := make([]float64, 0, len(byReq))
	var cycle, cycleAlloc float64
	for ri, xs := range byReq {
		m := median(xs)
		perInput = append(perInput, m)
		cycle += m
		cycleAlloc += median(allocByReq[ri])
	}
	rawTail := tailPercentile(b.s.minCycles * b.s.requests())
	inputTail := tailPercentile(len(perInput))
	return hostTimes{
		qps:          float64(ph.queries) / (ph.wall - ph.calTime).Seconds(),
		p50:          percentile(ms, 50),
		tail:         percentile(ms, rawTail),
		rawTailPct:   rawTail,
		n:            len(ms),
		cycleMs:      cycle,
		cycleAlloc:   cycleAlloc,
		inputP50:     percentile(perInput, 50),
		inputTail:    percentile(perInput, inputTail),
		inputTailPct: inputTail,
		inputs:       len(perInput),
		calMs:        median(ph.calMs),
	}
}

// hostInfo reports the raw host times: printed only in the end-to-end run,
// and reported as per-layer metrics in the traced run.
func (b *bench) hostInfo(ph *phaseResult, h hostTimes, inJSON bool) {
	set := b.m.show
	if inJSON {
		set = b.m.set
	}
	set("queries_per_s", h.qps, "1/s", fmt.Sprintf("%d queries in %.2fs, one client, closed loop", ph.queries, (ph.wall-ph.calTime).Seconds()))
	set("request_ms_p50", h.p50, "ms", pctLabel(50, h.n))
	set("request_ms_tail", h.tail, "ms", pctLabel(h.rawTailPct, h.n))
	set("host.cal_ms", h.calMs, "ms", fmt.Sprintf("median of %d calibration-kernel runs", len(ph.calMs)))
}

// perLayer reports the traced run's metrics.
func (b *bench) perLayer(untraced, par, traced, counted *phaseResult, buildMs, setupLoadUs []float64) {
	m := b.m
	b.hostInfo(untraced, b.hostTimes(untraced), true)
	l := traced.layer
	q := float64(max(l.queries, 1))
	m.set("workload.build_ms", median(buildMs), "ms", "median over set-ups")
	loads := append(append([]float64(nil), setupLoadUs...), l.loadUs...)
	m.set("optimizer.load_us", percentile(loads, 50), "us", pctLabel(50, len(loads)))
	cs := b.s.pc.Stats()
	m.set("optimizer.shape_hit_ratio", ratio(float64(cs.Hits), float64(cs.Misses)), "ratio",
		fmt.Sprintf("%d hits, %d misses", cs.Hits, cs.Misses))

	vs := b.virtuals()
	var hits, misses, replans, degr, repairs, mat, reads, writes, cacheHits float64
	var busy, idle, diskBusy, peak float64
	var admit []float64
	for _, o := range vs {
		r := o.res
		hits += float64(r.PlanCacheHits)
		misses += float64(r.PlanCacheMisses)
		replans += float64(r.Replans)
		degr += float64(r.Degradations)
		repairs += float64(r.MemRepairs)
		mat += float64(r.MaterializedTuples)
		reads += float64(r.Disk.Reads)
		writes += float64(r.Disk.Writes)
		cacheHits += float64(r.Disk.CacheHits)
		busy += r.BusyTime.Seconds()
		idle += r.IdleTime.Seconds()
		diskBusy += r.Disk.BusyTime.Seconds()
		peak += float64(r.PeakMemBytes) / (1 << 20)
		admit = append(admit, o.admitWait.Seconds())
	}
	nv := float64(max(len(vs), 1))
	m.set("plan.decomp_hit_ratio", ratio(hits, misses), "ratio", "Result.PlanCacheHits/(hits+misses)")
	m.set("exec.new_runtime_us", percentile(l.newRuntimeUs, 50), "us", pctLabel(50, len(l.newRuntimeUs)))
	m.set("core.plan_calls", float64(l.planCalls)/q, "count", "Plan+OnEvent calls per query")
	m.set("core.plan_us", float64(l.planTime.Nanoseconds())/1e3/q, "us", "host time in Plan+OnEvent per query")
	m.set("core.replans", replans/nv, "count", "per query")
	m.set("core.degradations", degr/nv, "count", "per query")
	m.set("core.mem_repairs", repairs/nv, "count", "per query")
	m.set("core.rate_changes", float64(l.events[core.EventRateChange])/q, "count", "per query")
	m.set("exec.dqp_ms", float64((l.engineTime-l.planTime).Nanoseconds())/1e6/q, "ms",
		"engine span minus core.plan_us, per query")
	ev := counted.layer
	qe := float64(max(ev.queries, 1))
	m.set("exec.batches", float64(ev.traceEvents[sim.EvBatch])/qe, "count", "first-batch trace events per query")
	m.set("comm.stalls", float64(ev.traceEvents[sim.EvStall])/qe, "count", "stall trace events per query")
	m.set("exec.busy_s", busy/nv, "virt_s", "per query")
	m.set("exec.idle_s", idle/nv, "virt_s", "per query; waiting on wrappers")
	m.set("exec.sink_emits", float64(l.sinkEmits)/q, "count", "per query")
	var refRows float64
	for _, o := range vs {
		refRows += float64(o.res.OutputRows)
	}
	m.set("exec.sink_emit_ratio", float64(l.sinkEmits)/q/(refRows/nv), "ratio", "sink tuples / reference rows")
	m.set("mem.peak_mb", peak/nv, "MB", "Result.PeakMemBytes per query")
	m.set("mem.materialized_tuples", mat/nv, "count", "per query")
	m.set("mem.disk_reads", reads/nv, "count", "pages per query")
	m.set("mem.disk_writes", writes/nv, "count", "pages per query")
	m.set("mem.disk_cache_hit_ratio", ratio(cacheHits, reads), "ratio", "")
	m.set("mem.disk_busy_s", diskBusy/nv, "virt_s", "per query")
	m.set("server.run_ms", percentile(l.serverRunMs, 50), "ms", pctLabel(50, len(l.serverRunMs)))
	m.set("server.peak_active", mean(l.peakActive), "count", "mean per batch")
	m.set("server.peak_queued", mean(l.peakQueued), "count", "mean per batch")
	if b.s.batches == nil {
		admit = nil
	}
	m.set("server.admission_wait_s_p50", percentile(admit, 50), "virt_s", pctLabel(50, len(admit)))
	m.set("server.cancelled", float64(l.cancelled), "count", "")
	m.set("source.shared_streams", mean(l.streams), "count", "mean per batch")
	m.set("source.taps_per_stream", mean(l.taps), "count", "")
	m.set("process.cpu_per_wall", untraced.cpu.Seconds()/untraced.wall.Seconds(), "ratio", "untraced phase")
	m.set("exec.parallel_cpu_per_wall", par.cpu.Seconds()/par.wall.Seconds(), "ratio",
		fmt.Sprintf("Workers=%d phase", runtime.NumCPU()))
	serial, parMs := matchedTimes(untraced.reqMs, par.reqMs)
	m.set("exec.parallel_speedup", serial/parMs, "ratio",
		fmt.Sprintf("same requests at the workload's Workers vs Workers=%d, %d requests", runtime.NumCPU(), len(par.reqMs)))
	m.set("runtime.gc_cycles_per_query", float64(untraced.gcCycles)/float64(max(untraced.queries, 1)), "count", "untraced phase")
	plainPer := untraced.wall.Seconds() / float64(max(untraced.queries, 1))
	tracedPer := traced.wall.Seconds() / float64(max(traced.queries, 1))
	m.set("trace.overhead_frac", tracedPer/plainPer-1, "fraction",
		fmt.Sprintf("host s/query traced %.4f vs untraced %.4f", tracedPer, plainPer))
	m.set("trace.events_per_query", float64(ev.traceTotal)/qe, "count", "Config.Trace events")
}

// report prints every metric with its unit, the host record, and the final
// JSON result line.
func (b *bench) report(w *os.File) error {
	h := hostInfo()
	mode := "end-to-end"
	if b.traced {
		mode = "traced per-layer"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d (%s): %s\n", b.def.name, b.seed, mode, b.def.why)
	if len(b.m.shown) > 0 {
		fmt.Fprintln(w, "  (lines marked [info] are printed for reading and are not in the result)")
	}
	for _, name := range b.m.order {
		v, ok := b.m.values[name]
		label := name
		if !ok {
			v = b.m.shown[name]
			label += " [info]"
		}
		line := fmt.Sprintf("  %-30s %14.6g %s", label, v.Value, v.Unit)
		if note := b.m.notes[name]; note != "" {
			line += "  (" + note + ")"
		}
		fmt.Fprintln(w, line)
	}
	hj, err := json.Marshal(struct {
		Host     host   `json:"host"`
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Trace    bool   `json:"trace"`
	}{h, b.def.name, b.seed, b.traced})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "host: %s\n", hj)
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   b.failed == 0 && !b.nondeterministic && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.m.values,
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := b.record(h, line); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// record keeps the result with its host metadata under the output
// directory, so stored numbers always carry the machine they came from.
func (b *bench) record(h host, result []byte) error {
	dir := filepath.Join(b.outDir, "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec, err := json.Marshal(struct {
		Host     host            `json:"host"`
		Workload string          `json:"workload"`
		Seed     int64           `json:"seed"`
		Trace    bool            `json:"trace"`
		Result   json.RawMessage `json:"result"`
	}{h, b.def.name, b.seed, b.traced, result})
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", b.def.name, b.seed, boolInt(b.traced))
	return os.WriteFile(filepath.Join(dir, name), append(rec, '\n'), 0o644)
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}

// matchedTimes sums, over the requests of b, the median host time each had
// in a and its time in b, so phases covering different requests compare
// like with like.
func matchedTimes(a, b []reqTime) (sumA, sumB float64) {
	byReq := make(map[int][]float64)
	for _, t := range a {
		byReq[t.ri] = append(byReq[t.ri], t.ms)
	}
	for _, t := range b {
		if xs, ok := byReq[t.ri]; ok {
			sumA += median(xs)
			sumB += t.ms
		}
	}
	return sumA, sumB
}
