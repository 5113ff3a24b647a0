package main

import (
	"fmt"
	"sort"
	"time"

	dqsexec "dqs/internal/exec"
	"dqs/internal/optimizer"
	"dqs/internal/plan"
	"dqs/internal/relation"
	"dqs/internal/server"
	"dqs/internal/sim"
	"dqs/internal/source"
	"dqs/internal/workload"
)

// workloadDef is one benchmark workload: how to build its inputs from a
// seed, and why it exists.
type workloadDef struct {
	name string
	why  string
	// build assembles one cycle of requests. It must draw every input from
	// seed alone.
	build func(seed int64, st *setupTimer) (*suite, error)
}

var workloadDefs = []workloadDef{
	{
		name:  "bulk-fig5",
		why:   "full-scale Fig-5 QEP under DSE, one slowed wrapper per query: hash tables exceed the CPU cache; source, comm, operator and exec do the work",
		build: buildBulk,
	},
	{
		name:  "tight-memory",
		why:   "Fig5Small and SmallStar under 1-3.2 MB grants with bursty and delayed wrappers: replanning, degradation, DQO repair and spills in core and mem",
		build: buildTight,
	},
	{
		name:  "service-mix",
		why:   "fused server batches over shared streams and one plan cache, load above capacity: admission, governor, cross-query scheduling, cache hits",
		build: buildService,
	},
}

func findWorkload(name string) (*workloadDef, error) {
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			return &workloadDefs[i], nil
		}
	}
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// setupTimer times the public set-up calls a workload builder makes.
type setupTimer struct {
	buildTime time.Duration
	loads     []float64 // PlanCache.Load host times, µs
}

// workload times one workload builder call.
func (s *setupTimer) workload(fn func() (*workload.Workload, error)) (*workload.Workload, error) {
	t0 := time.Now()
	w, err := fn()
	s.buildTime += time.Since(t0)
	return w, err
}

// load times one PlanCache.Load call.
func (s *setupTimer) load(pc *optimizer.PlanCache, w *workload.Workload, q *optimizer.Query) (*optimizer.CachedPlan, error) {
	t0 := time.Now()
	cp, err := pc.Load(w.Catalog, q, w.Stats)
	s.loads = append(s.loads, float64(time.Since(t0).Nanoseconds())/1e3)
	return cp, err
}

// input is one distinct query execution of a runtime-mode workload.
type input struct {
	label      string
	root       *plan.Node
	ds         relation.Dataset
	deliveries map[string]dqsexec.Delivery
	cfg        dqsexec.Config
	// ref and lwb are filled after set-up timing (excluded from setup_s).
	ref reference
	lwb time.Duration
}

// serviceQuery is one query of a service batch.
type serviceQuery struct {
	label      string
	base       *workload.Workload
	query      *optimizer.Query
	deliveries map[string]dqsexec.Delivery
	arrive     time.Duration
	// root is the plan the cache served at set-up; ref and lwb belong to it.
	root *plan.Node
	ref  reference
	lwb  time.Duration
}

// batch is one service request: a server.Run over seeded arrivals.
type batch struct {
	label   string
	cfg     server.Config
	queries []serviceQuery
}

// suite is one cycle of a workload's requests plus the shared state they
// run against. Exactly one of inputs and batches is set.
type suite struct {
	pc      *optimizer.PlanCache
	inputs  []*input
	batches []*batch
	// minCycles is the number of whole cycles an end-to-end run completes,
	// so host percentiles have the samples they name.
	minCycles int
}

// requests is the number of requests in one cycle.
func (s *suite) requests() int {
	if s.batches != nil {
		return len(s.batches)
	}
	return len(s.inputs)
}

// queriesPerCycle is the number of queries one cycle executes.
func (s *suite) queriesPerCycle() int {
	if s.batches == nil {
		return len(s.inputs)
	}
	n := 0
	for _, b := range s.batches {
		n += len(b.queries)
	}
	return n
}

// deriveSeed mixes the run seed with a per-input index.
func deriveSeed(seed int64, i int) int64 {
	return int64(mix64(uint64(seed)*0x9e3779b97f4a7c15+uint64(i)) >> 1)
}

// uniform assigns one waiting time to every wrapper of a workload.
func uniform(w *workload.Workload, wait time.Duration) map[string]dqsexec.Delivery {
	d := make(map[string]dqsexec.Delivery, w.Catalog.Len())
	for _, name := range w.Catalog.Names() {
		d[name] = dqsexec.Delivery{MeanWait: wait}
	}
	return d
}

// cardOf returns a catalog relation's cardinality.
func cardOf(w *workload.Workload, rel string) int {
	r, ok := w.Catalog.Lookup(rel)
	if !ok {
		return 0
	}
	return r.Cardinality
}

// buildBulk: the paper's Fig-5 QEP at full scale under the default grant.
// Each query slows one wrapper, A through F, to a total retrieval time in
// the range of Figures 6 and 7; every other wrapper delivers at w_min. The
// engine runs serially: the traced run measures the parallel kernels in a
// phase of their own (exec.parallel_speedup).
func buildBulk(seed int64, st *setupTimer) (*suite, error) {
	w, err := st.workload(func() (*workload.Workload, error) { return workload.Fig5(seed) })
	if err != nil {
		return nil, err
	}
	pc := optimizer.NewPlanCache()
	if _, _, err := pc.Decompositions().Load(w.Root); err != nil {
		return nil, err
	}
	base := dqsexec.DefaultConfig()
	base.Plans = pc.Decompositions()
	s := &suite{pc: pc, minCycles: 2}
	for _, rel := range []string{"A", "B", "C", "D", "E", "F"} {
		card := cardOf(w, rel)
		for _, retrieval := range []float64{1.5, 4.5, 8, 10} {
			wait := time.Duration(retrieval / float64(card) * float64(time.Second))
			wait = max(wait, base.InitialWaitEstimate) // no wrapper beats w_min
			d := uniform(w, base.InitialWaitEstimate)
			d[rel] = dqsexec.Delivery{MeanWait: wait}
			cfg := base
			cfg.Seed = deriveSeed(seed, len(s.inputs))
			s.inputs = append(s.inputs, &input{
				label:      fmt.Sprintf("fig5/slow=%s/retrieval=%gs", rel, retrieval),
				root:       w.Root,
				ds:         w.Dataset,
				deliveries: d,
				cfg:        cfg,
			})
		}
	}
	return s, nil
}

// bursty returns a phased schedule alternating fast (5µs) and slow chunks
// of a card-row stream, in six chunks.
func bursty(card int, slow time.Duration) []source.Phase {
	var phases []source.Phase
	chunk := max(card/6, 1)
	for row, fast := 0, true; row < card; row, fast = row+chunk, !fast {
		wph := 5 * time.Microsecond
		if !fast {
			wph = slow
		}
		phases = append(phases, source.Phase{FromRow: row, W: wph})
	}
	return phases
}

// buildTight: the Fig5Small and SmallStar QEPs under grants from the
// feasible band's floor (1 MB, where DQO must repair the Fig5Small plan) to
// 3.2 MB, on the default memory path, with a bursty wrapper plus an
// initially delayed second wrapper.
func buildTight(seed int64, st *setupTimer) (*suite, error) {
	fig, err := st.workload(func() (*workload.Workload, error) { return workload.Fig5Small(seed) })
	if err != nil {
		return nil, err
	}
	star, err := st.workload(func() (*workload.Workload, error) {
		return workload.Star(deriveSeed(seed, 1), workload.SmallStarSpec())
	})
	if err != nil {
		return nil, err
	}
	pc := optimizer.NewPlanCache()
	base := dqsexec.DefaultConfig()
	base.Workers = 1
	base.Plans = pc.Decompositions()
	s := &suite{pc: pc, minCycles: 10}
	// Fig5Small's QEP peaks near 1.24 MB, so its grants span the repair
	// band; SmallStar never needs 1 MB, so two grants suffice for it. The
	// 3:1 mix keeps the latency median inside one shape's cluster.
	shapes := []struct {
		name           string
		w              *workload.Workload
		burst, delayed string
		grants         []float64 // MB
	}{
		{"fig5small", fig, "C", "D", []float64{1.0, 1.05, 1.1, 1.15, 1.2, 3.2}},
		{"smallstar", star, "FACT", "DIM1", []float64{1.0, 3.2}},
	}
	patterns := []struct {
		slow, initial time.Duration
	}{
		{100 * time.Microsecond, 100 * time.Millisecond},
		{300 * time.Microsecond, 100 * time.Millisecond},
		{100 * time.Microsecond, 300 * time.Millisecond},
		{300 * time.Microsecond, 300 * time.Millisecond},
	}
	for _, sh := range shapes {
		if _, _, err := pc.Decompositions().Load(sh.w.Root); err != nil {
			return nil, err
		}
		for _, g := range sh.grants {
			for _, p := range patterns {
				d := uniform(sh.w, base.InitialWaitEstimate)
				d[sh.burst] = dqsexec.Delivery{Phases: bursty(cardOf(sh.w, sh.burst), p.slow)}
				d[sh.delayed] = dqsexec.Delivery{MeanWait: base.InitialWaitEstimate, InitialDelay: p.initial}
				cfg := base
				cfg.MemoryBytes = int64(g * (1 << 20))
				cfg.Seed = deriveSeed(seed, 100+len(s.inputs))
				s.inputs = append(s.inputs, &input{
					label: fmt.Sprintf("%s/grant=%gMB/burst=%v/delay=%v",
						sh.name, g, p.slow, p.initial),
					root:       sh.w.Root,
					ds:         sh.w.Dataset,
					deliveries: d,
					cfg:        cfg,
				})
			}
		}
	}
	return s, nil
}

// serviceBase is one query shape the service mix draws from.
type serviceBase struct {
	name       string
	w          *workload.Workload
	deliveries map[string]dqsexec.Delivery
	filterRel  string
}

// Service-mix shape: batches per cycle, admission cap, the filter literals
// (as fractions of the filtered relation's rows) and the mean virtual gap
// between arrivals.
const (
	serviceBatches   = 96
	serviceMaxActive = 4
	serviceMeanGap   = 40 * time.Millisecond
)

var serviceFractions = []float64{0.4, 0.6, 0.8, 1.0}

// serviceRandomShapes fixes the structure seeds of the random join shapes:
// their cardinalities and join trees span a wide range of work, so drawing
// them from the run seed would make every seed a different workload size.
var serviceRandomShapes = []int64{101, 202}

// buildService: fused-server batches over Fig5Small, SmallStar and random
// join shapes with varying filter literals, planned through one shared plan
// cache whose decomposition layer the server uses. Every batch holds each
// (shape, literal) pair once, in a seeded order with seeded arrival gaps.
func buildService(seed int64, st *setupTimer) (*suite, error) {
	rng := sim.NewRNG(deriveSeed(seed, 2))
	builders := []struct {
		name  string
		build func() (*workload.Workload, error)
	}{
		{"fig5small", func() (*workload.Workload, error) { return workload.Fig5Small(deriveSeed(seed, 3)) }},
		{"smallstar", func() (*workload.Workload, error) {
			return workload.Star(deriveSeed(seed, 4), workload.SmallStarSpec())
		}},
	}
	for i, shape := range serviceRandomShapes {
		builders = append(builders, struct {
			name  string
			build func() (*workload.Workload, error)
		}{fmt.Sprintf("random%d", i), func() (*workload.Workload, error) {
			return workload.Random(sim.NewRNG(shape), workload.DefaultRandomSpec())
		}})
	}
	exe := dqsexec.DefaultConfig()
	var bases []serviceBase
	for _, bd := range builders {
		w, err := st.workload(bd.build)
		if err != nil {
			return nil, err
		}
		// The largest relation delivers slowly and the second largest is
		// filtered. All queries of a shape share deliveries, so their
		// wrapper streams can be shared.
		names := append([]string(nil), w.Catalog.Names()...)
		sort.SliceStable(names, func(i, j int) bool { return cardOf(w, names[i]) > cardOf(w, names[j]) })
		d := uniform(w, exe.InitialWaitEstimate)
		d[names[0]] = dqsexec.Delivery{MeanWait: 5 * exe.InitialWaitEstimate}
		bases = append(bases, serviceBase{name: bd.name, w: w, deliveries: d, filterRel: names[1]})
	}

	pc := optimizer.NewPlanCache()
	exe.MemoryBytes = 4 << 20
	exe.Governor = true
	exe.SharedStreams = true
	exe.Plans = pc.Decompositions()
	s := &suite{pc: pc, minCycles: 1}
	// The cache solves a shape's join order for the first literal binding
	// it sees, so warm it in a fixed order: otherwise the first batch's
	// seeded order would pick the plans of the whole run.
	type pick struct{ base, lit int }
	var picks []pick
	for bi, sb := range bases {
		for li := range serviceFractions {
			picks = append(picks, pick{bi, li})
			if _, err := st.load(pc, sb.w, filtered(sb, li)); err != nil {
				return nil, err
			}
		}
	}
	for bi := 0; bi < serviceBatches; bi++ {
		cfg := server.Config{
			Exec:      exe,
			MaxActive: serviceMaxActive,
			Mode:      server.Fused,
		}
		cfg.Exec.Seed = deriveSeed(seed, 1000+bi)
		b := &batch{label: fmt.Sprintf("batch%d", bi), cfg: cfg}
		var at time.Duration
		for qi, pi := range rng.Perm(len(picks)) {
			sb := bases[picks[pi].base]
			q := filtered(sb, picks[pi].lit)
			cp, err := st.load(pc, sb.w, q)
			if err != nil {
				return nil, err
			}
			// Gaps uniform in [0, 2*mean): offered load far above what
			// four admission slots drain, so the queue fills.
			at += time.Duration(rng.Float64() * float64(2*serviceMeanGap))
			b.queries = append(b.queries, serviceQuery{
				label:      fmt.Sprintf("q%02d-%s-%g", qi, sb.name, serviceFractions[picks[pi].lit]),
				base:       sb.w,
				query:      q,
				deliveries: sb.deliveries,
				arrive:     at,
				root:       cp.Root,
			})
		}
		s.batches = append(s.batches, b)
	}
	return s, nil
}

// filtered returns the shape's query with its filter literal set to the
// given fraction of the filtered relation's rows.
func filtered(sb serviceBase, lit int) *optimizer.Query {
	q := *sb.w.Query
	less := int64(serviceFractions[lit] * float64(cardOf(sb.w, sb.filterRel)))
	q.Filters = map[string]plan.Pred{
		sb.filterRel: {Col: relation.ColRef{Rel: sb.filterRel, Col: "id"}, Less: less},
	}
	return &q
}
