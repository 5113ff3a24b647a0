package experiment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"dqs/internal/core"
	"dqs/internal/exec"
	"dqs/internal/fault"
	"dqs/internal/relation"
	"dqs/internal/source"
	"dqs/internal/workload"
)

// dataflowDeliveries builds the delivery scenarios of the dataflow grid and
// the strategy goldens: the paper's delay classes of §1.2 — a slow-delivery wrapper and a bursty
// one — which stress the window protocol from both sides (steady back-
// pressure vs. alternating famine and flood).
func dataflowDeliveries(cfg exec.Config, o Options) map[string]func(w *workload.Workload) map[string]exec.Delivery {
	return map[string]func(w *workload.Workload) map[string]exec.Delivery{
		"slow-delivery": func(w *workload.Workload) map[string]exec.Delivery {
			d := uniformDeliveries(w, cfg.InitialWaitEstimate)
			d["A"] = exec.Delivery{MeanWait: 10 * cfg.InitialWaitEstimate}
			return d
		},
		"bursty": func(w *workload.Workload) map[string]exec.Delivery {
			d := uniformDeliveries(w, cfg.InitialWaitEstimate)
			card := o.cardOf("C")
			var phases []source.Phase
			chunk := card / 6
			for row, fast := 0, true; row < card; row, fast = row+chunk, !fast {
				wph := 5 * time.Microsecond
				if !fast {
					wph = 300 * time.Microsecond
				}
				phases = append(phases, source.Phase{FromRow: row, W: wph})
			}
			d["C"] = exec.Delivery{Phases: phases}
			return d
		},
	}
}

// dataflowGridCell is one configuration family of the dataflow grid: a
// config override plus the delivery scenario its runs use.
type dataflowGridCell struct {
	name string
	cfg  exec.Config
	mk   func(w *workload.Workload) map[string]exec.Delivery
}

// dataflowGrid lists the grid pinned by dataflow_grid.golden: both delay
// classes of §1.2 on the default config, the ablation study's 2 MiB memory
// pressure point (strand, mid-batch UnpopN, temp spill, memory repair) on
// both memory paths — the paper's eager disk temps and the governor's
// resident temps — and an injected fault plan covering every failure class
// — transient stall, burst storm, disconnect/reconnect, and a permanent
// death with replica failover.
func dataflowGrid(t *testing.T, o Options) []dataflowGridCell {
	t.Helper()
	base := exec.DefaultConfig()
	classes := dataflowDeliveries(base, o)
	names := make([]string, 0, len(classes))
	for name := range classes {
		names = append(names, name)
	}
	sort.Strings(names)
	var grid []dataflowGridCell
	for _, name := range names {
		grid = append(grid, dataflowGridCell{name: name, cfg: base, mk: classes[name]})
	}
	uniform := func(w *workload.Workload) map[string]exec.Delivery {
		return uniformDeliveries(w, base.InitialWaitEstimate)
	}
	pressure := base
	pressure.MemoryBytes = 2 << 20
	grid = append(grid, dataflowGridCell{name: "mem-pressure", cfg: pressure, mk: uniform})
	governed := pressure
	governed.Governor = true
	grid = append(grid, dataflowGridCell{name: "mem-pressure-governed", cfg: governed, mk: uniform})

	at := func(rel string, frac float64) int { return int(frac * float64(o.cardOf(rel))) }
	spec := fmt.Sprintf("C:stall@%d+%v;C:burst@%d+%dx300us;D:drop@%d+%v;A:kill@%d;A:replica,connect=%v",
		at("C", 0.10), 20*time.Millisecond, at("C", 0.30), at("C", 0.20),
		at("D", 0.50), 8*time.Millisecond, at("A", 0.60), time.Millisecond)
	plan, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	faulted := base
	faulted.Faults = plan
	return append(grid, dataflowGridCell{name: "faults", cfg: faulted, mk: uniform})
}

// resultFields is exec.Result without its String method.
type resultFields exec.Result

// dataflowGridLine runs one strategy × seed of a grid cell at the given
// intra-run worker count and renders the run's full Result (or its error)
// as one golden line. On the legacy memory path it also requires the
// governor to stay idle for the whole run — nothing resident at any emitted
// tuple or at the end, nothing ever spilled — which is what lets the
// engine ask the governor to free memory without checking Config.Governor.
func dataflowGridLine(t *testing.T, o Options, cell dataflowGridCell, strategy string, seed int64, workers int) string {
	t.Helper()
	w, err := o.loadWorkload(seed)
	if err != nil {
		t.Fatal(err)
	}
	c := cell.cfg
	c.Seed = seed
	c.Workers = workers
	st := acquireRunState()
	defer st.release()
	c.Scratch = st.Scratch
	rt, err := exec.NewRuntime(c, w.Root, w.Dataset, cell.mk(w))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Med.Reclaim()
	gov := rt.Med.Gov
	var maxResident int64
	if !c.Governor {
		rt.SetSink(exec.SinkFunc(func(time.Duration, relation.Tuple) {
			maxResident = max(maxResident, gov.ResidentBytes())
		}))
	}
	res, err := core.RunStrategyOn(rt, strategy)
	if !c.Governor {
		if maxResident != 0 || gov.ResidentBytes() != 0 || gov.SpilledPages() != 0 {
			t.Errorf("%s/%s/seed%d: legacy memory path touched the governor: max resident %d bytes, %d resident at end, %d pages spilled",
				cell.name, strategy, seed, maxResident, gov.ResidentBytes(), gov.SpilledPages())
		}
	}
	if err != nil {
		return fmt.Sprintf("%s/%s/seed%d: error: %v\n", cell.name, strategy, seed, err)
	}
	// resultFields drops Result's String method, so every field is spelled
	// out rather than only the one-line summary.
	return fmt.Sprintf("%s/%s/seed%d: %+v\n", cell.name, strategy, seed, resultFields(res))
}

// renderDataflowGrid runs every registered strategy × seeds 1–3 over the
// dataflow grid at the given intra-run worker count and renders each run's
// full Result (or its error) one line per run.
func renderDataflowGrid(t *testing.T, workers int) []byte {
	t.Helper()
	o := Options{Small: true}
	var buf bytes.Buffer
	for _, cell := range dataflowGrid(t, o) {
		for _, strategy := range core.StrategyNames() {
			for _, seed := range []int64{1, 2, 3} {
				buf.WriteString(dataflowGridLine(t, o, cell, strategy, seed, workers))
			}
		}
	}
	return buf.Bytes()
}

// checkDataflowGridRuns runs the named cells of the dataflow grid for the
// given strategies × seeds 1–3 serially and requires every run's line to
// equal the committed golden's line for the same run. The golden was
// recorded on the engine that still carried the per-tuple, row and
// full-replan reference paths, while differentials proved each of them
// equal to the batched, columnar, incremental path, so each golden line is
// also the reference path's Result.
func checkDataflowGridRuns(t *testing.T, cells, strategies []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "dataflow_grid.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if key, _, ok := strings.Cut(line, ": "); ok {
			want[key] = line
		}
	}
	o := Options{Small: true}
	found := 0
	for _, cell := range dataflowGrid(t, o) {
		if !slices.Contains(cells, cell.name) {
			continue
		}
		found++
		for _, strategy := range strategies {
			for _, seed := range []int64{1, 2, 3} {
				key := fmt.Sprintf("%s/%s/seed%d", cell.name, strategy, seed)
				ref, ok := want[key]
				if !ok {
					t.Fatalf("dataflow_grid.golden has no line for %s", key)
				}
				if got := dataflowGridLine(t, o, cell, strategy, seed, 1); got != ref {
					t.Errorf("%s diverged from the recorded reference Result:\nreference: %sgot:       %s", key, ref, got)
				}
			}
		}
	}
	if found != len(cells) {
		t.Fatalf("dataflow grid has %d of the cells %v", found, cells)
	}
}

// TestParallelDataflowGridMatchesGolden pins the wrapper→kernel dataflow
// and the DQS replanning loop: the full Result of every registered strategy
// across seeds, both delay classes, memory pressure and injected faults
// must match the committed golden exactly — virtual nanosecond for virtual
// nanosecond — serially and on a 4-worker pool alike.
func TestParallelDataflowGridMatchesGolden(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			compareGolden(t, "dataflow_grid.golden", renderDataflowGrid(t, workers))
		})
	}
}

// dataflowClasses names the grid cells of the two delay classes of §1.2.
var dataflowClasses = []string{"bursty", "slow-delivery"}

// TestBatchedDataflowMatchesPerTuple pins the batched PopN/Credit dataflow
// to the per-tuple reference: for SEQ, MA and DSE, across seeds and both
// delay classes, each run's Result must equal — field for field, virtual
// nanosecond for virtual nanosecond — the one recorded for it.
func TestBatchedDataflowMatchesPerTuple(t *testing.T) {
	checkDataflowGridRuns(t, dataflowClasses, []string{"SEQ", "MA", "DSE"})
}

// TestColumnarDataflowMatchesRow pins the columnar wrapper→kernel dataflow
// (wrapper-side filter and projection, pass bits in the queue) to the row
// reference: filtered tuples still occupy window slots, feed the rate
// estimators and pay their receive/move charges at the same virtual
// instants, so every scheduling decision, clock charge and RNG draw — and
// hence the recorded Result — is unchanged.
func TestColumnarDataflowMatchesRow(t *testing.T) {
	checkDataflowGridRuns(t, dataflowClasses, []string{"SEQ", "MA", "SCR", "DSE"})
}

// TestColumnarDataflowMatchesRowUnderMemoryPressure repeats the check at
// the ablation study's 2 MiB pressure point, forcing the overflow and
// materialization machinery (strand, UnpopN mid-batch, temp spill) through
// the columnar path.
func TestColumnarDataflowMatchesRowUnderMemoryPressure(t *testing.T) {
	checkDataflowGridRuns(t, []string{"mem-pressure"}, []string{"SEQ", "MA", "SCR", "DSE"})
}

// TestColumnarDataflowMatchesRowUnderFaults repeats the check under an
// injected fault plan covering every failure class — transient stall,
// burst storm, disconnect/reconnect, and a permanent death with replica
// failover (the replica inherits the primary's columnar pushdown).
func TestColumnarDataflowMatchesRowUnderFaults(t *testing.T) {
	checkDataflowGridRuns(t, []string{"faults"}, []string{"SEQ", "MA", "SCR", "DSE"})
}

// TestIncrementalReplanMatchesFull pins the DQS planning cache to the
// always-full evaluation reference: for every registered policy, across
// seeds and both delay classes, each run's Result must equal the one
// recorded for it.
func TestIncrementalReplanMatchesFull(t *testing.T) {
	checkDataflowGridRuns(t, dataflowClasses, core.StrategyNames())
}
