package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"dqs/internal/core"
	dqsexec "dqs/internal/exec"
)

// timedStrategy is the registered name of the observation-only wrapper
// around DSE that the traced run executes.
const timedStrategy = "DSE.timed"

func init() {
	if err := core.RegisterPolicy(timedStrategy, newTimedPolicy); err != nil {
		panic(err)
	}
}

// span is one timed interval of the traced run. Spans of one request share
// Query; Parent links a span to the call that caused it (0 for roots).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Query  string `json:"query"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// epoch anchors span timestamps.
var epoch = time.Now()

// spanLog is the run's in-memory span buffer.
type spanLog struct {
	spans  []span
	lastID int64
}

// begin opens a span and returns it with its start stamped; end closes it.
func (l *spanLog) begin(name, query string, parent int64) span {
	l.lastID++
	return span{ID: l.lastID, Parent: parent, Name: name, Query: query,
		Start: int64(time.Since(epoch))}
}

func (l *spanLog) end(s span) time.Duration {
	return l.endAt(s, time.Now())
}

// endAt closes a span at an instant already taken.
func (l *spanLog) endAt(s span, at time.Time) time.Duration {
	s.End = int64(at.Sub(epoch))
	l.spans = append(l.spans, s)
	return time.Duration(s.End - s.Start)
}

// collector accumulates what the timed policy observes during one engine
// run: planning calls, their host time, and interruption events by kind.
type collector struct {
	log      *spanLog
	parent   int64
	query    string
	calls    int
	planTime time.Duration
	events   map[core.EventKind]int
}

func newCollector(log *spanLog, parent int64, query string) *collector {
	return &collector{log: log, parent: parent, query: query, events: make(map[core.EventKind]int)}
}

// timed records one policy call as a span under the collector's parent.
func (c *collector) timed(name string, fn func()) {
	s := c.log.begin(name, c.query, c.parent)
	fn()
	c.planTime += c.log.end(s)
	c.calls++
}

// activeCollector receives the observations of the next engine the timed
// policy is built for. The benchmark runs one request at a time and sets it
// around each engine run.
var activeCollector *collector

// wrappedPolicy is the capability set the engine and the fused server use
// on DSE; the wrapper forwards every one of them.
type wrappedPolicy interface {
	core.Policy
	core.Attacher
	core.Canceller
	core.FavorSetter
	core.PendingDescriber
}

// timedPolicy wraps DSE and times its Plan and OnEvent calls. It reports
// the inner policy's name, so Results are identical to untimed runs.
type timedPolicy struct {
	inner wrappedPolicy
	col   *collector
}

func newTimedPolicy(st *core.State) (core.Policy, error) {
	col := activeCollector
	if col == nil {
		return nil, fmt.Errorf("perfbench: no collector bound for the timed policy")
	}
	pol, err := core.NewPolicy(st, "DSE")
	if err != nil {
		return nil, err
	}
	inner, ok := pol.(wrappedPolicy)
	if !ok {
		return nil, fmt.Errorf("perfbench: DSE policy lacks a capability the wrapper forwards")
	}
	return &timedPolicy{inner: inner, col: col}, nil
}

func (p *timedPolicy) Name() string                   { return p.inner.Name() }
func (p *timedPolicy) Done(st *core.State) bool       { return p.inner.Done(st) }
func (p *timedPolicy) PendingSummary() string         { return p.inner.PendingSummary() }
func (p *timedPolicy) SetFavored(rt *dqsexec.Runtime) { p.inner.SetFavored(rt) }

func (p *timedPolicy) Attach(st *core.State, rt *dqsexec.Runtime) error {
	return p.inner.Attach(st, rt)
}

func (p *timedPolicy) Cancel(st *core.State, rt *dqsexec.Runtime) error {
	return p.inner.Cancel(st, rt)
}

func (p *timedPolicy) Plan(st *core.State) (sp core.SchedulingPlan, err error) {
	p.col.timed("core.Plan", func() { sp, err = p.inner.Plan(st) })
	return sp, err
}

func (p *timedPolicy) OnEvent(st *core.State, ev core.Event) (err error) {
	p.col.events[ev.Kind]++
	p.col.timed("core.OnEvent", func() { err = p.inner.OnEvent(st, ev) })
	return err
}

// writeSpans writes the traced run's spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuModules are the packages the profile fold reports, in report order.
// A sample lands on the innermost dqs/internal frame of its stack; stacks
// without one are charged to "harness" when the benchmark's own code is on
// them and to "runtime" otherwise (GC workers, the scheduler).
var cpuModules = []string{
	"source", "comm", "operator", "exec", "mem", "core", "server",
	"relation", "sim", "plan", "optimizer", "harness", "runtime",
}

// foldProfile folds a CPU profile into per-module sample counts using the
// toolchain's pprof in its text-only -traces mode.
func foldProfile(goBin, profile string) (map[string]int, int, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command(goBin, "tool", "pprof", "-traces", profile)
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(errb.String()))
	}
	counts, total := foldTraces(out.String())
	return counts, total, nil
}

// pprofSeparator starts every stack of `pprof -traces` output.
const pprofSeparator = "-----------+"

// foldTraces parses `pprof -traces` output: after a header, stacks separated
// by dashed lines, each starting with the sample's CPU time and its leaf
// frame, then one caller frame per line. A stack counts as its CPU time over
// the 10 ms sampling period (the default 100 Hz rate).
func foldTraces(text string) (map[string]int, int) {
	counts := make(map[string]int)
	total := 0
	blocks := strings.Split(text, pprofSeparator)
	for _, blk := range blocks[1:] {
		var frames []string
		n := 0
		for _, line := range strings.Split(blk, "\n")[1:] {
			f := strings.Fields(line)
			switch {
			case len(f) == 0:
			case len(frames) == 0 && len(f) >= 2:
				d, err := time.ParseDuration(f[0])
				if err != nil {
					continue
				}
				n = max(int(d/(10*time.Millisecond)), 1)
				frames = append(frames, f[1])
			case len(frames) > 0:
				frames = append(frames, f[0])
			}
		}
		if len(frames) > 0 {
			counts[moduleOf(frames)] += n
			total += n
		}
	}
	return counts, total
}

// moduleOf charges a stack (leaf first) to its innermost dqs/internal
// package.
func moduleOf(frames []string) string {
	harness := false
	for _, fn := range frames {
		if rest, ok := strings.CutPrefix(fn, "dqs/internal/"); ok {
			mod, _, _ := strings.Cut(rest, ".")
			return mod
		}
		if strings.HasPrefix(fn, "main.") {
			harness = true
		}
	}
	if harness {
		return "harness"
	}
	return "runtime"
}
