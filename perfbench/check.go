package main

import (
	"fmt"
	"sort"
	"time"

	"dqs/internal/plan"
	"dqs/internal/reftest"
	"dqs/internal/relation"
)

// fingerprint is an order-independent digest of a multiset of tuples: two
// wrapping sums of independent per-tuple mixes. Equal multisets give equal
// fingerprints whatever order the engine emits them in.
type fingerprint struct {
	a, b uint64
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// add folds the live columns of one tuple into the digest. Column positions
// take part in the tuple hash, so permuted columns do not collide.
func (f *fingerprint) add(t relation.Tuple, live []int) {
	h := uint64(len(live))
	for _, i := range live {
		h = mix64(h ^ (uint64(t[i]) + uint64(i)*0x9e3779b97f4a7c15))
	}
	f.a += mix64(h ^ 0x5851f42d4c957f2d)
	f.b += mix64(h + 0x14057b7ef767814f)
}

// liveColumns returns the positions of the plan's output schema that carry
// data: every join key and scan predicate column. The columnar engine
// projects every other column away at the wrapper and emits zeros there,
// so only live positions take part in the comparison.
func liveColumns(root *plan.Node) []int {
	seen := make(map[int]bool)
	mark := func(ref relation.ColRef) {
		if i := root.Schema.IndexOf(ref); i >= 0 {
			seen[i] = true
		}
	}
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if n == nil {
			return
		}
		switch n.Kind {
		case plan.KindScan:
			if n.Pred != nil {
				mark(n.Pred.Col)
			}
		case plan.KindHashJoin:
			mark(n.BuildKey)
			mark(n.ProbeKey)
			walk(n.Build)
			walk(n.Probe)
		case plan.KindOutput:
			walk(n.Child)
		}
	}
	walk(root)
	live := make([]int, 0, len(seen))
	for i := range seen {
		live = append(live, i)
	}
	sort.Ints(live)
	return live
}

// reference is the expected answer of one (plan, dataset) input.
type reference struct {
	rows int64
	fp   fingerprint
	live []int
}

// evalReference runs the independent reference evaluator over one input.
func evalReference(root *plan.Node, ds relation.Dataset) reference {
	ref := reference{live: liveColumns(root)}
	for _, t := range reftest.Eval(root, ds) {
		ref.rows++
		ref.fp.add(t, ref.live)
	}
	return ref
}

// references memoizes reference answers per plan. Every plan a workload
// builds runs over exactly one dataset, so the plan root identifies the
// (plan, dataset) input.
type references map[*plan.Node]reference

// of returns the reference answer of (root, ds), evaluating it on first use.
func (r references) of(root *plan.Node, ds relation.Dataset) reference {
	ref, ok := r[root]
	if !ok {
		ref = evalReference(root, ds)
		r[root] = ref
	}
	return ref
}

// checkSink digests a query's result stream as the engine produces it.
type checkSink struct {
	live []int
	rows int64
	fp   fingerprint
}

// Emit implements exec.Sink.
func (s *checkSink) Emit(_ time.Duration, t relation.Tuple) {
	s.rows++
	s.fp.add(t, s.live)
}

// verify compares the streamed answer with the reference and the engine's
// own output count.
func (s *checkSink) verify(ref reference, outputRows int64) error {
	switch {
	case s.rows != outputRows:
		return fmt.Errorf("sink saw %d tuples, Result.OutputRows is %d", s.rows, outputRows)
	case s.rows != ref.rows:
		return fmt.Errorf("%d result tuples, reference has %d", s.rows, ref.rows)
	case s.fp != ref.fp:
		return fmt.Errorf("result fingerprint differs from the reference (%d tuples)", s.rows)
	}
	return nil
}
