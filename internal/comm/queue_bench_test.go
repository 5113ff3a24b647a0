package comm

import (
	"testing"
	"time"

	"dqs/internal/relation"
)

// The ring benchmarks pin the two hot-path optimizations of this package:
// branch-based wraparound instead of % (the capacity is config-driven and
// not a power of two, so the compiler cannot strength-reduce the modulo)
// and the O(1)-amortized arrived-count cache behind Available.
//
// Pre-optimization reference on the baseline machine (2.1 GHz Xeon, same
// benchmark against the rescanning Available): BenchmarkQueueAvailable
// 1455 ns/op at depth 384 (now ~3.1 — the rescan scaled linearly with
// depth, the cache is O(1)).

// BenchmarkQueueAvailable queries a deep queue the way the engine does:
// repeatedly, with a slowly advancing clock. The arrived-count cache makes
// each call O(1) amortized instead of a rescan of the arrived prefix.
func BenchmarkQueueAvailable(b *testing.B) {
	const depth = 384
	q := NewQueue("w", depth, 1)
	for i := 0; i < depth; i++ {
		push(q, int64(i), time.Duration(i)*time.Microsecond)
	}
	now := depth * time.Microsecond
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += time.Nanosecond
		if q.Available(now) != depth {
			b.Fatal("wrong availability")
		}
	}
}

// BenchmarkQueueObserveDrain measures the estimator feed plus a full
// pop-credit-refill cycle at engine batch granularity.
func BenchmarkQueueObserveDrain(b *testing.B) {
	const depth, chunk = 96, 8
	q := NewQueue("w", depth, 2)
	vals := [][]int64{make([]int64, chunk), make([]int64, chunk)}
	pass := make([]bool, chunk)
	arrivals := make([]time.Duration, chunk)
	at := time.Duration(0)
	refill := func() {
		for j := range arrivals {
			at += time.Microsecond
			arrivals[j] = at
		}
		q.PushColsN(vals, pass, arrivals)
	}
	for i := 0; i < depth/chunk; i++ {
		refill()
	}
	batch := relation.NewBatch(2)
	popPass := make([]bool, chunk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.ObserveArrivals(at)
		batch.Reset(2)
		q.PopColsN(at, batch, popPass)
		for j := 0; j < chunk; j++ {
			q.Credit(at)
		}
		refill()
	}
}

// BenchmarkColumnarScan cycles a full window of 2-column batches through the
// queue — PushColsN ring copies in, PopColsN ring copies out into a
// recycled batch, one Credit per slot — the wrapper→mediator hot path.
func BenchmarkColumnarScan(b *testing.B) {
	const depth = 96
	q := NewQueue("w", depth, 2)
	vals := make([][]int64, 2)
	arrivals := make([]time.Duration, depth)
	pass := make([]bool, depth)
	for c := range vals {
		vals[c] = make([]int64, depth)
		for i := range vals[c] {
			vals[c][i] = int64(i)
		}
	}
	for i := range pass {
		pass[i] = i%3 != 0
	}
	batch := relation.NewBatch(2)
	popPass := make([]bool, depth)
	at := time.Duration(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range arrivals {
			at += time.Microsecond
			arrivals[j] = at
		}
		q.PushColsN(vals, pass, arrivals)
		batch.Reset(2)
		if q.PopColsN(at, batch, popPass) != depth {
			b.Fatal("short pop")
		}
		for j := 0; j < depth; j++ {
			q.Credit(at)
		}
	}
}
