package exec

import (
	"time"

	"dqs/internal/comm"
	"dqs/internal/operator"
	"dqs/internal/relation"
)

// Pool size caps. A run pool holds at most this many recycled objects per
// kind; anything beyond is dropped for the GC, bounding retained memory no
// matter how many configurations a sweep cycles through.
const (
	maxPooledQueues = 64
	maxPooledTables = 64
	maxPooledSlices = 256
)

// Scratch recycles the allocation-heavy execution state of one simulator
// run — wrapper queues, hash tables, tuple arenas, temp-relation storage and
// probe-cascade scratch buffers — across runs. The experiment harness checks
// one Scratch out per cell from a sync.Pool, so repeated cells reuse grown
// storage instead of re-allocating it; pooling recycles only capacity, never
// contents (every object is Reset on checkout), so results are bit-identical
// with or without it.
//
// A Scratch is NOT safe for concurrent use: it must serve one run at a time.
// All methods are nil-receiver safe and fall back to plain allocation, so
// call sites need no pooling branch.
type Scratch struct {
	queues  []*comm.Queue
	tables  []*operator.PartitionedHashTable
	ints    [][]int64
	tuples  [][]relation.Tuple
	batches []*relation.Batch
	bools   [][]bool
	durs    [][]time.Duration

	// buildRows remembers the exact cardinality of each completed hash-table
	// build, keyed by plan join-node ID, as the pre-size hint for the next
	// run. Plans sharing a pool may collide on IDs; a stale hint only costs
	// allocator behaviour (an over- or under-sized reservation), never
	// results — simulation accounting ignores capacity.
	buildRows map[int]int64
}

// NewScratch returns an empty pool.
func NewScratch() *Scratch { return &Scratch{} }

// Queue returns a reset queue of the given capacity and column width,
// recycled when the pool holds one of matching capacity (window sizes are sweep parameters, so only
// an exact match preserves the protocol).
func (s *Scratch) Queue(name string, capacity, width int) *comm.Queue {
	if s != nil {
		for i := len(s.queues) - 1; i >= 0; i-- {
			if q := s.queues[i]; q.Capacity() == capacity {
				last := len(s.queues) - 1
				s.queues[i] = s.queues[last]
				s.queues[last] = nil
				s.queues = s.queues[:last]
				q.Reset(name, width)
				return q
			}
		}
	}
	return comm.NewQueue(name, capacity, width)
}

// PutQueue returns a queue to the pool once its run is over.
func (s *Scratch) PutQueue(q *comm.Queue) {
	if s == nil || q == nil || len(s.queues) >= maxPooledQueues {
		return
	}
	s.queues = append(s.queues, q)
}

// Table returns an empty hash table keyed on keyIdx with the given
// power-of-two partition count, recycled when available.
func (s *Scratch) Table(keyIdx, parts int) *operator.PartitionedHashTable {
	if s != nil && len(s.tables) > 0 {
		last := len(s.tables) - 1
		h := s.tables[last]
		s.tables[last] = nil
		s.tables = s.tables[:last]
		h.Recycle(keyIdx, parts)
		return h
	}
	return operator.NewPartitioned(keyIdx, parts)
}

// PutTable returns a hash table to the pool once its run is over.
func (s *Scratch) PutTable(h *operator.PartitionedHashTable) {
	if s == nil || h == nil || len(s.tables) >= maxPooledTables {
		return
	}
	s.tables = append(s.tables, h)
}

// GetInts returns a recycled flat []int64 arena (length zero), or nil when
// the pool is empty. Implements mem.IntRecycler.
func (s *Scratch) GetInts() []int64 {
	if s == nil || len(s.ints) == 0 {
		return nil
	}
	last := len(s.ints) - 1
	b := s.ints[last]
	s.ints[last] = nil
	s.ints = s.ints[:last]
	return b
}

// PutInts reclaims a flat arena's storage. Implements mem.IntRecycler.
func (s *Scratch) PutInts(b []int64) {
	if s == nil || cap(b) == 0 || len(s.ints) >= maxPooledSlices {
		return
	}
	s.ints = append(s.ints, b[:0])
}

// GetIntsCap returns the best-fitting pooled arena of at least the given
// capacity — the smallest one that is big enough — or nil when none
// qualifies. Implements mem.CapIntRecycler for pre-sized temp arenas.
func (s *Scratch) GetIntsCap(capacity int) []int64 {
	if s == nil {
		return nil
	}
	best := -1
	for i, b := range s.ints {
		if cap(b) < capacity {
			continue
		}
		if best < 0 || cap(b) < cap(s.ints[best]) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	b := s.ints[best]
	last := len(s.ints) - 1
	s.ints[best] = s.ints[last]
	s.ints[last] = nil
	s.ints = s.ints[:last]
	return b
}

// GetBatch returns a recycled columnar batch reset to the given width (the
// NextBatch half of the batch recycle contract).
func (s *Scratch) GetBatch(width int) *relation.Batch {
	if s != nil && len(s.batches) > 0 {
		last := len(s.batches) - 1
		b := s.batches[last]
		s.batches[last] = nil
		s.batches = s.batches[:last]
		b.Reset(width)
		return b
	}
	return relation.NewBatch(width)
}

// PutBatch returns a batch to the pool (the Release half of the contract);
// its grown column capacity is kept for the next run.
func (s *Scratch) PutBatch(b *relation.Batch) {
	if s == nil || b == nil || len(s.batches) >= maxPooledSlices {
		return
	}
	s.batches = append(s.batches, b)
}

// GetBools returns a recycled pass-mask scratch slice (length zero), or nil
// when the pool is empty.
func (s *Scratch) GetBools() []bool {
	if s == nil || len(s.bools) == 0 {
		return nil
	}
	last := len(s.bools) - 1
	b := s.bools[last]
	s.bools[last] = nil
	s.bools = s.bools[:last]
	return b
}

// PutBools reclaims a pass-mask scratch slice.
func (s *Scratch) PutBools(b []bool) {
	if s == nil || cap(b) == 0 || len(s.bools) >= maxPooledSlices {
		return
	}
	s.bools = append(s.bools, b[:0])
}

// GetDurs returns a recycled per-tuple duration scratch slice (length
// zero), or nil when the pool is empty.
func (s *Scratch) GetDurs() []time.Duration {
	if s == nil || len(s.durs) == 0 {
		return nil
	}
	last := len(s.durs) - 1
	b := s.durs[last]
	s.durs[last] = nil
	s.durs = s.durs[:last]
	return b
}

// PutDurs reclaims a per-tuple duration scratch slice.
func (s *Scratch) PutDurs(b []time.Duration) {
	if s == nil || cap(b) == 0 || len(s.durs) >= maxPooledSlices {
		return
	}
	s.durs = append(s.durs, b[:0])
}

// RecordBuildRows stores the exact cardinality of a completed build as the
// pre-size hint for the next run touching the same join node.
func (s *Scratch) RecordBuildRows(joinID int, rows int64) {
	if s == nil {
		return
	}
	if s.buildRows == nil {
		s.buildRows = make(map[int]int64)
	}
	s.buildRows[joinID] = rows
}

// BuildRowsHint returns the recorded cardinality of a join's build, if a
// prior run completed it on this pool.
func (s *Scratch) BuildRowsHint(joinID int) (int64, bool) {
	if s == nil || s.buildRows == nil {
		return 0, false
	}
	rows, ok := s.buildRows[joinID]
	return rows, ok
}

// GetTuples returns a recycled tuple-header scratch slice (length zero), or
// nil when the pool is empty.
func (s *Scratch) GetTuples() []relation.Tuple {
	if s == nil || len(s.tuples) == 0 {
		return nil
	}
	last := len(s.tuples) - 1
	b := s.tuples[last]
	s.tuples[last] = nil
	s.tuples = s.tuples[:last]
	return b
}

// PutTuples reclaims a tuple-header scratch slice. The headers are cleared
// so pooled slices don't pin tuple storage from finished runs.
func (s *Scratch) PutTuples(b []relation.Tuple) {
	if s == nil || cap(b) == 0 || len(s.tuples) >= maxPooledSlices {
		return
	}
	b = b[:cap(b)]
	for i := range b {
		b[i] = nil
	}
	s.tuples = append(s.tuples, b[:0])
}
