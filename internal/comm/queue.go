// Package comm implements the mediator side of the wrapper communication
// protocol: one bounded tuple queue per wrapper (the "window protocol" of
// paper §2.1, after DB2/MVS), plus the communication manager that estimates
// per-wrapper delivery rates and signals significant changes to the engine.
package comm

import (
	"fmt"
	"math"
	"time"

	"dqs/internal/relation"
)

// Producer is the upstream side of a queue: the simulated wrapper. When the
// consumer pops a tuple out of a full queue, the freed slot un-suspends the
// wrapper, which may then send more tuples; Resume gives it the opportunity,
// telling it the virtual time of the pop and how far production may be
// simulated.
type Producer interface {
	Resume(now time.Duration)
}

// Queue is the bounded arrival buffer of one wrapper. Tuples carry their
// virtual arrival timestamps; the consumer only sees tuples whose arrival is
// not in its future. When the queue is full the wrapper is suspended
// (window protocol) until the consumer pops.
//
// A ring slot stores flat per-column values (cols[c][slot], only the
// projected live columns that cross the wire) plus a pushdown pass bit, in
// arrays parallel to the arrivals, so bulk transfers (PushColsN, PopColsN,
// ObserveArrivals) move contiguous segments with copy. A slot whose pass bit
// is false was filtered by the wrapper-side predicate: its window slot,
// arrival timestamp and estimator feed are all real — scheduling and flow
// control are defined on pre-filter arrivals — but its values never crossed
// the wire and its ring storage is never read.
//
// Consumption is split into two halves so that batching cannot perturb the
// simulation. PopColsN removes arrived slots from the ring wholesale but
// leaves their window slots reserved ("debt"): the producer still sees a
// full window and stays suspended, exactly as if the tuples were still
// buffered. Credit then releases one reserved slot at the virtual instant
// the consumer actually gets to that tuple, resuming the producer with that
// instant as its send floor. Refill arrival times, and therefore every
// downstream rate estimate and scheduling decision, do not depend on how
// many slots one pop moved.
type Queue struct {
	name     string
	capacity int
	arrivals []time.Duration // ring buffer, parallel to cols and pass
	cols     [][]int64
	pass     []bool
	head     int
	size     int

	// debt counts slots handed out by PopColsN whose window slots have not
	// been released by Credit yet. Their ring slots — the debt positions
	// immediately before head — keep their contents so UnpopN can restore
	// the tail of a batch the consumer could not process.
	debt int

	// arrived caches the number of leading buffered tuples whose arrival is
	// <= arrivedAt, so the hot Available path is O(1) amortized: the engine
	// calls it with a monotonically advancing clock, and the cache only has
	// to absorb each arrival once. The exact invariant — every buffered
	// tuple beyond index arrived has arrival > arrivedAt — is maintained by
	// PushColsN, PopColsN, UnpopN and Available together.
	arrived   int
	arrivedAt time.Duration

	producer Producer
	est      *RateEstimator
	observed int // ring-relative count of arrivals already fed to est

	// obsDebt counts debt tuples whose arrivals were fed to est before
	// PopColsN removed them. Fed tuples are always the oldest prefix of the
	// debt region (PopColsN pops the buffer's fed prefix and Credit retires
	// oldest-first), so a single counter is exact: Credit consumes it as
	// fed slots retire, and UnpopN uses it to restore `observed` so a
	// returned tuple is never re-fed to the estimator.
	obsDebt int

	totalPopped int64
}

// NewQueue creates a queue with room for capacity tuples of width live
// columns (width 0 is legal when every referenced column is projected
// away).
func NewQueue(name string, capacity, width int) *Queue {
	if capacity <= 0 {
		panic(fmt.Sprintf("comm: queue %q: capacity must be positive, got %d", name, capacity))
	}
	q := &Queue{
		name:     name,
		capacity: capacity,
		arrivals: make([]time.Duration, capacity),
		pass:     make([]bool, capacity),
		est:      NewRateEstimator(defaultEWMAAlpha),
	}
	q.setWidth(width)
	return q
}

// setWidth sizes the ring to width live columns, reusing the column storage
// of any earlier, wider incarnation.
func (q *Queue) setWidth(width int) {
	if width < 0 {
		panic(fmt.Sprintf("comm: queue %q: negative width %d", q.name, width))
	}
	if width > cap(q.cols) {
		q.cols = append(q.cols[:cap(q.cols)], make([][]int64, width-cap(q.cols))...)
	}
	q.cols = q.cols[:width]
	for c, col := range q.cols {
		if col == nil {
			q.cols[c] = make([]int64, q.capacity)
		}
	}
}

// Name returns the wrapper name this queue buffers for.
func (q *Queue) Name() string { return q.name }

// SetProducer attaches the wrapper that fills this queue.
func (q *Queue) SetProducer(p Producer) { q.producer = p }

// ClearProducer detaches the queue's producer: credits stop resuming it. A
// multi-query service uses this when cancelling a query — the wrapper is
// detached so late credits on the dead query's queues pump nothing.
func (q *Queue) ClearProducer() { q.producer = nil }

// Capacity returns the queue size in tuples.
func (q *Queue) Capacity() int { return q.capacity }

// Len returns the number of buffered tuples (including ones whose arrival
// time is still in the consumer's future).
func (q *Queue) Len() int { return q.size }

// Debt returns the number of popped tuples whose window slots are still
// reserved (popped but not yet Credit'ed).
func (q *Queue) Debt() int { return q.debt }

// Full reports whether the window is exhausted. Debt slots count against
// the window: a tuple that has been bulk-popped but not yet credited still
// occupies its slot from the producer's point of view.
func (q *Queue) Full() bool { return q.size+q.debt == q.capacity }

// Width returns the number of live columns a slot carries.
func (q *Queue) Width() int { return len(q.cols) }

// Reset returns the queue to its freshly constructed state under a new
// wrapper name and column width, keeping the ring storage, so pooled runs
// reuse it without reallocating.
func (q *Queue) Reset(name string, width int) {
	q.name = name
	q.setWidth(width)
	q.head = 0
	q.size = 0
	q.debt = 0
	q.arrived = 0
	q.arrivedAt = 0
	q.producer = nil
	q.observed = 0
	q.obsDebt = 0
	q.totalPopped = 0
	q.est.Reset()
}

// idx maps a head-relative offset to a physical ring index. The capacity
// is not a power of two, so the ring index wraps with a branch instead of a
// modulo: head and i are both < capacity, bounding head+i below 2*capacity.
func (q *Queue) idx(i int) int {
	idx := q.head + i
	if idx >= q.capacity {
		idx -= q.capacity
	}
	return idx
}

// PushColsN appends a run of slots with monotonically non-decreasing
// arrival times. Their values arrive as flat per-column segments (vals[c][i]
// is column c of slot i) plus a pushdown pass mask. Filtered slots (pass[i]
// false) occupy a real window slot with a real arrival — flow control and
// rate estimation are defined on pre-filter arrivals — but their positions
// in vals are unspecified and are never read. It panics if the run overflows
// the window or arrivals go backwards: both indicate a wrapper simulation
// bug.
func (q *Queue) PushColsN(vals [][]int64, pass []bool, arrivals []time.Duration) {
	n := len(arrivals)
	if len(pass) != n {
		panic(fmt.Sprintf("comm: queue %q: PushColsN length mismatch: %d pass bits, %d arrivals", q.name, len(pass), n))
	}
	if len(vals) != len(q.cols) {
		panic(fmt.Sprintf("comm: queue %q: PushColsN width mismatch: %d columns, ring has %d", q.name, len(vals), len(q.cols)))
	}
	for c, col := range vals {
		if len(col) != n {
			panic(fmt.Sprintf("comm: queue %q: PushColsN column %d has %d values, want %d", q.name, c, len(col), n))
		}
	}
	if n == 0 {
		return
	}
	start := q.pushPrep(arrivals)
	first := n
	if start+first > q.capacity {
		first = q.capacity - start
	}
	for c, col := range vals {
		copy(q.cols[c][start:], col[:first])
	}
	copy(q.pass[start:], pass[:first])
	copy(q.arrivals[start:], arrivals[:first])
	if first < n {
		for c, col := range vals {
			copy(q.cols[c], col[first:])
		}
		copy(q.pass, pass[first:])
		copy(q.arrivals, arrivals[first:])
	}
	q.pushCommit(arrivals)
}

// pushPrep validates window room and arrival monotonicity for a bulk push of
// len(arrivals) slots and returns the physical ring index the run starts at.
func (q *Queue) pushPrep(arrivals []time.Duration) int {
	if q.size+q.debt+len(arrivals) > q.capacity {
		panic(fmt.Sprintf("comm: queue %q: push on full queue", q.name))
	}
	last := arrivals[0]
	if q.size > 0 {
		last = q.arrivals[q.idx(q.size-1)]
	}
	for _, at := range arrivals {
		if at < last {
			panic(fmt.Sprintf("comm: queue %q: arrival went backwards: %v < %v", q.name, at, last))
		}
		last = at
	}
	return q.idx(q.size)
}

// pushCommit advances the arrived-prefix cache over the appended run and
// publishes the new size. When every older tuple had already arrived by
// arrivedAt, the run's leading arrivals that have too are counted at once —
// otherwise a later Available(now < arrivedAt) would miss them.
func (q *Queue) pushCommit(arrivals []time.Duration) {
	if q.arrived == q.size {
		for _, at := range arrivals {
			if at > q.arrivedAt {
				break
			}
			q.arrived++
		}
	}
	q.size += len(arrivals)
}

// Available returns how many buffered tuples have arrived by time now. For
// the engine's monotonically advancing clock it is O(1) amortized: the
// cached arrived count only moves forward as new arrivals cross now. A
// query about an instant before the cache's high-water mark binary-searches
// the arrived prefix (arrivals are monotonic), so it stays exact without
// disturbing the cache.
func (q *Queue) Available(now time.Duration) int {
	if now < q.arrivedAt {
		lo, hi := 0, q.arrived
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if q.arrivals[q.idx(mid)] <= now {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	q.arrivedAt = now
	for q.arrived < q.size && q.arrivals[q.idx(q.arrived)] <= now {
		q.arrived++
	}
	return q.arrived
}

// NextArrival returns the arrival time of the oldest buffered tuple, or
// false if the queue is empty. Because producers pump eagerly until the
// window protocol suspends them, an empty queue means the producer has
// nothing more to give right now: either it is exhausted, or — under fault
// injection — it is dead. The resilience layer relies on this contract to
// tell silence (empty queue, dead source) apart from an in-progress
// disconnect, whose outage-shifted arrivals are already buffered with
// future timestamps.
func (q *Queue) NextArrival() (time.Duration, bool) {
	if q.size == 0 {
		return 0, false
	}
	return q.arrivals[q.head], true
}

// PopColsN bulk-moves up to len(pass) arrived slots into dst (which must be
// Reset to this queue's width) and the per-slot pass mask into pass,
// returning how many slots it moved. The freed slots stay reserved as debt —
// the producer is NOT resumed — until the consumer calls Credit once per
// slot at the virtual instant it processes it. Filtered slots are
// transferred too — the consumer owes each one its credit, just like a
// passing tuple — but their batch positions hold unspecified values masked
// by pass.
func (q *Queue) PopColsN(now time.Duration, dst *relation.Batch, pass []bool) int {
	if dst.Width() != len(q.cols) {
		panic(fmt.Sprintf("comm: queue %q: PopColsN into width-%d batch, ring has %d columns", q.name, dst.Width(), len(q.cols)))
	}
	n := q.Available(now)
	if n > len(pass) {
		n = len(pass)
	}
	if n == 0 {
		return 0
	}
	first := n
	if q.head+first > q.capacity {
		first = q.capacity - q.head
	}
	views := dst.Extend(n)
	for c, v := range views {
		copy(v, q.cols[c][q.head:q.head+first])
	}
	copy(pass, q.pass[q.head:q.head+first])
	if first < n {
		for c, v := range views {
			copy(v[first:], q.cols[c][:n-first])
		}
		copy(pass[first:], q.pass[:n-first])
	}
	q.popCommit(n)
	return n
}

// popCommit retires n popped slots into debt, with the estimator fed-prefix
// bookkeeping.
func (q *Queue) popCommit(n int) {
	take := q.observed // popped tuples already fed to the estimator
	if take > n {
		take = n
	}
	// The obsDebt counter relies on fed debt tuples being the oldest
	// prefix of the debt region. Appending fed tuples behind unfed debt
	// (only possible if ObserveArrivals ran while an unfed tail from an
	// earlier pop was still in debt) would break that, so fail loudly
	// instead of silently mis-restoring `observed` later.
	if take > 0 && q.obsDebt < q.debt {
		panic(fmt.Sprintf("comm: queue %q: bulk pop of observed tuples behind unobserved debt", q.name))
	}
	q.head = q.idx(n)
	q.size -= n
	q.debt += n
	q.arrived -= n // Available guarantees arrived >= n
	q.observed -= take
	q.obsDebt += take
	q.totalPopped += int64(n)
}

// Credit releases the oldest debt slot at virtual time now and resumes the
// producer: the producer sees the slot free itself at the instant the
// consumer reached the tuple, so refill send floors — and every arrival
// time derived from them — do not depend on how many slots one pop moved.
func (q *Queue) Credit(now time.Duration) {
	if q.debt == 0 {
		panic(fmt.Sprintf("comm: queue %q: credit without debt", q.name))
	}
	q.debt--
	// The oldest debt slot is a fed one whenever any fed debt remains
	// (fed tuples are the oldest prefix of the debt region).
	if q.obsDebt > 0 {
		q.obsDebt--
	}
	if q.producer != nil {
		q.producer.Resume(now)
	}
}

// UnpopN returns the newest n uncredited tuples to the buffer, undoing the
// tail of a popped batch the consumer could not process (e.g. a memory
// overflow mid-batch). Their ring slots were left intact by PopColsN, so
// this is pure index arithmetic.
func (q *Queue) UnpopN(n int) {
	if n == 0 {
		return
	}
	if n > q.debt {
		panic(fmt.Sprintf("comm: queue %q: unpop %d exceeds debt %d", q.name, n, q.debt))
	}
	// Fed tuples are the oldest prefix of the debt region, so of the
	// newest n being restored, the fed ones are those reaching back past
	// the unfed tail: n - (debt - obsDebt), clamped at zero. Restoring
	// them into `observed` keeps the next ObserveArrivals from re-feeding
	// arrivals the estimator has already absorbed.
	restoredFed := n - (q.debt - q.obsDebt)
	if restoredFed < 0 {
		restoredFed = 0
	}
	q.observed += restoredFed
	q.obsDebt -= restoredFed
	q.head -= n
	if q.head < 0 {
		q.head += q.capacity
	}
	q.size += n
	q.debt -= n
	q.arrived += n // popped tuples had arrived; restoring keeps the prefix exact
	q.totalPopped -= int64(n)
}

// ObserveArrivals feeds the rate estimator every buffered arrival that has
// happened by now and was not fed before, returning how many were fed. The
// communication manager calls this as the engine's clock advances, so
// estimation is causal: the CM never peeks at future arrivals. The unseen
// arrived prefix is handed to the estimator as whole ring segments.
//
// The CM calls this between scheduling rounds, when bulk-pop debt is fully
// settled (every fragment credits or unpops its whole batch before
// yielding). Observing new arrivals while an unfed debt tail is still
// outstanding would let a later pop place fed tuples behind unfed debt,
// which the fed-prefix accounting cannot represent; PopColsN panics if that
// ever happens.
func (q *Queue) ObserveArrivals(now time.Duration) int {
	n := q.Available(now)
	if n <= q.observed {
		return 0
	}
	fed := n - q.observed
	lo, hi := q.idx(q.observed), q.idx(n)
	if lo < hi {
		q.est.ObserveBatch(q.arrivals[lo:hi])
	} else {
		q.est.ObserveBatch(q.arrivals[lo:q.capacity])
		q.est.ObserveBatch(q.arrivals[:hi])
	}
	q.observed = n
	return fed
}

// EstimatedWait returns the current estimate of the mean inter-arrival time
// (the paper's waiting time w_p) and whether enough observations exist.
func (q *Queue) EstimatedWait() (time.Duration, bool) { return q.est.Mean() }

// Observations returns the number of arrivals fed to the rate estimator.
func (q *Queue) Observations() int64 { return q.est.Observations() }

// TotalPopped returns the number of tuples consumed from this queue.
func (q *Queue) TotalPopped() int64 { return q.totalPopped }

const defaultEWMAAlpha = 0.05

// RateEstimator tracks a smoothed mean inter-arrival time with an
// exponentially weighted moving average.
type RateEstimator struct {
	alpha float64
	last  time.Duration
	mean  float64 // seconds
	n     int64
}

// NewRateEstimator returns an estimator with the given smoothing factor in
// (0, 1]; larger alpha reacts faster.
func NewRateEstimator(alpha float64) *RateEstimator {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("comm: EWMA alpha must be in (0,1], got %v", alpha))
	}
	return &RateEstimator{alpha: alpha}
}

// Reset clears all observations, keeping the smoothing factor.
func (e *RateEstimator) Reset() {
	e.last = 0
	e.mean = 0
	e.n = 0
}

// Observe records one arrival instant.
func (e *RateEstimator) Observe(at time.Duration) {
	if e.n > 0 {
		gap := (at - e.last).Seconds()
		if gap < 0 {
			gap = 0
		}
		if e.n == 1 {
			e.mean = gap
		} else {
			e.mean = e.alpha*gap + (1-e.alpha)*e.mean
		}
	}
	e.last = at
	e.n++
}

// ObserveBatch records a run of arrival instants. The arithmetic is the
// same sequence of float operations as calling Observe per element, so the
// smoothed mean is bit-identical; only the call overhead is amortized.
func (e *RateEstimator) ObserveBatch(at []time.Duration) {
	for _, a := range at {
		e.Observe(a)
	}
}

// Mean returns the smoothed inter-arrival time. The boolean is false until
// at least two arrivals (one gap) have been observed.
func (e *RateEstimator) Mean() (time.Duration, bool) {
	if e.n < 2 {
		return 0, false
	}
	return time.Duration(e.mean * float64(time.Second)), true
}

// Observations returns the number of arrivals seen.
func (e *RateEstimator) Observations() int64 { return e.n }

// SignificantChange reports whether two waiting-time estimates differ by
// more than the given factor (either direction). Zero estimates are treated
// as equal to avoid division blowups on instantaneous sources.
func SignificantChange(old, new time.Duration, factor float64) bool {
	if factor <= 1 {
		factor = 1
	}
	a, b := old.Seconds(), new.Seconds()
	if a == 0 && b == 0 {
		return false
	}
	if a == 0 || b == 0 {
		return true
	}
	r := a / b
	if r < 1 {
		r = 1 / r
	}
	return r > factor && math.Abs(a-b) > 1e-9
}
