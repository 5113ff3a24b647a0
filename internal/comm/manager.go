package comm

import (
	"fmt"
	"sort"
	"time"
)

// Manager is the communication manager (CM) of paper §3.1: it owns the
// per-wrapper queues, keeps the delivery-rate estimates current, and detects
// significant rate changes relative to the estimates the scheduler planned
// with.
//
// The CM sits on the engine's per-batch hot loop (Observe + RateChanged run
// once per scheduling iteration), so it keeps the registered queues in a
// name-sorted slice — no map iteration, no per-call sorting — and memoizes
// the change-detection verdict: estimates only move when an estimator
// absorbs a new arrival, so RateChanged recomputes only when Observe fed
// one (or the planned baseline was re-snapshotted).
type Manager struct {
	queues  map[string]*Queue
	ordered []*Queue // name-sorted, the CM's deterministic scan order
	names   []string // name-sorted, parallel to ordered

	// planned holds, per wrapper, the waiting-time estimate in force when
	// the current scheduling plan was computed; used for RateChange
	// detection.
	planned map[string]time.Duration

	// ChangeFactor is the ratio beyond which a waiting-time drift is
	// significant (paper: "any significant change"). Default 2.
	ChangeFactor float64

	// MinObservations gates change detection until the estimator has seen
	// enough arrivals to be trusted.
	MinObservations int64

	// RateChanged memo: valid while no estimator has absorbed new arrivals
	// (estGen unchanged) and the detection parameters are unchanged.
	estGen     int64
	memoValid  bool
	memoGen    int64
	memoRate   string
	memoFactor float64
	memoMinObs int64
}

// NewManager returns a CM with no queues yet.
func NewManager() *Manager {
	return &Manager{
		queues:          make(map[string]*Queue),
		planned:         make(map[string]time.Duration),
		ChangeFactor:    2,
		MinObservations: 64,
	}
}

// Adopt registers a queue — typically one recycled from a run pool and
// freshly Reset — under its current name, keeping the sorted scan order
// current.
func (m *Manager) Adopt(q *Queue) {
	name := q.Name()
	if _, dup := m.queues[name]; dup {
		panic(fmt.Sprintf("comm: wrapper %q registered twice", name))
	}
	m.queues[name] = q
	i := sort.SearchStrings(m.names, name)
	m.names = append(m.names, "")
	copy(m.names[i+1:], m.names[i:])
	m.names[i] = name
	m.ordered = append(m.ordered, nil)
	copy(m.ordered[i+1:], m.ordered[i:])
	m.ordered[i] = q
	m.memoValid = false
}

// Queues returns the registered queues in name-sorted order. The returned
// slice is shared; callers must not mutate it.
func (m *Manager) Queues() []*Queue { return m.ordered }

// Queue returns the queue of the named wrapper.
func (m *Manager) Queue(name string) (*Queue, bool) {
	q, ok := m.queues[name]
	return q, ok
}

// Names returns the registered wrapper names in sorted order. The returned
// slice is shared; callers must not mutate it.
func (m *Manager) Names() []string { return m.names }

// Observe refreshes every rate estimator with the arrivals visible at time
// now.
func (m *Manager) Observe(now time.Duration) {
	for _, q := range m.ordered {
		if q.ObserveArrivals(now) > 0 {
			m.estGen++
		}
	}
}

// Wait returns the CM's best current estimate of the waiting time of the
// named wrapper, falling back to fallback when too few arrivals have been
// observed.
func (m *Manager) Wait(name string, fallback time.Duration) time.Duration {
	q, ok := m.queues[name]
	if !ok {
		return fallback
	}
	if w, ok := q.EstimatedWait(); ok {
		return w
	}
	return fallback
}

// SnapshotPlanned records the estimates the scheduler is about to plan
// with; subsequent RateChanged calls compare against this baseline.
func (m *Manager) SnapshotPlanned(fallback func(name string) time.Duration) {
	for _, name := range m.names {
		m.planned[name] = m.Wait(name, fallback(name))
	}
	m.memoValid = false
}

// RateChanged reports the first wrapper (in name order) whose current
// estimate deviates from the planned baseline by more than ChangeFactor, or
// "" if none does.
func (m *Manager) RateChanged() string {
	if m.memoValid && m.memoGen == m.estGen &&
		m.memoFactor == m.ChangeFactor && m.memoMinObs == m.MinObservations {
		return m.memoRate
	}
	rate := ""
	for i, q := range m.ordered {
		cur, ok := q.EstimatedWait()
		if !ok || q.est.Observations() < m.MinObservations {
			continue
		}
		base, planned := m.planned[m.names[i]]
		if !planned {
			continue
		}
		if SignificantChange(base, cur, m.ChangeFactor) {
			rate = m.names[i]
			break
		}
	}
	m.memoValid, m.memoGen, m.memoRate = true, m.estGen, rate
	m.memoFactor, m.memoMinObs = m.ChangeFactor, m.MinObservations
	return rate
}
