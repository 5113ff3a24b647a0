package comm

import (
	"math/rand"
	"testing"
	"time"

	"dqs/internal/relation"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// push appends one passing single-column slot holding v, arriving at at.
func push(q *Queue, v int64, at time.Duration) {
	q.PushColsN([][]int64{{v}}, []bool{true}, []time.Duration{at})
}

// pop removes the oldest slot of a single-column queue at now and credits
// it at once, returning its value; the slot must have arrived.
func pop(t *testing.T, q *Queue, now time.Duration) int64 {
	t.Helper()
	b := relation.NewBatch(1)
	if n := q.PopColsN(now, b, make([]bool, 1)); n != 1 {
		t.Fatalf("PopColsN(%v) moved %d slots, want 1", now, n)
	}
	q.Credit(now)
	return b.Col(0)[0]
}

func TestQueuePushPopFIFO(t *testing.T) {
	q := NewQueue("w", 4, 1)
	push(q, 1, ms(1))
	push(q, 2, ms(2))
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
	if got := pop(t, q, ms(5)); got != 1 {
		t.Errorf("first pop = %v", got)
	}
	if got := pop(t, q, ms(5)); got != 2 {
		t.Errorf("second pop = %v", got)
	}
}

func TestQueueAvailabilityRespectsArrivalTimes(t *testing.T) {
	q := NewQueue("w", 4, 1)
	push(q, 1, ms(10))
	push(q, 2, ms(20))
	push(q, 3, ms(30))
	if got := q.Available(ms(5)); got != 0 {
		t.Errorf("Available(5ms) = %d", got)
	}
	if got := q.Available(ms(20)); got != 2 {
		t.Errorf("Available(20ms) = %d", got)
	}
	if got := q.Available(ms(99)); got != 3 {
		t.Errorf("Available(99ms) = %d", got)
	}
	if at, ok := q.NextArrival(); !ok || at != ms(10) {
		t.Errorf("NextArrival = %v,%v", at, ok)
	}
}

// mustPanic reports an error unless f panics.
func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

// TestQueuePanicsOnMisuse pins the protocol misuse panics — window
// overflow, backwards arrivals, and credits and unpops beyond the debt —
// and that popping an empty queue or a slot still in the consumer's future
// moves nothing.
func TestQueuePanicsOnMisuse(t *testing.T) {
	pass := make([]bool, 2)
	if n := NewQueue("w", 2, 1).PopColsN(0, relation.NewBatch(1), pass); n != 0 {
		t.Errorf("pop of empty queue moved %d slots", n)
	}
	future := NewQueue("w", 2, 1)
	push(future, 1, ms(50))
	if n := future.PopColsN(ms(10), relation.NewBatch(1), pass); n != 0 {
		t.Errorf("pop of a future slot moved %d slots", n)
	}
	mustPanic(t, "push full", func() {
		q := NewQueue("w", 1, 1)
		push(q, 1, 0)
		push(q, 2, 0)
	})
	mustPanic(t, "push into debt-reserved window", func() {
		q := NewQueue("w", 1, 1)
		push(q, 1, 0)
		q.PopColsN(0, relation.NewBatch(1), pass)
		push(q, 2, 0)
	})
	mustPanic(t, "backwards arrival", func() {
		q := NewQueue("w", 2, 1)
		push(q, 1, ms(10))
		push(q, 2, ms(5))
	})
	mustPanic(t, "credit without debt", func() { NewQueue("w", 2, 1).Credit(0) })
	mustPanic(t, "unpop beyond debt", func() {
		q := NewQueue("w", 2, 1)
		push(q, 1, 0)
		q.PopColsN(0, relation.NewBatch(1), pass)
		q.UnpopN(2)
	})
	mustPanic(t, "zero capacity", func() { NewQueue("w", 0, 1) })
}

// TestQueueColumnarModeGuards pins the guards around the queue's column
// layout: a negative width is rejected, pushes and pops must match the
// ring's width, column and pass-bit lengths must agree with the arrivals,
// and Reset re-sizes the ring so the old width is rejected and the new one
// round-trips.
func TestQueueColumnarModeGuards(t *testing.T) {
	pass := make([]bool, 2)
	mustPanic(t, "negative width", func() { NewQueue("w", 1, -1) })
	mustPanic(t, "push width mismatch", func() {
		NewQueue("w", 2, 2).PushColsN([][]int64{{1}}, []bool{true}, []time.Duration{0})
	})
	mustPanic(t, "push column length mismatch", func() {
		NewQueue("w", 2, 1).PushColsN([][]int64{{1, 2}}, []bool{true}, []time.Duration{0})
	})
	mustPanic(t, "push pass length mismatch", func() {
		NewQueue("w", 2, 1).PushColsN([][]int64{{1}}, []bool{true, true}, []time.Duration{0})
	})
	mustPanic(t, "pop width mismatch", func() {
		q := NewQueue("w", 2, 1)
		push(q, 1, 0)
		q.PopColsN(0, relation.NewBatch(2), pass)
	})

	q := NewQueue("w", 4, 1)
	push(q, 1, 0)
	q.Reset("v", 2)
	if q.Name() != "v" || q.Width() != 2 || q.Len() != 0 || q.Debt() != 0 {
		t.Fatalf("after Reset: name=%q width=%d len=%d debt=%d", q.Name(), q.Width(), q.Len(), q.Debt())
	}
	mustPanic(t, "push of the pre-Reset width", func() { push(q, 1, 0) })
	q.PushColsN([][]int64{{7}, {8}}, []bool{true}, []time.Duration{0})
	b := relation.NewBatch(2)
	if n := q.PopColsN(0, b, pass); n != 1 || !pass[0] || b.Col(0)[0] != 7 || b.Col(1)[0] != 8 {
		t.Fatalf("round-trip after Reset: n=%d pass=%v cols=%v,%v", n, pass[:n], b.Col(0), b.Col(1))
	}
}

// TestQueueResetReusesColumnStorage pins that a pooled queue re-widened by
// Reset reuses the column storage of its wider past instead of reallocating.
func TestQueueResetReusesColumnStorage(t *testing.T) {
	q := NewQueue("w", 96, 3)
	if a := testing.AllocsPerRun(10, func() { q.Reset("w", 1); q.Reset("w", 3) }); a != 0 {
		t.Errorf("Reset narrow→wide allocated %v times per run", a)
	}
}

type resumeRecorder struct{ calls []time.Duration }

func (r *resumeRecorder) Resume(now time.Duration) { r.calls = append(r.calls, now) }

// TestQueuePopResumesProducer pins that a popped slot frees its window slot
// — and resumes the producer — at the instant the consumer credits it.
func TestQueuePopResumesProducer(t *testing.T) {
	q := NewQueue("w", 2, 1)
	rec := &resumeRecorder{}
	q.SetProducer(rec)
	push(q, 1, ms(1))
	pop(t, q, ms(7))
	if len(rec.calls) != 1 || rec.calls[0] != ms(7) {
		t.Errorf("Resume calls = %v", rec.calls)
	}
}

func TestQueueRingWraparound(t *testing.T) {
	q := NewQueue("w", 3, 1)
	at := time.Duration(0)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			at += ms(1)
			push(q, int64(round*3+i), at)
		}
		for i := 0; i < 3; i++ {
			if got := pop(t, q, at); got != int64(round*3+i) {
				t.Fatalf("round %d pop %d = %v", round, i, got)
			}
		}
	}
	if q.TotalPopped() != 30 {
		t.Errorf("TotalPopped = %d", q.TotalPopped())
	}
}

// queueModel is a brute-force reference for push/pop/Available: a plain
// slice scanned end to end on every query, with none of the ring buffer's
// wraparound arithmetic or the arrived-count cache.
type queueModel struct {
	vals     []int64
	arrivals []time.Duration
}

func (m *queueModel) push(v int64, at time.Duration) {
	m.vals = append(m.vals, v)
	m.arrivals = append(m.arrivals, at)
}

func (m *queueModel) pop() int64 {
	v := m.vals[0]
	m.vals = m.vals[1:]
	m.arrivals = m.arrivals[1:]
	return v
}

func (m *queueModel) available(now time.Duration) int {
	n := 0
	for _, at := range m.arrivals {
		if at > now {
			break
		}
		n++
	}
	return n
}

// TestQueueAgreesWithBruteForceModel drives the queue and the model through
// randomized interleavings of pushes, pops and Available — including
// Available queries at instants both ahead of and behind the cache's
// high-water mark — and requires them to agree at every step. This pins the
// O(1) arrived-count cache and the branch-based wraparound against the
// obviously correct O(n) rescan they replaced.
func TestQueueAgreesWithBruteForceModel(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		capacity := 1 + rng.Intn(9) // deliberately not a power of two
		q := NewQueue("w", capacity, 1)
		m := &queueModel{}
		batch := relation.NewBatch(1)
		pass := make([]bool, capacity)
		var lastArrival time.Duration
		var seq int64
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(4); {
			case op == 0 && q.Len() < capacity: // push
				lastArrival += time.Duration(rng.Intn(5)) * time.Millisecond
				seq++
				push(q, seq, lastArrival)
				m.push(seq, lastArrival)
			case op == 1: // pop and credit everything arrived at a random instant
				now := lastArrival - time.Duration(rng.Intn(8))*time.Millisecond
				if now < 0 {
					now = 0
				}
				batch.Reset(1)
				n := q.PopColsN(now, batch, pass)
				if want := m.available(now); n != want {
					t.Fatalf("trial %d step %d: pop moved %d, want %d", trial, step, n, want)
				}
				for i := 0; i < n; i++ {
					q.Credit(now)
					if got, want := batch.Col(0)[i], m.pop(); got != want {
						t.Fatalf("trial %d step %d: pop = %v, want %v", trial, step, got, want)
					}
				}
			default: // compare availability at a random instant, often in the past
				now := lastArrival - time.Duration(rng.Intn(12))*time.Millisecond
				if now < 0 {
					now = 0
				}
				if got, want := q.Available(now), m.available(now); got != want {
					t.Fatalf("trial %d step %d: Available(%v) = %d, want %d (len=%d cap=%d)",
						trial, step, now, got, want, q.Len(), capacity)
				}
			}
			if q.Len() != len(m.vals) {
				t.Fatalf("trial %d step %d: Len = %d, want %d", trial, step, q.Len(), len(m.vals))
			}
		}
	}
}

// The bulk-protocol model pushes full-width rows [key, predCol, payload]
// through a wrapper-side filter: the queue carries only the live columns
// plus a pass bit (pass iff predCol < predLess, about half the rows), while
// the model keeps the whole row.
const (
	modelPredIdx  = 1
	modelPredLess = int64(50)
)

var modelLive = []int{0, 2}

// modelRow is the deterministic full-width row with key seq.
func modelRow(seq int64) relation.Tuple { return relation.Tuple{seq, seq * 37 % 100, seq * 10} }

// pushRows pushes rows through the wrapper-side filter in one PushColsN.
func pushRows(q *Queue, rows []relation.Tuple, arrivals []time.Duration) {
	vals := make([][]int64, len(modelLive))
	pass := make([]bool, len(rows))
	for i, r := range rows {
		pass[i] = r[modelPredIdx] < modelPredLess
		for j, c := range modelLive {
			vals[j] = append(vals[j], r[c])
		}
	}
	q.PushColsN(vals, pass, arrivals)
}

// refillProducer mirrors the wrapper pump against both the queue under test
// and the brute-force model: each Resume pushes up to one refill tuple with
// an arrival derived from the resume instant, exactly when the window has
// room — so debt-reserved slots must keep it suspended just like buffered
// tuples would.
type refillProducer struct {
	q           *Queue
	m           *popModel
	rows        int64
	seq         *int64
	lastArrival time.Duration
	resumes     []time.Duration
}

func (p *refillProducer) Resume(now time.Duration) {
	p.resumes = append(p.resumes, now)
	if p.rows <= 0 || p.q.Full() {
		return
	}
	at := now + ms(3)
	if at < p.lastArrival {
		at = p.lastArrival
	}
	p.lastArrival = at
	p.rows--
	*p.seq++
	r := modelRow(*p.seq)
	pushRows(p.q, []relation.Tuple{r}, []time.Duration{at})
	p.m.push(r, at)
}

// popModel is the brute-force reference for the bulk protocol: plain slices
// of full-width rows for the buffer plus a slice for popped-but-uncredited
// rows, scanned end to end, with none of the ring arithmetic, debt
// accounting, cache maintenance or column projection. It also models the
// rate-estimator feed with an exact per-tuple fed flag (instead of the
// queue's prefix counters), feeding a reference estimator so the test can
// prove no arrival is ever skipped or fed twice across pop/Credit/UnpopN
// traffic.
type popModel struct {
	tuples       []relation.Tuple
	arrivals     []time.Duration
	fed          []bool           // arrival already fed to est, parallel to tuples
	debt         []relation.Tuple // popped, window slot still reserved
	debtArrivals []time.Duration  // originals, restored verbatim by unpopN
	debtFed      []bool
	capacity     int
	popped       int64
	est          *RateEstimator
}

func (m *popModel) full() bool { return len(m.tuples)+len(m.debt) == m.capacity }

func (m *popModel) push(t relation.Tuple, at time.Duration) {
	m.tuples = append(m.tuples, t)
	m.arrivals = append(m.arrivals, at)
	m.fed = append(m.fed, false)
}

func (m *popModel) available(now time.Duration) int {
	n := 0
	for _, at := range m.arrivals {
		if at > now {
			break
		}
		n++
	}
	return n
}

func (m *popModel) popN(now time.Duration, max int) []relation.Tuple {
	n := m.available(now)
	if n > max {
		n = max
	}
	out := append([]relation.Tuple(nil), m.tuples[:n]...)
	m.debt = append(m.debt, out...)
	m.debtArrivals = append(m.debtArrivals, m.arrivals[:n]...)
	m.debtFed = append(m.debtFed, m.fed[:n]...)
	m.tuples = m.tuples[n:]
	m.arrivals = m.arrivals[n:]
	m.fed = m.fed[n:]
	m.popped += int64(n)
	return out
}

func (m *popModel) credit() {
	m.debt = m.debt[1:]
	m.debtArrivals = m.debtArrivals[1:]
	m.debtFed = m.debtFed[1:]
}

func (m *popModel) unpopN(n int) {
	cut := len(m.debt) - n
	m.tuples = append(append([]relation.Tuple(nil), m.debt[cut:]...), m.tuples...)
	m.arrivals = append(append([]time.Duration(nil), m.debtArrivals[cut:]...), m.arrivals...)
	m.fed = append(append([]bool(nil), m.debtFed[cut:]...), m.fed...)
	m.debt = m.debt[:cut]
	m.debtArrivals = m.debtArrivals[:cut]
	m.debtFed = m.debtFed[:cut]
	m.popped -= int64(n)
}

// observeArrivals feeds every buffered, arrived, not-yet-fed arrival to the
// reference estimator in order — the per-tuple reference semantics of
// Queue.ObserveArrivals.
func (m *popModel) observeArrivals(now time.Duration) int {
	fedCount := 0
	for i, at := range m.arrivals {
		if at > now {
			break
		}
		if !m.fed[i] {
			m.est.Observe(at)
			m.fed[i] = true
			fedCount++
		}
	}
	return fedCount
}

// checkPopped compares one popped batch against the model's rows: every
// slot's pass bit must be the wrapper-side predicate's verdict, and every
// passing slot must carry the row's live column values.
func checkPopped(t *testing.T, where string, batch *relation.Batch, pass []bool, want []relation.Tuple) {
	t.Helper()
	for i, row := range want {
		wantPass := row[modelPredIdx] < modelPredLess
		if pass[i] != wantPass {
			t.Fatalf("%s: slot %d pass = %v, want %v", where, i, pass[i], wantPass)
		}
		if !wantPass {
			continue
		}
		for j, c := range modelLive {
			if got := batch.Col(j)[i]; got != row[c] {
				t.Fatalf("%s: slot %d col %d = %d, want %d", where, i, j, got, row[c])
			}
		}
	}
}

// TestQueuePopNAgreesWithBruteForceModel drives the bulk protocol — bursts
// of PushColsN through a wrapper-side filter, PopColsN with partial-arrival
// batches, per-tuple Credit with a live producer that refills the window
// mid-batch, UnpopN of unprocessed tails, and ObserveArrivals at the
// debt-settled instants the communication manager uses — against the
// brute-force model of full rows, requiring agreement at every step on the
// popped pass bits and live values, window occupancy, debt, arrived prefix,
// consumption count, estimator feeds and EWMA state. Filtered slots occupy
// window slots with their real arrivals, so the protocol state must be
// indistinguishable from a buffer holding the full rows.
func TestQueuePopNAgreesWithBruteForceModel(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		capacity := 1 + rng.Intn(9)
		q := NewQueue("w", capacity, len(modelLive))
		m := &popModel{capacity: capacity, est: NewRateEstimator(defaultEWMAAlpha)}
		var seq int64
		prod := &refillProducer{q: q, m: m, rows: 500, seq: &seq}
		q.SetProducer(prod)
		var lastArrival, now time.Duration
		batch := relation.NewBatch(len(modelLive))
		pass := make([]bool, capacity+2)
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(7); {
			case op == 0 && !q.Full(): // direct burst push (initial fill traffic)
				room := capacity - q.Len() - q.Debt()
				n := 1 + rng.Intn(room)
				rows := make([]relation.Tuple, n)
				arrivals := make([]time.Duration, n)
				for i := range rows {
					lastArrival += time.Duration(rng.Intn(5)) * time.Millisecond
					if lastArrival < prod.lastArrival {
						lastArrival = prod.lastArrival
					}
					prod.lastArrival = lastArrival
					seq++
					rows[i], arrivals[i] = modelRow(seq), lastArrival
					m.push(rows[i], lastArrival)
				}
				pushRows(q, rows, arrivals)
			case op == 1 || op == 2: // bulk pop at an instant that may strand late arrivals
				now += time.Duration(rng.Intn(6)) * time.Millisecond
				max := 1 + rng.Intn(len(pass))
				batch.Reset(len(modelLive))
				got := q.PopColsN(now, batch, pass[:max])
				want := m.popN(now, max)
				if got != len(want) {
					t.Fatalf("trial %d step %d: PopColsN moved %d, want %d", trial, step, got, len(want))
				}
				checkPopped(t, "pop", batch, pass, want)
			case op == 3 && q.Debt() > 0: // credit one slot; producer may refill mid-batch
				now += time.Duration(rng.Intn(3)) * time.Millisecond
				q.Credit(now)
				m.credit()
			case op == 4 && q.Debt() > 0: // give back an unprocessed tail
				n := 1 + rng.Intn(q.Debt())
				q.UnpopN(n)
				m.unpopN(n)
			case op == 5 && q.Debt() == 0: // CM observation at a round boundary
				if got, want := q.ObserveArrivals(now), m.observeArrivals(now); got != want {
					t.Fatalf("trial %d step %d: ObserveArrivals fed %d, want %d", trial, step, got, want)
				}
			default: // availability probe, sometimes in the past
				at := now - time.Duration(rng.Intn(8))*time.Millisecond
				if at < 0 {
					at = 0
				}
				if got, want := q.Available(at), m.available(at); got != want {
					t.Fatalf("trial %d step %d: Available(%v) = %d, want %d", trial, step, at, got, want)
				}
			}
			if q.Len() != len(m.tuples) {
				t.Fatalf("trial %d step %d: Len = %d, want %d", trial, step, q.Len(), len(m.tuples))
			}
			if q.Debt() != len(m.debt) {
				t.Fatalf("trial %d step %d: Debt = %d, want %d", trial, step, q.Debt(), len(m.debt))
			}
			if q.Full() != m.full() {
				t.Fatalf("trial %d step %d: Full = %v, want %v", trial, step, q.Full(), m.full())
			}
			if q.TotalPopped() != m.popped {
				t.Fatalf("trial %d step %d: TotalPopped = %d, want %d", trial, step, q.TotalPopped(), m.popped)
			}
			gotW, gotOK := q.EstimatedWait()
			wantW, wantOK := m.est.Mean()
			if gotW != wantW || gotOK != wantOK {
				t.Fatalf("trial %d step %d: EstimatedWait = %v,%v, want %v,%v",
					trial, step, gotW, gotOK, wantW, wantOK)
			}
			if got, want := q.Observations(), m.est.Observations(); got != want {
				t.Fatalf("trial %d step %d: Observations = %d, want %d", trial, step, got, want)
			}
		}
		// Drain: credit all debt, then pop and credit the remainder, checking
		// FIFO order survives the wraparound and unpop traffic.
		for q.Debt() > 0 {
			q.Credit(now)
			m.credit()
		}
		now += time.Duration(len(m.tuples)+1) * time.Second
		if got, want := q.ObserveArrivals(now), m.observeArrivals(now); got != want {
			t.Fatalf("trial %d drain: ObserveArrivals fed %d, want %d", trial, got, want)
		}
		for q.Available(now) > 0 {
			batch.Reset(len(modelLive))
			q.PopColsN(now, batch, pass[:1])
			checkPopped(t, "drain", batch, pass, m.popN(now, 1))
			q.Credit(now)
			m.credit()
		}
		gotW, gotOK := q.EstimatedWait()
		wantW, wantOK := m.est.Mean()
		if gotW != wantW || gotOK != wantOK {
			t.Fatalf("trial %d drain: EstimatedWait = %v,%v, want %v,%v", trial, gotW, gotOK, wantW, wantOK)
		}
	}
}

func TestQueuePopNDoesNotResumeUntilCredit(t *testing.T) {
	q := NewQueue("w", 2, 1)
	rec := &resumeRecorder{}
	q.SetProducer(rec)
	push(q, 1, ms(1))
	push(q, 2, ms(2))
	if n := q.PopColsN(ms(5), relation.NewBatch(1), make([]bool, 2)); n != 2 {
		t.Fatalf("PopColsN = %d", n)
	}
	if len(rec.calls) != 0 {
		t.Fatalf("PopColsN resumed producer: %v", rec.calls)
	}
	if !q.Full() {
		t.Error("debt slots should keep the window full")
	}
	q.Credit(ms(7))
	q.Credit(ms(9))
	if len(rec.calls) != 2 || rec.calls[0] != ms(7) || rec.calls[1] != ms(9) {
		t.Errorf("Resume calls = %v", rec.calls)
	}
	if q.Full() || q.Debt() != 0 {
		t.Errorf("after credits: Full=%v Debt=%d", q.Full(), q.Debt())
	}
}

// TestUnpopNRestoresObservedAccounting pins the estimator bookkeeping of a
// mid-batch overflow (Fragment.processColumnar's PopColsN → Credit… →
// UnpopN): an arrival already fed to the rate estimator must not be fed
// again after its tuple is returned to the buffer, and an arrival that was
// never fed must still be fed later.
func TestUnpopNRestoresObservedAccounting(t *testing.T) {
	push5 := func(q *Queue) {
		for i := 0; i < 5; i++ {
			push(q, int64(i), ms(10*i))
		}
	}
	pop5 := func(q *Queue) {
		if n := q.PopColsN(ms(100), relation.NewBatch(1), make([]bool, 5)); n != 5 {
			t.Fatalf("PopColsN = %d", n)
		}
	}

	// Fully observed batch: the review's reproduction. All 5 arrivals are
	// fed before the pop; after two credits and an UnpopN of the remaining
	// 3, re-observing must feed nothing.
	q := NewQueue("w", 8, 1)
	push5(q)
	if fed := q.ObserveArrivals(ms(100)); fed != 5 {
		t.Fatalf("initial observation fed %d, want 5", fed)
	}
	mean, _ := q.EstimatedWait()
	pop5(q)
	q.Credit(ms(101))
	q.Credit(ms(102))
	q.UnpopN(3)
	if fed := q.ObserveArrivals(ms(200)); fed != 0 {
		t.Fatalf("re-observation after UnpopN fed %d duplicates, want 0", fed)
	}
	if m, _ := q.EstimatedWait(); m != mean {
		t.Fatalf("duplicate feed moved the estimate: %v, want %v", m, mean)
	}
	if obs := q.Observations(); obs != 5 {
		t.Fatalf("Observations = %d, want 5", obs)
	}

	// Partially observed batch (the clamped case): only 2 of the 5 popped
	// arrivals were fed, so the 3 unfed tuples given back by UnpopN must
	// still be fed exactly once when they are next observed.
	q = NewQueue("w", 8, 1)
	push5(q)
	if fed := q.ObserveArrivals(ms(15)); fed != 2 {
		t.Fatalf("partial observation fed %d, want 2", fed)
	}
	pop5(q)
	q.Credit(ms(101))
	q.Credit(ms(102))
	q.UnpopN(3)
	if fed := q.ObserveArrivals(ms(200)); fed != 3 {
		t.Fatalf("observation after UnpopN fed %d, want 3", fed)
	}
	if obs := q.Observations(); obs != 5 {
		t.Fatalf("Observations = %d, want 5", obs)
	}
	// The feed order matched arrival order (0,10 then 20,30,40 ms), so the
	// EWMA over the 10ms gaps is exact.
	ref := NewRateEstimator(defaultEWMAAlpha)
	for i := 0; i < 5; i++ {
		ref.Observe(ms(10 * i))
	}
	want, _ := ref.Mean()
	if m, _ := q.EstimatedWait(); m != want {
		t.Fatalf("EstimatedWait = %v, want %v", m, want)
	}
}

// TestQueuePushNMatchesPush pins that one multi-slot PushColsN run — which
// wraps the ring and crosses the arrived cache's high-water mark — leaves
// the queue exactly as pushing the same slots one at a time does.
func TestQueuePushNMatchesPush(t *testing.T) {
	a := NewQueue("a", 7, 1)
	b := NewQueue("b", 7, 1)
	vals := []int64{1, 2, 3, 4, 5}
	arrivals := []time.Duration{ms(1), ms(1), ms(4), ms(9), ms(12)}
	// Offset both rings so the run has to wrap.
	for _, q := range []*Queue{a, b} {
		push(q, 0, 0)
		pop(t, q, 0)
		q.Available(ms(2)) // advance the arrived cache high-water mark
	}
	for i := range vals {
		push(a, vals[i], arrivals[i])
	}
	b.PushColsN([][]int64{vals}, []bool{true, true, true, true, true}, arrivals)
	if a.Len() != b.Len() {
		t.Fatalf("Len: %d vs %d", a.Len(), b.Len())
	}
	for _, at := range []time.Duration{0, ms(1), ms(2), ms(5), ms(20)} {
		if x, y := a.Available(at), b.Available(at); x != y {
			t.Errorf("Available(%v): %d vs %d", at, x, y)
		}
	}
	for a.Len() > 0 {
		if x, y := pop(t, a, ms(20)), pop(t, b, ms(20)); x != y {
			t.Errorf("pop order diverged: %v vs %v", x, y)
		}
	}
}

func TestRateEstimatorEWMA(t *testing.T) {
	e := NewRateEstimator(0.5)
	if _, ok := e.Mean(); ok {
		t.Error("estimator reported a mean with no observations")
	}
	e.Observe(0)
	if _, ok := e.Mean(); ok {
		t.Error("estimator reported a mean after one observation")
	}
	e.Observe(ms(10)) // first gap: 10ms
	if m, ok := e.Mean(); !ok || m != ms(10) {
		t.Errorf("mean after first gap = %v,%v", m, ok)
	}
	e.Observe(ms(30)) // gap 20ms: mean = 0.5*20 + 0.5*10 = 15ms
	if m, _ := e.Mean(); m != ms(15) {
		t.Errorf("EWMA mean = %v, want 15ms", m)
	}
	if e.Observations() != 3 {
		t.Errorf("Observations = %d", e.Observations())
	}
}

func TestRateEstimatorAlphaValidation(t *testing.T) {
	for _, alpha := range []float64{0, -0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha %v accepted", alpha)
				}
			}()
			NewRateEstimator(alpha)
		}()
	}
}

func TestObserveArrivalsIsCausalAndIncremental(t *testing.T) {
	q := NewQueue("w", 8, 1)
	push(q, 1, ms(10))
	push(q, 2, ms(20))
	push(q, 3, ms(300))
	q.ObserveArrivals(ms(25)) // sees two arrivals → one gap
	if m, ok := q.EstimatedWait(); !ok || m != ms(10) {
		t.Errorf("estimate after 2 arrivals = %v,%v, want 10ms", m, ok)
	}
	// Re-observing must not double count.
	q.ObserveArrivals(ms(25))
	if m, _ := q.EstimatedWait(); m != ms(10) {
		t.Errorf("re-observation changed estimate to %v", m)
	}
}

func TestSignificantChange(t *testing.T) {
	cases := []struct {
		old, new time.Duration
		factor   float64
		want     bool
	}{
		{ms(10), ms(10), 2, false},
		{ms(10), ms(25), 2, true},
		{ms(25), ms(10), 2, true},
		{ms(10), ms(19), 2, false},
		{0, 0, 2, false},
		{0, ms(5), 2, true},
		{ms(5), 0, 2, true},
		{ms(10), ms(15), 1, true}, // factor clamped to 1: any change significant
	}
	for _, tc := range cases {
		if got := SignificantChange(tc.old, tc.new, tc.factor); got != tc.want {
			t.Errorf("SignificantChange(%v, %v, %v) = %v, want %v", tc.old, tc.new, tc.factor, got, tc.want)
		}
	}
}

func TestManagerRegisterAndWait(t *testing.T) {
	m := NewManager()
	q := NewQueue("A", 8, 1)
	m.Adopt(q)
	if got, ok := m.Queue("A"); !ok || got != q {
		t.Error("Queue lookup failed")
	}
	if _, ok := m.Queue("B"); ok {
		t.Error("unknown queue found")
	}
	if got := m.Wait("A", ms(42)); got != ms(42) {
		t.Errorf("Wait fallback = %v", got)
	}
	if got := m.Wait("missing", ms(42)); got != ms(42) {
		t.Errorf("Wait for missing wrapper = %v", got)
	}
	push(q, 1, ms(10))
	push(q, 2, ms(20))
	m.Observe(ms(30))
	if got := m.Wait("A", ms(42)); got != ms(10) {
		t.Errorf("Wait after observation = %v, want 10ms", got)
	}
}

func TestManagerDuplicateRegisterPanics(t *testing.T) {
	m := NewManager()
	m.Adopt(NewQueue("A", 8, 1))
	defer func() {
		if recover() == nil {
			t.Error("duplicate register did not panic")
		}
	}()
	m.Adopt(NewQueue("A", 8, 1))
}

func TestManagerRateChangeDetection(t *testing.T) {
	m := NewManager()
	m.MinObservations = 4
	q := NewQueue("A", 1024, 1)
	m.Adopt(q)
	at := time.Duration(0)
	for i := 0; i < 10; i++ {
		at += ms(1)
		push(q, int64(i), at)
	}
	m.Observe(at)
	m.SnapshotPlanned(func(string) time.Duration { return ms(1) })
	if got := m.RateChanged(); got != "" {
		t.Errorf("rate change on stable stream: %q", got)
	}
	// The wrapper slows down by 10x: the EWMA crosses the factor-2 bound.
	for i := 0; i < 60; i++ {
		at += ms(10)
		push(q, int64(100+i), at)
	}
	m.Observe(at)
	if got := m.RateChanged(); got != "A" {
		t.Errorf("RateChanged = %q, want A", got)
	}
}
