package comm

import (
	"math/rand"
	"testing"
	"time"

	"dqs/internal/relation"
)

// TestColumnarQueueAgreesWithRowQueue is the randomized differential behind
// the pushdown accounting: a queue carrying full row tuples (every column,
// every slot passing) and a pushdown queue carrying only the projected live
// columns plus a wrapper-side filter's pass bits, driven by identical
// arrival sequences, must stay in lockstep on every protocol observable —
// window occupancy, debt, arrived prefix, estimator feeds and EWMA state —
// at every step, including per-slot credits inside a batch and mid-batch
// UnpopN give-backs. Filtered slots still occupy window slots with their
// real arrivals, so the protocol state must be indistinguishable from the
// queue holding the full tuples, and every passing slot's live values must
// equal the projection of its full row.
func TestColumnarQueueAgreesWithRowQueue(t *testing.T) {
	const (
		fullWidth = 3 // row tuples: [key, predCol, payload]
		predIdx   = 1
		predLess  = int64(50) // pass iff tuple[predIdx] < 50 (~half the rows)
	)
	keep := []int{0, 2} // projected live columns

	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		capacity := 1 + rng.Intn(8)
		rq := NewQueue("row", capacity, fullWidth)
		cq := NewQueue("col", capacity, len(keep))

		// Staging buffers for the two push shapes.
		var (
			stageRow  = make([][]int64, fullWidth)
			stageAll  []bool
			stageCols = make([][]int64, len(keep))
			stagePass []bool
			stageAt   []time.Duration
		)
		rowBatch := relation.NewBatch(fullWidth)
		rowPass := make([]bool, capacity+2)
		batch := relation.NewBatch(len(keep))
		passBuf := make([]bool, capacity+2)

		var lastArrival, now time.Duration
		var seq int64
		for step := 0; step < 1500; step++ {
			switch op := rng.Intn(7); {
			case op <= 1 && !rq.Full(): // push a burst of 1..room tuples
				room := capacity - rq.Len() - rq.Debt()
				n := 1 + rng.Intn(room)
				stageAll, stagePass, stageAt = stageAll[:0], stagePass[:0], stageAt[:0]
				for j := range stageRow {
					stageRow[j] = stageRow[j][:0]
				}
				for j := range stageCols {
					stageCols[j] = stageCols[j][:0]
				}
				for i := 0; i < n; i++ {
					lastArrival += time.Duration(rng.Intn(5)) * time.Millisecond
					seq++
					tup := relation.Tuple{seq, rng.Int63n(100), seq * 10}
					pass := tup[predIdx] < predLess
					for j, v := range tup {
						stageRow[j] = append(stageRow[j], v)
					}
					stageAll = append(stageAll, true)
					stagePass = append(stagePass, pass)
					stageAt = append(stageAt, lastArrival)
					for j, c := range keep {
						v := int64(0)
						if pass {
							v = tup[c]
						}
						stageCols[j] = append(stageCols[j], v)
					}
				}
				rq.PushColsN(stageRow, stageAll, stageAt)
				cq.PushColsN(stageCols, stagePass, stageAt)
			case op == 2 || op == 3: // bulk pop, possibly stranding late arrivals
				now += time.Duration(rng.Intn(6)) * time.Millisecond
				max := 1 + rng.Intn(len(rowPass))
				rowBatch.Reset(fullWidth)
				rn := rq.PopColsN(now, rowBatch, rowPass[:max])
				batch.Reset(len(keep))
				cn := cq.PopColsN(now, batch, passBuf[:max])
				if rn != cn {
					t.Fatalf("trial %d step %d: row queue moved %d, pushdown queue moved %d", trial, step, rn, cn)
				}
				for i := 0; i < rn; i++ {
					if !rowPass[i] {
						t.Fatalf("trial %d step %d: row slot %d lost its pass bit", trial, step, i)
					}
					wantPass := rowBatch.Col(predIdx)[i] < predLess
					if passBuf[i] != wantPass {
						t.Fatalf("trial %d step %d: slot %d pass = %v, want %v", trial, step, i, passBuf[i], wantPass)
					}
					if !wantPass {
						continue
					}
					for j, c := range keep {
						if got, want := batch.Col(j)[i], rowBatch.Col(c)[i]; got != want {
							t.Fatalf("trial %d step %d: slot %d col %d = %d, want %d",
								trial, step, i, j, got, want)
						}
					}
				}
			case op == 4 && rq.Debt() > 0: // credit one slot
				now += time.Duration(rng.Intn(3)) * time.Millisecond
				rq.Credit(now)
				cq.Credit(now)
			case op == 5 && rq.Debt() > 0: // give back an unprocessed tail
				n := 1 + rng.Intn(rq.Debt())
				rq.UnpopN(n)
				cq.UnpopN(n)
			default: // CM observation at a round boundary
				if rq.Debt() == 0 {
					rfed, cfed := rq.ObserveArrivals(now), cq.ObserveArrivals(now)
					if rfed != cfed {
						t.Fatalf("trial %d step %d: ObserveArrivals fed %d row, %d pushdown", trial, step, rfed, cfed)
					}
				}
			}
			if rq.Len() != cq.Len() || rq.Debt() != cq.Debt() || rq.Full() != cq.Full() {
				t.Fatalf("trial %d step %d: window state diverged: row Len=%d Debt=%d Full=%v, pushdown Len=%d Debt=%d Full=%v",
					trial, step, rq.Len(), rq.Debt(), rq.Full(), cq.Len(), cq.Debt(), cq.Full())
			}
			at := now - time.Duration(rng.Intn(8))*time.Millisecond
			if at < 0 {
				at = 0
			}
			if ra, ca := rq.Available(at), cq.Available(at); ra != ca {
				t.Fatalf("trial %d step %d: Available(%v) = %d row, %d pushdown", trial, step, at, ra, ca)
			}
			if rq.TotalPopped() != cq.TotalPopped() {
				t.Fatalf("trial %d step %d: TotalPopped = %d row, %d pushdown",
					trial, step, rq.TotalPopped(), cq.TotalPopped())
			}
			if rq.Observations() != cq.Observations() {
				t.Fatalf("trial %d step %d: Observations = %d row, %d pushdown",
					trial, step, rq.Observations(), cq.Observations())
			}
			rw, rok := rq.EstimatedWait()
			cw, cok := cq.EstimatedWait()
			if rw != cw || rok != cok {
				t.Fatalf("trial %d step %d: EstimatedWait = %v,%v row, %v,%v pushdown",
					trial, step, rw, rok, cw, cok)
			}
		}
	}
}
