package exec

import (
	"time"

	"dqs/internal/comm"
	"dqs/internal/mem"
	"dqs/internal/relation"
	"dqs/internal/source"
)

// TupleSource is the uniform scheduling view of a query fragment's input:
// wrapper queues and temp-relation readers both satisfy it, so the DQP
// schedules pipeline chains, materialization fragments and complement
// fragments with the same machinery. Consumption itself is input-specific:
// a wrapper queue hands out columnar batches (queueSource.PopBatch), a temp
// reader row runs (mem.Reader.PopN). Either way popped tuples keep their
// flow-control slots until the consumer Credits each one at the virtual
// instant it processes it (or returns unprocessed ones with UnpopN).
type TupleSource interface {
	// Available returns how many tuples can be popped at virtual time now.
	Available(now time.Duration) int
	// NextArrival returns when the next tuple becomes available; false
	// means no tuple will ever arrive again.
	NextArrival() (time.Duration, bool)
	// Credit releases one popped tuple's flow-control slot at time now.
	Credit(now time.Duration)
	// UnpopN returns the newest n uncredited tuples to the source.
	UnpopN(n int)
	// Exhausted reports that every tuple has been consumed.
	Exhausted() bool
	// Remaining returns the number of tuples not yet consumed.
	Remaining() int
}

// queueSource adapts a wrapper queue plus its producing source.
type queueSource struct {
	q      *comm.Queue
	src    *source.Source
	popped int
}

// newQueueSource wires a queue/source pair into a TupleSource.
func newQueueSource(q *comm.Queue, src *source.Source) *queueSource {
	return &queueSource{q: q, src: src}
}

func (s *queueSource) Available(now time.Duration) int { return s.q.Available(now) }

func (s *queueSource) NextArrival() (time.Duration, bool) {
	if at, ok := s.q.NextArrival(); ok {
		return at, true
	}
	// The source pumps eagerly, so an empty queue means it is exhausted.
	return 0, false
}

// PopBatch bulk-consumes up to len(pass) arrived slots as flat column runs
// appended to dst, with the pushdown pass mask in pass. The consumer owes a
// Credit per slot — filtered ones included.
func (s *queueSource) PopBatch(now time.Duration, dst *relation.Batch, pass []bool) int {
	n := s.q.PopColsN(now, dst, pass)
	s.popped += n
	return n
}

func (s *queueSource) Credit(now time.Duration) { s.q.Credit(now) }

func (s *queueSource) UnpopN(n int) {
	s.q.UnpopN(n)
	s.popped -= n
}

func (s *queueSource) Exhausted() bool { return s.src.Exhausted() && s.q.Len() == 0 }

func (s *queueSource) Remaining() int { return s.src.Rows() - s.popped }

// swap replaces the producing source behind the queue — failover handed the
// stream to a replica. The queue itself (and its buffered tuples) carries
// over; only the producer consulted for exhaustion changes.
func (s *queueSource) swap(src *source.Source) { s.src = src }

// tempSource adapts a temp-relation reader; mem.Reader implements the
// bulk protocol (PopN, UnpopN) natively, and Credit is a no-op: a temp
// reader has no window protocol, so there is no producer to resume.
type tempSource struct{ *mem.Reader }

func (tempSource) Credit(time.Duration) {}

var (
	_ TupleSource = (*queueSource)(nil)
	_ TupleSource = tempSource{}
)
