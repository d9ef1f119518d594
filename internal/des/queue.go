package des

import "math/bits"

// The engine keeps its pending events in three typed sources: the one
// pending arrival in a slot (sources pull one ahead), departures in a
// monotone radix heap, and DC failure, recovery and detection-sweep events
// in a short list. Its dispatch step merges them by (instant, class, push
// order). At an equal instant departures run first so capacity freed at t is
// visible to arrivals at t; fleet events run between, so a DC that fails at t
// rejects arrivals at t but still sees the departures that emptied it. The
// remaining ties, within a class, are FIFO (a departure's push order, a fleet
// event's place in the list) — never pointer values or map order.

// departures is a monotone radix heap of in-flight calls keyed by their end
// instant, Call.end. It relies on the engine's one scheduling rule: a
// departure is pushed while its call arrives, due at the arrival instant
// plus Arrival.Dur ≥ 0, so no push is due before the last departure popped.
//
// Keys are split into sixteen 4-bit digits. A call due at t sits in bucket
// (d, t's digit d), where d is the highest digit in which t differs from
// last, the last popped key; calls due exactly at last sit in bucket 0,
// which no (d, digit) pair uses because t's digit d exceeds last's. Bucket
// order is key order, so the minimum lives in the lowest non-empty bucket,
// which the occupancy bitmap finds in at most four word tests. A pop from an
// empty bucket 0 advances last to the cached minimum and re-files only that
// bucket's calls, each into a strictly lower bucket: a call moves at most
// sixteen times over its life, however many calls are in flight.
//
// Buckets are FIFO lists threaded through Call.qnext. Pushes append, and a
// re-file walks its bucket in order and appends, so every list stays in push
// order and calls due at the same instant pop in the order they were pushed.
type departures struct {
	head, tail [256]*Call
	least      [256]int64 // earliest end in each non-empty bucket
	occupied   [4]uint64  // bit b set: bucket b is non-empty
	last       int64      // the key bucket digits are taken against
	earliest   int64      // the queue's minimum end, valid when n > 0
	n          int
}

// bucket returns the bucket a call due at t files into against last.
func (q *departures) bucket(t int64) int {
	x := uint64(t ^ q.last)
	if x == 0 {
		return 0
	}
	shift := (bits.Len64(x) - 1) &^ 3
	// The top digit of a signed key compares with its sign bit flipped.
	return shift<<2 | int((uint64(t)^1<<63)>>shift&15)
}

// file appends c, due at t, to bucket b.
func (q *departures) file(c *Call, t int64, b int) {
	c.qnext = nil
	if q.head[b] == nil {
		q.head[b] = c
		q.least[b] = t
		q.occupied[b>>6] |= 1 << (b & 63)
	} else {
		q.tail[b].qnext = c
		q.least[b] = min(q.least[b], t)
	}
	q.tail[b] = c
}

// lowest returns the lowest non-empty bucket; the queue must be non-empty.
func (q *departures) lowest() int {
	for w, word := range q.occupied {
		if word != 0 {
			return w<<6 | bits.TrailingZeros64(word)
		}
	}
	panic("des: departure queue is empty")
}

// push schedules c's departure at c.end, which must not precede the last
// departure popped.
//
//sblint:hotpath
func (q *departures) push(c *Call) {
	t := c.end
	if t < q.last {
		panic("des: departure due before the last one dispatched (a negative Arrival.At or Dur, or a Source whose At goes backwards)")
	}
	q.file(c, t, q.bucket(t))
	if q.n == 0 || t < q.earliest {
		q.earliest = t
	}
	q.n++
}

// pop removes and returns the earliest departure, which must exist: the
// first-pushed of the calls due at the queue's minimum.
//
//sblint:hotpath
func (q *departures) pop() *Call {
	if q.head[0] == nil {
		q.refile(q.lowest())
	}
	c := q.head[0]
	q.head[0] = c.qnext
	c.qnext = nil
	q.n--
	if q.head[0] == nil {
		q.occupied[0] &^= 1
		if q.n > 0 {
			q.earliest = q.least[q.lowest()]
		}
	}
	return c
}

// refile advances last to bucket b's minimum, the queue's, and spreads b's
// calls over the lower buckets; those due at the new last land in bucket 0.
func (q *departures) refile(b int) {
	c := q.head[b]
	q.head[b] = nil
	q.occupied[b>>6] &^= 1 << (b & 63)
	q.last = q.least[b]
	for c != nil {
		next := c.qnext
		q.file(c, c.end, q.bucket(c.end))
		c = next
	}
}

// Fleet event kinds.
const (
	fleetFail uint8 = iota
	fleetSweep
	fleetRecover
)

// fleetEvent is a DC failure, detection sweep or recovery. The engine keeps
// them in a slice sorted by (at, push order): at most three per scheduled
// failure.
type fleetEvent struct {
	at   int64
	dc   int32
	kind uint8
}
