package des

// The engine keeps its pending events in three typed sources: the one
// pending arrival in a slot (sources pull one ahead), departures in a 4-ary
// heap, and DC failure, recovery and detection-sweep events in a short list.
// Its dispatch step merges them by (instant, class, push order). At an equal
// instant departures run first so capacity freed at t is visible to arrivals
// at t; fleet events run between, so a DC that fails at t rejects arrivals at
// t but still sees the departures that emptied it. The remaining ties, within
// a class, are FIFO (a departure's seq, a fleet event's place in the list) —
// never pointer values or map order.

// departure is one scheduled call end: 24 bytes, so a node's four children
// span 96 bytes.
type departure struct {
	at   int64 // virtual ns
	seq  uint64
	call *Call
}

func (d *departure) before(o *departure) bool {
	return d.at < o.at || d.at == o.at && d.seq < o.seq
}

// departures is a 4-ary min-heap ordered by (at, seq). The wider fan-out
// halves the sift depth of a binary heap and keeps a node's children in
// adjacent cache lines, which is what pop's cost is made of once the heap
// outgrows L2 (a peak-hour fleet holds ~10^5 in-flight calls). The heap
// shape does not affect determinism: (at, seq) is a strict total order, so
// every correct heap pops the identical sequence.
type departures []departure

// push schedules d. The sift-up moves displaced parents into the hole and
// writes d once at its final slot.
//
//sblint:hotpath
func (h *departures) push(d departure) {
	q := append(*h, d) //sblint:allowalloc(departure heap growth; amortized by NewEngine's preallocation)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !d.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = d
	*h = q
}

// pop removes the earliest departure, which must exist, and returns its
// call. The sift-down walks the displaced last element toward the leaves as
// a hole, comparing it against the least of each slot's four children.
//
//sblint:hotpath
func (h *departures) pop() *Call {
	q := *h
	call := q[0].call
	n := len(q) - 1
	last := q[n]
	q[n] = departure{} // release the call pointer
	q = q[:n]
	*h = q
	if n == 0 {
		return call
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best, end := first, min(first+4, n)
		for c := first + 1; c < end; c++ {
			if q[c].before(&q[best]) {
				best = c
			}
		}
		if !q[best].before(&last) {
			break
		}
		q[i] = q[best]
		i = best
	}
	q[i] = last
	return call
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
