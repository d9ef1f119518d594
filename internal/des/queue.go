package des

// Event priorities at an equal instant. Departures run first so capacity
// freed at time t is visible to arrivals at t; fleet events (failure,
// recovery, detection sweeps) run between, so a DC that fails at t rejects
// arrivals at t but still sees the departures that emptied it.
const (
	PriDepart uint8 = iota
	PriFleet
	PriArrive
)

// Event kinds. Arrivals and departures carry a Call; fleet events carry a DC.
const (
	KindArrive uint8 = iota
	KindDepart
	KindDCFail
	KindDCRecover
	KindSweep
)

// Event is one scheduled occurrence. The total order is (At, Pri, Seq):
// virtual time first, then the priority class, then the stable sequence
// number the producer assigned — never pointer values or map order.
type Event struct {
	// At is virtual nanoseconds since the run origin.
	At int64
	// Seq breaks ties deterministically; the engine assigns push order.
	Seq uint64
	Pri uint8
	// Kind selects the payload field below.
	Kind uint8
	// DC is the datacenter a fleet event concerns.
	DC int32
	// Call is the arrival/departure payload.
	Call *Call
}

// Queue is a 4-ary min-heap of events. The wider fan-out halves the sift
// depth of a binary heap and keeps a node's children in adjacent cache
// lines, which is what Pop's cost is made of once the pending set outgrows
// L2 (a peak-hour fleet holds ~10^5 in-flight calls). The heap shape does
// not affect determinism: (At, Pri, Seq) is a strict total order, so every
// correct heap pops the identical sequence. Not safe for concurrent use: a
// simulation is single-threaded by design (the shared clock is the whole
// point), and the engine's throughput target rules out locking.
type Queue struct {
	heap    []Event
	pushed  uint64
	popped  uint64
	maxSeen int
}

// NewQueue returns a queue with capacity pre-allocated for about n events.
func NewQueue(n int) *Queue {
	if n < 16 {
		n = 16
	}
	return &Queue{heap: make([]Event, 0, n)}
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// Pushed and Popped count lifetime traffic; their difference minus Len is
// the engine's dropped-event check (zero on a clean drain).
func (q *Queue) Pushed() uint64 { return q.pushed }

// Popped returns how many events have been popped.
func (q *Queue) Popped() uint64 { return q.popped }

// MaxLen returns the high-water mark of pending events.
func (q *Queue) MaxLen() int { return q.maxSeen }

// eventLess orders events by (At, Pri, Seq).
func eventLess(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Pri != b.Pri {
		return a.Pri < b.Pri
	}
	return a.Seq < b.Seq
}

// less orders heap slots i and j.
func (q *Queue) less(i, j int) bool {
	return eventLess(&q.heap[i], &q.heap[j])
}

// Push schedules ev. The sift-up moves displaced parents into the hole and
// writes ev once at its final slot — per level that is one 32-byte store
// instead of a three-way swap's two, which matters when the heap has
// outgrown cache.
//
//sblint:hotpath
func (q *Queue) Push(ev Event) {
	q.pushed++
	q.heap = append(q.heap, ev) //sblint:allowalloc(event queue growth; amortized by NewQueue preallocation)
	if len(q.heap) > q.maxSeen {
		q.maxSeen = len(q.heap)
	}
	// Sift up (hole insertion).
	i := len(q.heap) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(&ev, &q.heap[parent]) {
			break
		}
		q.heap[i] = q.heap[parent]
		i = parent
	}
	q.heap[i] = ev
}

// Pop removes and returns the earliest event; ok is false on an empty queue.
// The sift-down walks the displaced last element toward the leaves as a hole,
// comparing it against the least of each slot's four children directly.
//
//sblint:hotpath
func (q *Queue) Pop() (ev Event, ok bool) {
	n := len(q.heap)
	if n == 0 {
		return Event{}, false
	}
	q.popped++
	ev = q.heap[0]
	n--
	last := q.heap[n]
	q.heap[n] = Event{} // release payload pointers
	q.heap = q.heap[:n]
	if n == 0 {
		return ev, true
	}
	// Sift down (hole insertion).
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		end := first + 4
		if end > n {
			end = n
		}
		best := first
		for c := first + 1; c < end; c++ {
			if q.less(c, best) {
				best = c
			}
		}
		if !eventLess(&q.heap[best], &last) {
			break
		}
		q.heap[i] = q.heap[best]
		i = best
	}
	q.heap[i] = last
	return ev, true
}
