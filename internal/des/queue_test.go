package des

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"switchboard/internal/model"
)

// queueModel drives the departure queue under the engine's scheduling rule
// (no push due before the last pop) and checks every pop, and the cached
// minimum the engine peeks before it, against a sorted reference.
type queueModel struct {
	t    testing.TB
	q    departures
	ref  []*Call // pending calls, sorted by (end, id); id is push order
	last int64   // the last popped end
	ids  uint64
}

// push schedules a call due gap after the last pop, saturating at the
// largest instant, and returns the bucket the queue filed it in.
func (m *queueModel) push(gap uint64) int {
	at := int64(math.MaxInt64)
	if gap < uint64(math.MaxInt64-m.last) {
		at = m.last + int64(gap)
	}
	m.ids++
	c := &Call{id: m.ids, end: at}
	b := m.q.bucket(at)
	m.q.push(c)
	i := sort.Search(len(m.ref), func(i int) bool { return m.ref[i].end > at })
	m.ref = append(m.ref, nil)
	copy(m.ref[i+1:], m.ref[i:])
	m.ref[i] = c
	return b
}

// pop checks the queue's minimum and its next call against the reference.
func (m *queueModel) pop() {
	m.t.Helper()
	want := m.ref[0]
	m.ref = m.ref[1:]
	if m.q.earliest != want.end {
		m.t.Fatalf("queue peeks %d, want %d (call %d)", m.q.earliest, want.end, want.id)
	}
	if got := m.q.pop(); got != want {
		m.t.Fatalf("pop = call %d due %d, want call %d due %d", got.id, got.end, want.id, want.end)
	}
	if m.q.n != len(m.ref) {
		m.t.Fatalf("queue holds %d, want %d", m.q.n, len(m.ref))
	}
	m.last = want.end
}

func (m *queueModel) drain() {
	m.t.Helper()
	for len(m.ref) > 0 {
		m.pop()
	}
	if m.q.occupied != [4]uint64{} {
		m.t.Fatalf("drained queue still marks buckets %x occupied", m.q.occupied)
	}
}

// TestQueueOrdering interleaves seeded pushes and pops in rounds of 2,000
// operations that each start at instant 0 and end drained. A third of the
// pushes tie with the last pop, a third land up to 15ns later, and the rest
// a random gap of any 4-bit digit level later; the pushes must file at every
// digit level, and ties on the end instant pop in push order.
func TestQueueOrdering(t *testing.T) {
	rng := NewStream(7, 99)
	var levels uint32 // digit levels pushes were filed at, one bit each
	for round := 0; round < 25; round++ {
		m := &queueModel{t: t}
		for i := 0; i < 2000; i++ {
			if len(m.ref) > 0 && rng.Intn(2) == 0 {
				m.pop()
				continue
			}
			var gap uint64
			switch k := rng.Intn(6); {
			case k < 2:
			case k < 4:
				gap = uint64(rng.Intn(16))
			default:
				gap = rng.Uint64() >> (1 + 4*rng.Intn(16) + rng.Intn(4))
			}
			if b := m.push(gap); b != 0 {
				levels |= 1 << (b >> 4)
			}
		}
		m.drain()
	}
	if levels != 1<<16-1 {
		t.Fatalf("pushes filed at digit levels %016b, want all 16", levels)
	}
}

// FuzzDepartureQueue runs the model on byte-coded schedules: a byte with the
// top bit set pops (when anything is pending), any other pushes a gap of
// its low three bits shifted up its next four bits' digit levels; zero gaps
// are ties.
func FuzzDepartureQueue(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0x80, 0x80, 0x80})
	f.Add([]byte{1, 0x79, 0x7f, 0x39, 0x80, 0, 0x80, 0x80, 0x0a, 0x80})
	f.Add([]byte{0x7f, 0x7f, 0x7f, 0x80, 0x7f, 0x80, 0x80, 0x7f, 0x80})
	f.Add([]byte{0x0f, 0x17, 0x27, 0x37, 0x47, 0x57, 0x67, 0x77, 0x80, 0x80, 0x0f, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := &queueModel{t: t}
		for _, op := range ops {
			if op&0x80 != 0 {
				if len(m.ref) > 0 {
					m.pop()
				}
				continue
			}
			m.push(uint64(op&7) << (4 * (op >> 3 & 15)))
		}
		m.drain()
	})
}

// orderLog is a placement, release and failover policy that logs what the
// engine asks of it, in order.
type orderLog struct {
	LowestACL
	log []string
}

func (p *orderLog) Choose(f *Fleet, c int32, cands []int32, u *Usage, rng *Stream) int32 {
	p.log = append(p.log, fmt.Sprintf("place@%v", time.Duration(u.Now)))
	return p.LowestACL.Choose(f, c, cands, u, rng)
}

func (p *orderLog) Release(*Fleet, int32, int32, int64) { p.log = append(p.log, "depart") }

func (p *orderLog) DetectionDelay(int32, *Stream) time.Duration {
	p.log = append(p.log, "fail")
	return time.Minute
}

// TestQueuePriorities checks the merge at one instant: a departure, a DC
// failure and an arrival all due at 10m run departure, then fleet event,
// then arrival, although they were scheduled in the opposite order (the
// failure at engine construction, the departure at 0, the arrival last).
func TestQueuePriorities(t *testing.T) {
	f, src, dc := singleCandidateReplay(t, []*model.CallRecord{
		deFRCall(1, 0, 10*time.Minute),
		deFRCall(2, 10*time.Minute, 10*time.Minute),
	})
	p := &orderLog{}
	res, err := Run(Config{
		Fleet: f, Source: src, Placement: p, Failover: p,
		Failures: []DCFailure{{DC: dc, At: 10 * time.Minute}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The arrival at 10m still lands on the dead DC (detection is a minute
	// out), so the sweep at 11m migrates it.
	want := []string{"place@0s", "depart", "fail", "place@10m0s", "place@11m0s", "depart"}
	if fmt.Sprint(p.log) != fmt.Sprint(want) {
		t.Fatalf("dispatch order %v, want %v", p.log, want)
	}
	if res.Events != 6 || res.MaxQueueLen != 3 || res.DroppedEvents != 0 {
		t.Fatalf("queue audit: events %d, max pending %d, dropped %d; want 6/3/0",
			res.Events, res.MaxQueueLen, res.DroppedEvents)
	}
}

// TestStreamIndependence checks that distinct stream IDs from one seed
// produce distinct sequences, and identical (seed, id) replays exactly.
func TestStreamIndependence(t *testing.T) {
	a1 := NewStream(42, StreamWorkload)
	a2 := NewStream(42, StreamWorkload)
	b := NewStream(42, StreamPolicy)
	var sameAB bool
	for i := 0; i < 100; i++ {
		x := a1.Uint64()
		if y := a2.Uint64(); x != y {
			t.Fatalf("same (seed,id) diverged at draw %d: %d vs %d", i, x, y)
		}
		if x == b.Uint64() {
			sameAB = true
		}
	}
	if sameAB {
		t.Fatal("distinct stream IDs produced overlapping draws")
	}
	c := NewStream(43, StreamWorkload)
	d := NewStream(42, StreamWorkload)
	if c.Uint64() == d.Uint64() {
		t.Fatal("distinct seeds produced the same first draw")
	}
}

// TestStreamDistributions sanity-checks the derived draws.
func TestStreamDistributions(t *testing.T) {
	s := NewStream(1, StreamWorkload)
	var sum float64
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / 10000; mean < 0.45 || mean > 0.55 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
	var esum float64
	for i := 0; i < 10000; i++ {
		e := s.Exp(5)
		if e < 0 {
			t.Fatalf("Exp draw negative: %v", e)
		}
		esum += e
	}
	if mean := esum / 10000; mean < 4.5 || mean > 5.5 {
		t.Fatalf("Exp(5) mean = %v, want ~5", mean)
	}
}
