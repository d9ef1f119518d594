package des

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"switchboard/internal/model"
)

// TestQueueOrdering pushes a shuffled schedule onto the departure heap and
// checks the drain order is exactly (at, seq): ties on at go to the earlier
// push.
func TestQueueOrdering(t *testing.T) {
	rng := NewStream(7, 99)
	var want []departure
	var h departures
	for i := 0; i < 5000; i++ {
		d := departure{at: int64(rng.Intn(64)), seq: uint64(i), call: &Call{id: uint64(i)}}
		want = append(want, d)
		h.push(d)
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].seq < want[j].seq
	})
	for i, d := range want {
		if len(h) == 0 {
			t.Fatalf("heap empty after %d pops, want %d", i, len(want))
		}
		at, seq := h[0].at, h[0].seq
		if c := h.pop(); at != d.at || seq != d.seq || c != d.call {
			t.Fatalf("pop %d = (%d,%d,call %d), want (%d,%d,call %d)",
				i, at, seq, c.id, d.at, d.seq, d.call.id)
		}
	}
	if len(h) != 0 {
		t.Fatalf("heap holds %d after draining", len(h))
	}
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
