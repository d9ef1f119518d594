package des

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"switchboard/internal/model"
)

// sliceSource replays a fixed arrival list over a config universe, and
// records every Next call made once closed is set.
type sliceSource struct {
	arr    []Arrival
	cfgs   []model.CallConfig
	pos    int
	nexts  int // Next calls; read only after Run returns, so the race detector checks the hand-off
	panics int // Next panics with fault when pos reaches it (0: never)
	fault  any
	closed atomic.Bool
	late   atomic.Int64
}

func (s *sliceSource) Configs() []model.CallConfig { return s.cfgs }

func (s *sliceSource) Next(a *Arrival) bool {
	if s.closed.Load() {
		s.late.Add(1)
	}
	s.nexts++
	if s.panics > 0 && s.pos == s.panics {
		panic(s.fault)
	}
	if s.pos >= len(s.arr) {
		return false
	}
	*a = s.arr[s.pos]
	s.pos++
	return true
}

// drawn returns the first n arrivals of src, over its config universe, as a
// fresh sliceSource.
func drawn(t *testing.T, src *SynthSource, n int) *sliceSource {
	t.Helper()
	s := &sliceSource{cfgs: src.Configs(), arr: make([]Arrival, n)}
	for i := range s.arr {
		if !src.Next(&s.arr[i]) {
			t.Fatalf("synthetic source ended at %d of %d", i, n)
		}
	}
	return s
}

// clone returns a fresh source over the same arrivals.
func (s *sliceSource) clone() *sliceSource {
	return &sliceSource{arr: s.arr, cfgs: s.cfgs, panics: s.panics, fault: s.fault}
}

// producerRunning reports whether any feed producer goroutine is alive.
func producerRunning() bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("(*feed).produce"))
}

// assertClosed marks src closed once its Run has returned, then checks that
// no producer outlives the Run and that src saw no Next call afterwards.
func assertClosed(t *testing.T, src *sliceSource) {
	t.Helper()
	src.closed.Store(true)
	deadline := time.Now().Add(2 * time.Second)
	for producerRunning() {
		if time.Now().After(deadline) {
			t.Fatal("a feed producer is still running after Run returned")
		}
		time.Sleep(time.Millisecond)
	}
	if n := src.late.Load(); n != 0 {
		t.Fatalf("Source.Next was called %d times after Run returned", n)
	}
}

// directRun drains e through RunUntil alone, which pulls the source on the
// caller's goroutine, and closes the trace as Run would.
func directRun(t *testing.T, e *Engine, tw *Trace) Result {
	t.Helper()
	res := e.RunUntil(math.MaxInt64)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunMatchesDirectPull: over eight seeds, with a DC failure and a
// sampled decision trace, Run (arrivals from the producer goroutine) and a
// run driven only by RunUntil (arrivals pulled inline) agree on the Result,
// the peaks and every trace byte. Each day spans several chunks.
func TestRunMatchesDirectPull(t *testing.T) {
	origin := time.Date(2022, 9, 5, 0, 0, 0, 0, time.UTC)
	for seed := int64(1); seed <= 8; seed++ {
		run := func(prefetch bool) (Result, []float64, []float64, []byte) {
			f, src := testRig(t, seed, 3*feedChunk+feedChunk/2, 1.1)
			var buf bytes.Buffer
			busiest := int32(0)
			for x := 1; x < f.NumDCs(); x++ {
				if f.CapCores[x] > f.CapCores[busiest] {
					busiest = int32(x)
				}
			}
			tw := NewTrace(&buf, seed, origin, 97)
			e, err := NewEngine(Config{
				Fleet: f, Source: src, Placement: PowerOfTwo{}, Seed: seed,
				Failover: FixedDetection{Delay: 45 * time.Second},
				Failures: []DCFailure{{DC: busiest, At: 10 * time.Hour, Recover: 12 * time.Hour}},
				Trace:    tw,
			})
			if err != nil {
				t.Fatal(err)
			}
			var res Result
			if prefetch {
				if res, err = e.Run(); err != nil {
					t.Fatal(err)
				}
			} else {
				res = directRun(t, e, tw)
			}
			cores, gbps := e.Peaks()
			return res, cores, gbps, buf.Bytes()
		}
		res, cores, gbps, trace := run(true)
		dres, dcores, dgbps, dtrace := run(false)
		if res != dres {
			t.Fatalf("seed %d: Result differs:\n Run:      %+v\n RunUntil: %+v", seed, res, dres)
		}
		if !reflect.DeepEqual(cores, dcores) || !reflect.DeepEqual(gbps, dgbps) {
			t.Fatalf("seed %d: peaks differ", seed)
		}
		if res.Migrated == 0 || res.TraceLines == 0 || !bytes.Equal(trace, dtrace) {
			t.Fatalf("seed %d: migrated %d, %d trace lines, traces equal %v", seed, res.Migrated, res.TraceLines, bytes.Equal(trace, dtrace))
		}
	}
}

// TestRunShortStreams: streams of 0, 1, one chunk and one chunk plus one
// arrival replay as they do pulled inline, Next is called once per arrival
// plus the final false, and no producer or Next call outlives Run.
func TestRunShortStreams(t *testing.T) {
	f, synth := testRig(t, 3, feedChunk+1, 1.25)
	all := drawn(t, synth, feedChunk+1)
	for _, n := range []int{0, 1, feedChunk, feedChunk + 1} {
		src := &sliceSource{arr: all.arr[:n], cfgs: all.cfgs}
		res, err := Run(Config{Fleet: f, Source: src, Placement: LowestACL{}, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		assertClosed(t, src)
		if src.nexts != n+1 {
			t.Errorf("%d arrivals: Next called %d times, want %d", n, src.nexts, n+1)
		}
		direct := src.clone()
		e, err := NewEngine(Config{Fleet: f, Source: direct, Placement: LowestACL{}, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if want := directRun(t, e, nil); res != want || res.Calls != uint64(n) {
			t.Errorf("%d arrivals: Run %+v, RunUntil %+v", n, res, want)
		}
	}
}

// TestRunAfterRunUntil: a Run that follows a split RunUntil starts the
// producer where the split left the source, and one that follows a drained
// RunUntil starts none and calls Next no more.
func TestRunAfterRunUntil(t *testing.T) {
	f, synth := testRig(t, 5, 2*feedChunk, 1.25)
	all := drawn(t, synth, 2*feedChunk)
	for _, split := range []time.Duration{6 * time.Hour, math.MaxInt64} {
		src := all.clone()
		e, err := NewEngine(Config{Fleet: f, Source: src, Placement: LowestACL{}, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		e.RunUntil(split)
		before := src.nexts
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		assertClosed(t, src)
		if res.Calls != uint64(len(all.arr)) || src.nexts != len(all.arr)+1 {
			t.Errorf("split %v: %d calls, %d Next calls (%d before Run), want %d and %d",
				split, res.Calls, src.nexts, before, len(all.arr), len(all.arr)+1)
		}
	}
}

// TestRunRaisesSourcePanic: a Source whose Next panics makes Run panic on
// the caller's goroutine with the same value, after dispatching exactly the
// arrivals an inline pull dispatches before the panic.
func TestRunRaisesSourcePanic(t *testing.T) {
	f, synth := testRig(t, 9, 2*feedChunk, 1.25)
	all := drawn(t, synth, 2*feedChunk)
	all.panics = feedChunk + 5
	all.fault = errors.New("source broke")
	raised := func(run func(*Engine)) (any, Result) {
		src := all.clone()
		e, err := NewEngine(Config{Fleet: f, Source: src, Placement: LowestACL{}, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		var v any
		func() {
			defer func() { v = recover() }()
			run(e)
		}()
		assertClosed(t, src)
		return v, e.result()
	}
	v, res := raised(func(e *Engine) { _, _ = e.Run() })
	dv, dres := raised(func(e *Engine) { e.RunUntil(math.MaxInt64) })
	if v != all.fault || dv != all.fault {
		t.Fatalf("Run panicked with %v, RunUntil with %v; want %v", v, dv, all.fault)
	}
	if res != dres || res.Calls != uint64(all.panics) {
		t.Fatalf("books at the panic: Run %+v, RunUntil %+v", res, dres)
	}
}

// TestRunRaisesBackwardsSource: the departure queue's panic on an arrival
// whose departure falls before the last one dispatched still reaches Run's
// caller, and stopping mid-stream leaves no producer behind.
func TestRunRaisesBackwardsSource(t *testing.T) {
	f, synth := testRig(t, 13, 3*feedChunk, 1.25)
	src := drawn(t, synth, 3*feedChunk)
	// Call 1 departs at 10m, before call 2 lands at 20m; call 3 then lands
	// at 1m, due to depart before 10m.
	src.arr[0] = Arrival{ID: 1, Dur: int64(10 * time.Minute)}
	src.arr[1] = Arrival{ID: 2, At: int64(20 * time.Minute)}
	src.arr[2] = Arrival{ID: 3, At: int64(time.Minute)}
	var v any
	func() {
		defer func() { v = recover() }()
		_, _ = Run(Config{Fleet: f, Source: src, Placement: LowestACL{}, Seed: 13})
	}()
	assertClosed(t, src)
	if msg, _ := v.(string); !strings.Contains(msg, "departure due before the last one dispatched") {
		t.Fatalf("Run panicked with %v, want the departure queue's backwards-source panic", v)
	}
}

// TestConcurrentRuns: engines running at once on separate goroutines each
// get their own producer and pooled chunks, and replay as they do alone.
func TestConcurrentRuns(t *testing.T) {
	const runs = 4
	cfgs := make([]Config, runs)
	want := make([]Result, runs)
	for i := range cfgs {
		seed := int64(40 + i%2)
		f, src := testRig(t, seed, 2*feedChunk+7, 1.25)
		alone := drawn(t, src, 2*feedChunk+7)
		cfgs[i] = Config{Fleet: f, Source: alone.clone(), Placement: LowestACL{}, Seed: seed}
		e, err := NewEngine(Config{Fleet: f, Source: alone, Placement: LowestACL{}, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = directRun(t, e, nil)
	}
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if res, err := Run(cfgs[i]); err != nil || res != want[i] {
				t.Errorf("run %d: %+v, %v; alone it gives %+v", i, res, err, want[i])
			}
		}(i)
	}
	wg.Wait()
}
