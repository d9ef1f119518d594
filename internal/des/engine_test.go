package des

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"switchboard/internal/geo"
	"switchboard/internal/model"
)

// testRig builds a 12-DC fleet over the default world with a synthetic
// workload, provisioned at headroom x the workload's expected peak.
func testRig(t *testing.T, seed int64, calls int, headroom float64) (*Fleet, *SynthSource) {
	t.Helper()
	w := geo.DefaultWorld()
	src, err := NewSynthSource(w, SynthConfig{Seed: seed, Calls: calls})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(w, src.Configs(), 120)
	if err != nil {
		t.Fatal(err)
	}
	cores, gbps := src.ExpectedPeakLoad(f)
	for i := range cores {
		cores[i] *= headroom
	}
	for i := range gbps {
		gbps[i] *= headroom
	}
	if err := f.SetCapacity(cores, gbps); err != nil {
		t.Fatal(err)
	}
	return f, src
}

// TestEngineConservation checks the run's books balance: every arrival is
// placed or rejected, every event is accounted for, and the queue drains.
func TestEngineConservation(t *testing.T) {
	f, src := testRig(t, 11, 20000, 1.25)
	res, err := Run(Config{Fleet: f, Source: src, Placement: LowestACL{}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Calls != 20000 {
		t.Fatalf("Calls = %d, want 20000", res.Calls)
	}
	if res.Placed+res.Rejected != res.Calls {
		t.Fatalf("Placed(%d)+Rejected(%d) != Calls(%d)", res.Placed, res.Rejected, res.Calls)
	}
	if res.Rejected != 0 {
		t.Fatalf("nil admission rejected %d calls", res.Rejected)
	}
	if res.DroppedEvents != 0 {
		t.Fatalf("DroppedEvents = %d, want 0", res.DroppedEvents)
	}
	// Each placed call is one arrival + one departure.
	if want := 2 * res.Placed; res.Events != want {
		t.Fatalf("Events = %d, want %d", res.Events, want)
	}
	if res.PeakConcurrent <= 0 || res.MeanACLms <= 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
	if res.RegretMeanMs < 0 {
		t.Fatalf("negative regret %v", res.RegretMeanMs)
	}
	// Lazy arrival generation: queue depth tracks concurrency, not calls.
	if res.MaxQueueLen >= 20000/2 {
		t.Fatalf("MaxQueueLen = %d; arrivals are not being generated lazily", res.MaxQueueLen)
	}
}

// TestEnginePoliciesDiffer runs the same workload under all built-in
// policies; they must agree on the books and disagree on behavior.
func TestEnginePoliciesDiffer(t *testing.T) {
	// Tight capacity so load-aware policies actually deviate.
	f, _ := testRig(t, 13, 20000, 0.6)
	regret := map[string]float64{}
	for _, name := range []string{"lowest-acl", "least-loaded", "power-of-two", "best-fit"} {
		p, ok := PlacementByName(name)
		if !ok {
			t.Fatalf("unknown policy %q", name)
		}
		src2, err := NewSynthSource(f.World, SynthConfig{Seed: 13, Calls: 20000})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{Fleet: f, Source: src2, Placement: p, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		if res.Placed != res.Calls || res.DroppedEvents != 0 {
			t.Fatalf("%s: bad books %+v", name, res)
		}
		regret[name] = res.RegretMeanMs
	}
	if regret["lowest-acl"] >= regret["least-loaded"] {
		t.Fatalf("lowest-acl regret (%v) should be below least-loaded (%v)",
			regret["lowest-acl"], regret["least-loaded"])
	}
}

// TestEngineAdmissionGate checks CapacityGate rejects when nothing fits.
func TestEngineAdmissionGate(t *testing.T) {
	f, src := testRig(t, 17, 20000, 0.2) // severely under-provisioned
	res, err := Run(Config{Fleet: f, Source: src, Placement: LowestACL{}, Admission: CapacityGate{}, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Fatal("under-provisioned fleet rejected nothing")
	}
	if res.Overflowed != 0 {
		t.Fatalf("gated run overflowed %d placements", res.Overflowed)
	}
	if res.Placed+res.Rejected != res.Calls {
		t.Fatalf("books: %+v", res)
	}
}

// TestEngineFailover fails a DC mid-run and checks calls migrate, the
// disruption accounting moves with the detection delay, and the DC takes
// traffic again after recovery.
func TestEngineFailover(t *testing.T) {
	run := func(detect time.Duration) Result {
		f, src := testRig(t, 19, 30000, 1.25)
		// Fail the busiest DC mid-morning, recover it two hours later.
		failures := []DCFailure{{DC: 0, At: 9 * time.Hour, Recover: 11 * time.Hour}}
		res, err := Run(Config{
			Fleet: f, Source: src, Placement: LowestACL{},
			Failover: FixedDetection{Delay: detect},
			Failures: failures, Seed: 19,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast := run(5 * time.Second)
	slow := run(5 * time.Minute)
	if fast.Migrated == 0 {
		t.Fatal("no calls migrated off the failed DC")
	}
	if fast.DroppedEvents != 0 || slow.DroppedEvents != 0 {
		t.Fatalf("dropped events: fast=%d slow=%d", fast.DroppedEvents, slow.DroppedEvents)
	}
	if fast.DisruptedCallSeconds <= 0 {
		t.Fatal("no disruption recorded")
	}
	// Slower detection strictly increases per-call outage time.
	fastPer := fast.DisruptedCallSeconds / float64(fast.Migrated)
	slowPer := slow.DisruptedCallSeconds / float64(slow.Migrated)
	if slowPer <= fastPer {
		t.Fatalf("per-call disruption: slow detection %v <= fast %v", slowPer, fastPer)
	}
}

// TestEngineTraceCounts checks sampling arithmetic and that tracing does not
// perturb the simulation outcome.
func TestEngineTraceCounts(t *testing.T) {
	f, src := testRig(t, 23, 5000, 1.25)
	var buf bytes.Buffer
	tw := NewTrace(&buf, 23, time.Date(2022, 9, 5, 0, 0, 0, 0, time.UTC), 100)
	traced, err := Run(Config{Fleet: f, Source: src, Placement: LowestACL{}, Seed: 23, Trace: tw})
	if err != nil {
		t.Fatal(err)
	}
	if traced.TraceLines == 0 || buf.Len() == 0 {
		t.Fatal("no trace emitted")
	}
	src2, err := NewSynthSource(f.World, SynthConfig{Seed: 23, Calls: 5000})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(Config{Fleet: f, Source: src2, Placement: LowestACL{}, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	plain.TraceLines = traced.TraceLines
	if traced != plain {
		t.Fatalf("tracing changed the outcome:\n traced: %+v\n plain:  %+v", traced, plain)
	}
}

// TestRecordSourceReplay drives the engine from explicit call records and
// checks the replay books balance and virtual times anchor at the earliest
// record.
func TestRecordSourceReplay(t *testing.T) {
	w := geo.DefaultWorld()
	origin := time.Date(2022, 9, 5, 0, 0, 0, 0, time.UTC)
	var recs []*model.CallRecord
	for i := 0; i < 64; i++ {
		country := w.Countries()[i%len(w.Countries())].Code
		recs = append(recs, &model.CallRecord{
			ID:       uint64(100 + i),
			Start:    origin.Add(time.Duration(i) * time.Minute),
			Duration: time.Duration(5+i%10) * time.Minute,
			Legs: []model.LegRecord{
				{Country: country, Media: model.Video},
				{Country: country, Media: model.Audio},
			},
		})
	}
	src, err := NewRecordSource(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !src.Origin().Equal(origin) {
		t.Fatalf("Origin = %v, want %v", src.Origin(), origin)
	}
	f, err := NewFleet(w, src.Configs(), 120)
	if err != nil {
		t.Fatal(err)
	}
	cores := make([]float64, f.NumDCs())
	for i := range cores {
		cores[i] = 100
	}
	if err := f.SetCapacity(cores, make([]float64, len(f.CapGbps))); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Fleet: f, Source: src, Placement: LowestACL{}, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	if res.Calls != 64 || res.Placed != 64 || res.DroppedEvents != 0 {
		t.Fatalf("replay books: %+v", res)
	}
	if res.RegretMeanMs != 0 {
		t.Fatalf("lowest-acl with slack capacity should have zero regret, got %v", res.RegretMeanMs)
	}
}

// TestRecordSourceNegativeDuration checks that a hand-built record set with
// a call ending before it starts is refused, not replayed with the clock
// running backwards.
func TestRecordSourceNegativeDuration(t *testing.T) {
	recs := []*model.CallRecord{
		deFRCall(1, 0, time.Minute),
		deFRCall(2, time.Minute, -time.Second),
	}
	if _, err := NewRecordSource(recs); err == nil || !strings.Contains(err.Error(), "record 2 has negative duration") {
		t.Fatalf("NewRecordSource = %v, want a negative-duration error for record 2", err)
	}
	recs[1].Duration = 0
	if _, err := NewRecordSource(recs); err != nil {
		t.Fatalf("a zero-length call is valid: %v", err)
	}
}

// singleCandidateRig replays calls of one config whose only candidate is DC
// dc (a zero latency threshold leaves each config its lowest-ACL DC alone):
// n calls from t=0 and n more from t=20m, all an hour long, with 100 cores
// everywhere.
func singleCandidateRig(t *testing.T, n int) (*Fleet, *RecordSource, int32) {
	t.Helper()
	var recs []*model.CallRecord
	for i := 0; i < 2*n; i++ {
		start := time.Duration(i) * time.Minute
		if i >= n {
			start = 20*time.Minute + time.Duration(i)*time.Second
		}
		recs = append(recs, deFRCall(uint64(i+1), start, time.Hour))
	}
	return singleCandidateReplay(t, recs)
}

// deFRCall is a DE-FR video call starting at start past the rig's origin.
func deFRCall(id uint64, start, dur time.Duration) *model.CallRecord {
	return &model.CallRecord{
		ID: id, Start: time.Date(2022, 9, 5, 0, 0, 0, 0, time.UTC).Add(start), Duration: dur,
		Legs: []model.LegRecord{{Country: "DE", Media: model.Video}, {Country: "FR", Media: model.Video}},
	}
}

// singleCandidateReplay builds singleCandidateRig's fleet for recs, which
// must all be deFRCalls.
func singleCandidateReplay(t *testing.T, recs []*model.CallRecord) (*Fleet, *RecordSource, int32) {
	t.Helper()
	src, err := NewRecordSource(recs)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(geo.DefaultWorld(), src.Configs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cores := make([]float64, f.NumDCs())
	for i := range cores {
		cores[i] = 100
	}
	if err := f.SetCapacity(cores, make([]float64, len(f.CapGbps))); err != nil {
		t.Fatal(err)
	}
	if len(f.Candidates(0)) != 1 {
		t.Fatalf("config has %d candidates, want 1", len(f.Candidates(0)))
	}
	return f, src, f.Candidates(0)[0]
}

// TestEngineOnlyCandidateFails fails a config's only candidate: the sweep
// must move its calls to the lowest-ACL surviving DC, and later arrivals
// must follow them there rather than land on the dead DC.
func TestEngineOnlyCandidateFails(t *testing.T) {
	const n = 4
	f, src, dead := singleCandidateRig(t, n)
	e, err := NewEngine(Config{
		Fleet: f, Source: src, Placement: LowestACL{},
		Failover: FixedDetection{Delay: 30 * time.Second},
		Failures: []DCFailure{{DC: dead, At: 10 * time.Minute}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrated != n {
		t.Fatalf("migrated %d calls, want %d", res.Migrated, n)
	}
	one := f.Cores(0)
	peaks, _ := e.Peaks()
	if got := peaks[dead]; math.Abs(got-n*one) > 1e-9 {
		t.Errorf("dead DC peaked at %g cores, want the %d pre-failure calls' %g", got, n, n*one)
	}
	survivor := f.order[0][1]
	if got := peaks[survivor]; math.Abs(got-2*n*one) > 1e-9 {
		t.Errorf("lowest-ACL survivor %d peaked at %g cores, want all %d calls' %g", survivor, got, 2*n, 2*n*one)
	}
	if want := f.ACL(0, survivor); res.MigratedACLms != want {
		t.Errorf("migrations landed at ACL %g, want the survivor's %g", res.MigratedACLms, want)
	}
}

// TestEngineMaxCoreUtilFloor checks a DC provisioned below one core — an LP
// plan's residue — is left out of MaxCoreUtil instead of reporting a ratio
// near 1e15, while its load still shows in the peaks.
func TestEngineMaxCoreUtilFloor(t *testing.T) {
	run := func(capacity float64) (Result, float64) {
		f, src, dc := singleCandidateRig(t, 4)
		f.CapCores[dc] = capacity
		e, err := NewEngine(Config{Fleet: f, Source: src, Placement: LowestACL{}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		peaks, _ := e.Peaks()
		return res, peaks[dc]
	}
	res, peak := run(1e-15)
	if res.MaxCoreUtil != 0 {
		t.Errorf("MaxCoreUtil = %g over a residue-capacity DC, want 0", res.MaxCoreUtil)
	}
	if peak <= 0 || res.Overflowed != res.Calls {
		t.Errorf("residue DC peak %g, overflowed %d of %d", peak, res.Overflowed, res.Calls)
	}
	if res, peak = run(1); res.MaxCoreUtil != peak {
		t.Errorf("MaxCoreUtil = %g at one core, want the DC's peak %g", res.MaxCoreUtil, peak)
	}
}

// TestEngineRunUntil splits a run at a failure: the snapshot counts only
// arrivals processed before the split, and continuing to the end gives the
// same books as an unsplit run.
func TestEngineRunUntil(t *testing.T) {
	run := func(split time.Duration) (Result, Result) {
		f, src := testRig(t, 31, 20000, 1.25)
		e, err := NewEngine(Config{
			Fleet: f, Source: src, Placement: LowestACL{}, Seed: 31,
			Failures: []DCFailure{{DC: 0, At: 9 * time.Hour, Recover: 11 * time.Hour}},
		})
		if err != nil {
			t.Fatal(err)
		}
		var before Result
		if split > 0 {
			before = e.RunUntil(split)
		}
		after, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return before, after
	}
	_, whole := run(0)
	before, after := run(9 * time.Hour)
	if whole != after {
		t.Fatalf("split run diverged:\n whole: %+v\n split: %+v", whole, after)
	}
	// Count arrivals before the split straight from the source.
	_, src := testRig(t, 31, 20000, 1.25)
	var a Arrival
	var want uint64
	for src.Next(&a) && a.At < int64(9*time.Hour) {
		want++
	}
	if before.Calls != want || before.Migrated != 0 {
		t.Errorf("snapshot: calls %d migrated %d, want %d/0", before.Calls, before.Migrated, want)
	}
}
