// Facade-level integration tests: everything here uses only the public
// switchboard API, exactly as a downstream user would.
package switchboard_test

import (
	"bytes"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"switchboard"
)

var (
	pipeOnce sync.Once
	pipe     struct {
		world *switchboard.World
		db    *switchboard.RecordsDB
		recs  []*switchboard.CallRecord
		in    *switchboard.ProvisionInputs
		lm    *switchboard.LoadModel
		plan  *switchboard.Plan
		alloc *switchboard.AllocationPlan
		err   error
	}
)

// buildPipeline runs the full public-API pipeline once and caches it.
func buildPipeline(t *testing.T) {
	t.Helper()
	pipeOnce.Do(func() {
		pipe.world = switchboard.DefaultWorld()
		tc := switchboard.DefaultTraceConfig()
		tc.Days = 1
		tc.CallsPerDay = 1200
		gen, err := switchboard.NewGenerator(tc)
		if err != nil {
			pipe.err = err
			return
		}
		pipe.db = switchboard.NewRecordsDB(tc.Start, pipe.world)
		gen.EachCall(func(r *switchboard.CallRecord) bool {
			pipe.db.Add(r)
			pipe.recs = append(pipe.recs, r)
			return true
		})
		pipe.in = &switchboard.ProvisionInputs{
			World:              pipe.world,
			Latency:            pipe.db.Estimator(15),
			Demand:             pipe.db.PeakEnvelope(15),
			LatencyThresholdMs: 120,
			WithBackup:         true,
			SlotStride:         8,
		}
		if pipe.lm, pipe.err = switchboard.NewLoadModel(pipe.in); pipe.err != nil {
			return
		}
		if pipe.plan, pipe.err = switchboard.Provision(pipe.in); pipe.err != nil {
			return
		}
		pipe.alloc, pipe.err = switchboard.BuildAllocationPlan(pipe.lm, pipe.plan.Cores, pipe.plan.LinkGbps)
	})
	if pipe.err != nil {
		t.Fatal(pipe.err)
	}
}

func TestPublicPipelineEndToEnd(t *testing.T) {
	buildPipeline(t)
	if pipe.db.TotalCalls() == 0 {
		t.Fatal("no calls ingested")
	}
	if pipe.plan.TotalCores() <= 0 || pipe.plan.TotalGbps() <= 0 {
		t.Fatalf("degenerate plan: %g cores %g Gbps", pipe.plan.TotalCores(), pipe.plan.TotalGbps())
	}
	if pipe.plan.Cost(pipe.world) <= 0 {
		t.Fatal("zero cost")
	}
	if pipe.alloc.MeanACL <= 0 || pipe.alloc.MeanACL > 120 {
		t.Fatalf("plan mean ACL %g", pipe.alloc.MeanACL)
	}
	// The three schemes keep the Table 3 cost ordering through the facade.
	rr, err := switchboard.ProvisionRoundRobin(pipe.in)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := switchboard.ProvisionLocalityFirst(pipe.in)
	if err != nil {
		t.Fatal(err)
	}
	if pipe.plan.Cost(pipe.world) > lf.Cost(pipe.world)*1.001 ||
		lf.Cost(pipe.world) > rr.Cost(pipe.world) {
		t.Errorf("cost ordering violated: sb=%g lf=%g rr=%g",
			pipe.plan.Cost(pipe.world), lf.Cost(pipe.world), rr.Cost(pipe.world))
	}
}

func TestPublicControllerFlow(t *testing.T) {
	buildPipeline(t)
	srv := switchboard.NewKVServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	kv, err := switchboard.DialKV(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()

	est := pipe.db.Estimator(15)
	aclOf := func(cfg switchboard.CallConfig, dc int) float64 { return est.ACL(cfg, dc) }
	ctrl, err := switchboard.NewController(switchboard.ControllerConfig{
		World:  pipe.world,
		Placer: switchboard.NewPlanPlacer(pipe.lm.Demand().Configs, pipe.alloc.Alloc, aclOf, len(pipe.world.DCs())),
		Store:  kv,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := switchboard.BuildEvents(pipe.recs[:200], ctrl.Freeze())
	stats, err := ctrl.Replay(events)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Started == 0 || stats.Ended != stats.Started {
		t.Fatalf("stats = %+v", stats)
	}
	if srv.OpsServed() == 0 {
		t.Error("controller never wrote to the store")
	}
}

func TestPublicForecasting(t *testing.T) {
	buildPipeline(t)
	top := pipe.db.TopConfigs(1)
	if len(top) == 0 {
		t.Fatal("no configs")
	}
	m, err := switchboard.FitForecastAuto(top[0].Counts, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := m.Forecast(8)
	if len(f) != 8 {
		t.Fatal("bad horizon")
	}
	acc, err := switchboard.EvaluateForecast(f, f)
	if err != nil || acc.RMSE != 0 {
		t.Fatalf("self-comparison RMSE %g, %v", acc.RMSE, err)
	}
}

func TestPublicWorldRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := switchboard.WriteWorld(&buf, switchboard.DefaultWorld()); err != nil {
		t.Fatal(err)
	}
	back, err := switchboard.ReadWorld(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.DCs()) != len(switchboard.DefaultWorld().DCs()) {
		t.Fatal("world round trip lost DCs")
	}
}

func TestPublicBackupHelpers(t *testing.T) {
	bk, err := switchboard.DefaultBackup([]float64{100, 110, 110})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, b := range bk {
		total += b
	}
	if math.Abs(total-160) > 1e-6 {
		t.Errorf("backup total %g, want 160", total)
	}
	caps, err := switchboard.PeakAwareBackup([][]float64{
		{100, 60, 20}, {30, 110, 60}, {20, 40, 110},
	})
	if err != nil {
		t.Fatal(err)
	}
	total = 0
	for _, c := range caps {
		total += c
	}
	if math.Abs(total-320) > 1e-6 {
		t.Errorf("peak-aware total %g, want 320", total)
	}
}

func TestPublicConfigHelpers(t *testing.T) {
	cfg := switchboard.CallConfig{
		Spread: switchboard.NewSpread(map[switchboard.CountryCode]int{"IN": 2, "JP": 1}),
		Media:  switchboard.Video,
	}
	back, err := switchboard.ParseConfigKey(cfg.Key())
	if err != nil || back.Key() != cfg.Key() {
		t.Fatalf("round trip: %v %v", back.Key(), err)
	}
	if cfg.Participants() != 3 {
		t.Error("participants wrong")
	}
}

func TestPublicEventsAndThroughput(t *testing.T) {
	buildPipeline(t)
	events := switchboard.BuildEvents(pipe.recs[:100], 300*time.Second)
	if len(events) == 0 {
		t.Fatal("no events")
	}
	srv := switchboard.NewKVServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	client, err := switchboard.DialKV(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctrl, err := switchboard.NewController(switchboard.ControllerConfig{World: pipe.world, Store: client})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	stats, err := ctrl.Replay(events)
	if err != nil {
		t.Fatal(err)
	}
	if perSec := float64(len(events)) / time.Since(start).Seconds(); perSec <= 0 || stats.Ended == 0 {
		t.Fatalf("replayed %d events at %g ev/s: %+v", len(events), perSec, stats)
	}
	// Without a placer every event is one call-state write.
	if got := srv.OpsServed(); got != int64(len(events)) {
		t.Errorf("store served %d commands for %d events", got, len(events))
	}
}
