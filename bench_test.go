// Benchmarks regenerating every table and figure of the paper (see
// DESIGN.md's per-experiment index). Each BenchmarkTableN/BenchmarkFigN
// wraps the corresponding experiment at a reduced, fixed scale so
// `go test -bench=. -benchmem` completes in minutes; cmd/sbexp runs the same
// experiments at the full default scale.
package switchboard_test

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"switchboard"
	"switchboard/internal/controller"
	"switchboard/internal/eval"
	"switchboard/internal/kvstore"
	"switchboard/internal/kvstore/replica"
	"switchboard/internal/lp"
	"switchboard/internal/model"
	"switchboard/internal/obs"
	"switchboard/internal/obs/span"
	"switchboard/internal/provision"
)

// benchEnv is shared across benchmarks; building it (trace generation and
// ingestion) is itself measured by BenchmarkEnvBuild.
var (
	benchOnce sync.Once
	benchVal  *eval.Env
	benchErr  error
)

func benchConfig() eval.Config {
	return eval.Config{
		Seed:               1,
		TrainDays:          15, // two Holt-Winters seasons + one day
		EvalDays:           1,
		CallsPerDay:        1500,
		TopConfigs:         12,
		SlotStride:         8,
		LatencyThresholdMs: 120,
		MinLatencySamples:  15,
		KeepEvalRecords:    true,
	}
}

func benchEnv(b *testing.B) *eval.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchVal, benchErr = eval.NewEnv(benchConfig())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchVal
}

// BenchmarkCorePlacement measures the controller's in-memory placement hot
// path (CallStarted + CallEnded, no store attached) with metrics and tracing
// enabled — the latency floor every realtime request pays before any
// persistence, production-shaped. cmd/sbbench runs the same loop to emit
// BENCH_core.json.
func BenchmarkCorePlacement(b *testing.B) {
	reg := obs.NewRegistry()
	tracer := span.NewTracer(1, span.NewRing(span.DefaultRingCapacity))
	ctrl, err := switchboard.NewController(switchboard.ControllerConfig{
		World:   switchboard.DefaultWorld(),
		Metrics: controller.NewMetrics(reg),
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx, root := tracer.Start(context.Background(), "bench")
	defer root.End()
	now := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i + 1)
		if _, err := ctrl.CallStarted(ctx, id, "JP", now); err != nil {
			b.Fatal(err)
		}
		if err := ctrl.CallEnded(ctx, id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreKVRoundTrip measures one kvstore HSET over loopback TCP — the
// synchronous store write on the controller's persistence path.
func BenchmarkCoreKVRoundTrip(b *testing.B) {
	srv := switchboard.NewKVServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer func() { _ = srv.Close() }()
	client, err := switchboard.DialKV(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.HSet("call:1", "state", "active"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnvBuild measures the trace-generation + ingestion pipeline that
// feeds every experiment.
func BenchmarkEnvBuild(b *testing.B) {
	cfg := benchConfig()
	cfg.TrainDays, cfg.EvalDays = 2, 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eval.NewEnv(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1MediaLoads regenerates Table 1 (trivially cheap; included
// for completeness of the per-experiment index).
func BenchmarkTable1MediaLoads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, m := range model.MediaTypes() {
			_ = m.ComputeLoad()
			_ = m.NetworkLoad()
		}
	}
}

// BenchmarkFig3DemandPeaks regenerates the time-shifted per-country demand
// series.
func BenchmarkFig3DemandPeaks(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.Fig3(env)
		if len(res.Series) != 3 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkFig4PeakAwareToy regenerates the §4.2 worked example (two LPs).
func BenchmarkFig4PeakAwareToy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.Fig4()
		if err != nil || res.PeakAwareTotal != 320 {
			b.Fatalf("res=%+v err=%v", res, err)
		}
	}
}

// BenchmarkFig7aForecast regenerates the top-config forecast.
func BenchmarkFig7aForecast(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Fig7a(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7bGrowth regenerates the per-config growth rates.
func BenchmarkFig7bGrowth(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Fig7b(env, 15); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7cCoverage regenerates the top-N coverage curve.
func BenchmarkFig7cCoverage(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := eval.Fig7c(env); res.Distinct == 0 {
			b.Fatal("no configs")
		}
	}
}

// BenchmarkTable3Provisioning regenerates the headline comparison (six
// provisioning runs, including the Switchboard scenario LPs with backup).
func BenchmarkTable3Provisioning(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Table3(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4ForecastDelta regenerates the forecast-vs-truth deltas
// (twelve provisioning runs plus per-config forecasting).
func BenchmarkTable4ForecastDelta(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Table4(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8JoinCDF regenerates the participant join-time CDF.
func BenchmarkFig8JoinCDF(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := eval.Fig8(env); res.At300s == 0 {
			b.Fatal("empty CDF")
		}
	}
}

// BenchmarkMigrationRate regenerates the §6.4 migration comparison (plan
// build + two full controller replays).
func BenchmarkMigrationRate(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Migration(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9ForecastCDF regenerates the per-config forecast error CDF.
func BenchmarkFig9ForecastCDF(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Fig9(env, env.Cfg.TopConfigs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10ControllerThroughput regenerates one Fig 10 sweep point
// (4 worker threads against the simulated cloud store).
func BenchmarkFig10ControllerThroughput(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Fig10(env, []int{4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMOMCPredictor regenerates the §8 predictor comparison.
func BenchmarkMOMCPredictor(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Predict(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationJoint regenerates the §4.3 joint-vs-compute-only ablation.
func BenchmarkAblationJoint(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.AblationJoint(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBackup regenerates the §4.2 peak-aware-vs-default-backup
// ablation.
func BenchmarkAblationBackup(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.AblationBackup(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimFidelity regenerates the call-level replay validation.
func BenchmarkSimFidelity(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.SimFidelity(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFailureDrill regenerates the DC-failure drill (backup vs
// serving-only plans under a mid-day DC loss).
func BenchmarkFailureDrill(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Drill(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictiveMigration regenerates the §8 predictive-placement
// extension experiment.
func BenchmarkPredictiveMigration(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.PredictiveMigration(env); err != nil {
			b.Fatal(err)
		}
	}
}

// provisioningLP builds one F0-scenario-sized provisioning problem for the
// simplex ablation benchmarks.
func provisioningLP(env *eval.Env) (*lp.Problem, error) {
	demand := env.EvalDB.PeakEnvelope(env.Cfg.TopConfigs)
	in := &provision.Inputs{
		World:              env.World,
		Latency:            env.Est,
		Demand:             demand,
		LatencyThresholdMs: env.Cfg.LatencyThresholdMs,
		SlotStride:         env.Cfg.SlotStride,
	}
	lm, err := provision.NewLoadModel(in)
	if err != nil {
		return nil, err
	}
	// Rebuild the LP the way solveScenario does, via the public pieces:
	// a min-cost assignment with per-DC and per-link peaks.
	w := env.World
	p := lp.New(lp.Minimize)
	cp := make([]int, len(w.DCs()))
	for x := range cp {
		cp[x] = p.AddVar("CP", w.DCs()[x].CoreCost)
	}
	np := make([]int, len(w.Links()))
	for l := range np {
		np[l] = p.AddVar("NP", w.Links()[l].CostPerGbps)
	}
	d := lm.Demand()
	for t := range d.Counts {
		type acc struct {
			cols []int
			vals []float64
		}
		cpu := make([]acc, len(cp))
		net := make([]acc, len(np))
		for c, dem := range d.Counts[t] {
			if dem <= 0 {
				continue
			}
			var rowCols []int
			var rowVals []float64
			for _, x := range lm.Allowed(c) {
				v := p.AddVar("S", 0)
				rowCols = append(rowCols, v)
				rowVals = append(rowVals, 1)
				cpu[x].cols = append(cpu[x].cols, v)
				cpu[x].vals = append(cpu[x].vals, lm.ComputeLoad(c))
				for _, ll := range lm.LinkLoads(c, x) {
					net[ll.Link].cols = append(net[ll.Link].cols, v)
					net[ll.Link].vals = append(net[ll.Link].vals, ll.Gbps)
				}
			}
			p.AddRow("demand", rowCols, rowVals, lp.EQ, dem)
		}
		for x := range cpu {
			if len(cpu[x].cols) > 0 {
				p.AddRow("cpu", append(cpu[x].cols, cp[x]), append(cpu[x].vals, -1), lp.LE, 0)
			}
		}
		for l := range net {
			if len(net[l].cols) > 0 {
				p.AddRow("net", append(net[l].cols, np[l]), append(net[l].vals, -1), lp.LE, 0)
			}
		}
	}
	return p, nil
}

// BenchmarkSimplexRevised solves the provisioning-shaped LP with the
// revised simplex, the only solver (ablation A1; internal/lp's
// BenchmarkDenseOracleShaped times the dense tableau it replaced).
func BenchmarkSimplexRevised(b *testing.B) {
	env := benchEnv(b)
	p, err := provisioningLP(env)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := p.Solve()
		if err != nil || sol.Status != lp.Optimal {
			b.Fatalf("status %v err %v", sol.Status, err)
		}
	}
}

// BenchmarkFailover measures the HA pair's promotion latency: a primary with
// an attached, caught-up standby is killed and the timer runs until a write
// lands on the promoted standby — silence detection, promotion, and the
// client's failover included. cmd/sbbench runs the same loop to emit the
// failover_promotion point in BENCH_core.json.
func BenchmarkFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		psrv := kvstore.NewServer()
		pl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go func() { _ = psrv.Serve(pl) }()
		replica.NewPrimary(psrv, 0, replica.PrimaryOptions{
			Heartbeat:  10 * time.Millisecond,
			AckTimeout: 200 * time.Millisecond,
		})
		ssrv := kvstore.NewServer()
		sl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go func() { _ = ssrv.Serve(sl) }()
		standby := replica.NewStandby(ssrv, pl.Addr().String(), replica.StandbyOptions{
			FailoverTimeout: 75 * time.Millisecond,
			DialTimeout:     50 * time.Millisecond,
			ReadTimeout:     30 * time.Millisecond,
			RedialInterval:  5 * time.Millisecond,
		})
		go standby.Run()
		client, err := kvstore.DialFailover(
			[]string{pl.Addr().String(), sl.Addr().String()},
			kvstore.Options{
				DialTimeout: 50 * time.Millisecond,
				IOTimeout:   50 * time.Millisecond,
				MaxRetries:  2,
				BackoffMin:  time.Millisecond,
				BackoffMax:  5 * time.Millisecond,
				Seed:        int64(i + 1),
			})
		if err != nil {
			b.Fatal(err)
		}
		// One acked write through the attached standby proves the pair is
		// formed and caught up before the clock starts.
		if err := client.HSet("call:1", "state", "active"); err != nil {
			b.Fatal(err)
		}
		for standby.LastSeq() == 0 {
			time.Sleep(time.Millisecond)
		}

		b.StartTimer()
		_ = psrv.Close()
		for {
			if err := client.HSet("call:2", "state", "active"); err == nil {
				break
			}
		}
		b.StopTimer()

		_ = client.Close()
		standby.Stop()
		<-standby.Done()
		_ = ssrv.Close()
		b.StartTimer()
	}
}
