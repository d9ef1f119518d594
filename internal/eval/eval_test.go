package eval

import (
	"math"
	"sync"
	"testing"
	"time"

	"switchboard/internal/des"
	"switchboard/internal/model"
)

// sharedEnv is built once; experiments read it without mutating.
var (
	envOnce sync.Once
	envVal  *Env
	envErr  error
)

// skipUnderShort marks the single-threaded LP-replay experiments that take
// 1–5 s each (15–50 s under -race, on a 2-vCPU VM) and exercise no
// concurrency. The race gate (make check-race) runs with -short; the plain
// gate still runs them in full.
func skipUnderShort(t *testing.T) {
	t.Helper()
	if testing.Short() || raceEnabled {
		t.Skip("heavy deterministic replay; skipped under -short and -race")
	}
}

func quickEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		envVal, envErr = NewEnv(QuickConfig())
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

func TestNewEnvValidation(t *testing.T) {
	if _, err := NewEnv(Config{}); err == nil {
		t.Error("zero config should error")
	}
}

func TestEnvSplit(t *testing.T) {
	env := quickEnv(t)
	if env.TrainDB.TotalCalls() == 0 || env.EvalDB.TotalCalls() == 0 {
		t.Fatal("empty windows")
	}
	// Train window is much longer than eval window.
	if env.TrainDB.TotalCalls() < env.EvalDB.TotalCalls() {
		t.Errorf("train %d < eval %d calls", env.TrainDB.TotalCalls(), env.EvalDB.TotalCalls())
	}
	for _, r := range env.EvalRecords {
		if r.Start.Before(env.EvalStart) {
			t.Fatal("eval record before eval window")
		}
	}
}

func TestTable3Shape(t *testing.T) {
	skipUnderShort(t)
	env := quickEnv(t)
	res, err := Table3(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range [][]Table3Row{res.Without, res.With} {
		if len(rows) != 3 {
			t.Fatalf("got %d rows", len(rows))
		}
		rr, lf, sb := rows[0], rows[1], rows[2]
		if rr.Cores != 1 || rr.WAN != 1 || rr.Cost != 1 || rr.MeanACL != 1 {
			t.Errorf("RR row not normalized: %+v", rr)
		}
		// The paper's Table 3 shape:
		// LF uses more compute than RR; SB never exceeds LF's compute.
		if lf.Cores < 1 {
			t.Errorf("LF cores %.3f < RR", lf.Cores)
		}
		// WAN: LF and SB far below RR; SB <= LF.
		if lf.WAN >= 1 || sb.WAN >= 1 {
			t.Errorf("WAN ratios LF=%.3f SB=%.3f, want < 1", lf.WAN, sb.WAN)
		}
		if sb.WAN > lf.WAN*1.05 {
			t.Errorf("SB WAN %.3f above LF %.3f", sb.WAN, lf.WAN)
		}
		// Cost: SB cheapest.
		if sb.Cost > lf.Cost*1.001 || sb.Cost > 1 {
			t.Errorf("SB cost %.3f (LF %.3f RR 1) not the cheapest", sb.Cost, lf.Cost)
		}
		// ACL: LF well below RR; SB no worse than RR and near LF.
		if lf.MeanACL >= 0.95 {
			t.Errorf("LF ACL ratio %.3f, want well below 1", lf.MeanACL)
		}
		if sb.MeanACL > 1.001 {
			t.Errorf("SB ACL ratio %.3f above RR", sb.MeanACL)
		}
	}
	// With backup, every scheme provisions at least as many raw cores.
	for i := range res.RawWithout {
		if res.RawWith[i].Cores < res.RawWithout[i].Cores-1e-6 {
			t.Errorf("%s: backup cores below serving-only", res.RawWith[i].Scheme)
		}
	}
}

func TestTable4Reasonable(t *testing.T) {
	skipUnderShort(t)
	env := quickEnv(t)
	res, err := Table4(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range [][]Table4Row{res.Without, res.With} {
		if len(rows) != 3 {
			t.Fatalf("got %d rows", len(rows))
		}
		for _, r := range rows {
			// The paper sees deltas within ±13%; synthetic forecasts
			// should stay within a loose band.
			if math.Abs(r.CoresDelta) > 60 || math.Abs(r.WANDelta) > 60 {
				t.Errorf("%s: deltas cores=%.1f%% wan=%.1f%% implausibly large", r.Scheme, r.CoresDelta, r.WANDelta)
			}
		}
	}
}

func TestFig3PeaksShift(t *testing.T) {
	env := quickEnv(t)
	res := Fig3(env)
	if len(res.Series) != 3 {
		t.Fatal("want 3 countries")
	}
	// All series normalized to [0, 1].
	var sawOne bool
	for _, s := range res.Series {
		for _, v := range s {
			if v < 0 || v > 1+1e-9 {
				t.Fatalf("normalized value %g", v)
			}
			if v > 0.999 {
				sawOne = true
			}
		}
	}
	if !sawOne {
		t.Error("no series touches the normalization peak")
	}
	// Japan (UTC+9) peaks before India (UTC+5.5) in UTC terms.
	if res.PeakSlot[0] >= res.PeakSlot[2] {
		t.Errorf("JP peak slot %d not before IN peak slot %d", res.PeakSlot[0], res.PeakSlot[2])
	}
}

func TestFig4Numbers(t *testing.T) {
	res, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.DefaultTotal-480) > 1e-6 {
		t.Errorf("default total = %g, want 480", res.DefaultTotal)
	}
	if math.Abs(res.PeakAwareTotal-320) > 1e-6 {
		t.Errorf("peak-aware total = %g, want 320", res.PeakAwareTotal)
	}
}

func TestFig7a(t *testing.T) {
	env := quickEnv(t)
	res, err := Fig7a(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Forecast) != len(res.Truth) || len(res.Forecast) == 0 {
		t.Fatal("series length mismatch")
	}
	// The top config is forecastable: normalized RMSE under 60%.
	if res.Accuracy.NormRMSE > 0.6 {
		t.Errorf("top-config normalized RMSE %.2f too high", res.Accuracy.NormRMSE)
	}
}

func TestFig7bGrowthNormalized(t *testing.T) {
	env := quickEnv(t)
	res, err := Fig7b(env, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Growth) == 0 {
		t.Fatal("no growth series")
	}
	var max float64
	for _, g := range res.Growth {
		if g <= 0 || g > 1+1e-9 {
			t.Fatalf("normalized growth %g outside (0,1]", g)
		}
		if g > max {
			max = g
		}
	}
	if math.Abs(max-1) > 1e-9 {
		t.Errorf("max normalized growth = %g, want 1", max)
	}
}

func TestFig7cCoverage(t *testing.T) {
	env := quickEnv(t)
	res := Fig7c(env)
	if res.Distinct < 100 {
		t.Fatalf("only %d distinct configs", res.Distinct)
	}
	for i := 1; i < len(res.Coverage); i++ {
		if res.Coverage[i] < res.Coverage[i-1]-1e-12 {
			t.Fatal("coverage not monotone")
		}
	}
	if last := res.Coverage[len(res.Coverage)-1]; math.Abs(last-1) > 1e-9 {
		t.Errorf("full coverage = %g", last)
	}
	// Concentration: the top 10% of configs cover most calls.
	var at10 float64
	for i, f := range res.TopFracs {
		if f == 0.10 {
			at10 = res.Coverage[i]
		}
	}
	if at10 < 0.5 {
		t.Errorf("top-10%% coverage %.2f, want >= 0.5", at10)
	}
}

func TestFig8At300s(t *testing.T) {
	env := quickEnv(t)
	res := Fig8(env)
	if res.At300s < 0.7 || res.At300s > 0.95 {
		t.Errorf("fraction joined at 300s = %.2f, want ~0.8", res.At300s)
	}
}

func TestForecastBaselines(t *testing.T) {
	env := quickEnv(t)
	res, err := ForecastBaselines(env, env.Cfg.TopConfigs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Configs == 0 {
		t.Fatal("no configs compared")
	}
	// Holt-Winters should win on most configs of a trending, seasonal
	// workload (the reason §5.2 picks it).
	if res.Wins*2 < res.Configs {
		t.Errorf("HW wins only %d of %d configs", res.Wins, res.Configs)
	}
	if res.MeanHW > res.MeanSeasonalNaive {
		t.Errorf("mean HW RMSE %.3f above seasonal naive %.3f", res.MeanHW, res.MeanSeasonalNaive)
	}
}

func TestFig9Medians(t *testing.T) {
	env := quickEnv(t)
	res, err := Fig9(env, env.Cfg.TopConfigs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Configs == 0 {
		t.Fatal("no configs scored")
	}
	// §6.5 reports median normalized RMSE 13% and MAE 8%; synthetic data
	// should land in the same ballpark (well under 1.0, MAE <= RMSE).
	if res.MedianRMSE > 0.5 {
		t.Errorf("median normalized RMSE %.3f too high", res.MedianRMSE)
	}
	if res.MedianMAE > res.MedianRMSE+1e-9 {
		t.Errorf("median MAE %.3f above median RMSE %.3f", res.MedianMAE, res.MedianRMSE)
	}
}

func TestMigrationRates(t *testing.T) {
	env := quickEnv(t)
	res, err := Migration(env)
	if err != nil {
		t.Fatal(err)
	}
	// §6.4: both SB and LF migrate a small fraction of calls, and the two
	// are comparable.
	for name, s := range map[string]Stats{"SB": res.SB, "LF": res.LF} {
		if s.Calls == 0 {
			t.Fatalf("%s: no calls", name)
		}
		if s.Rate < 0 || s.Rate > 0.25 {
			t.Errorf("%s migration rate %.3f outside plausible band", name, s.Rate)
		}
	}
}

func TestFig10ThroughputScales(t *testing.T) {
	env := quickEnv(t)
	res, err := Fig10(env, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2 || res.PeakRate != ProductionPeakRate {
		t.Fatalf("res = %+v", res)
	}
	// Throughput must scale with threads against the simulated
	// cloud-store latency (the Fig 10 shape).
	if res.Runs[1].EventsPerSec < 2*res.Runs[0].EventsPerSec {
		t.Errorf("4 workers %g ev/s not >= 2x 1 worker %g ev/s",
			res.Runs[1].EventsPerSec, res.Runs[0].EventsPerSec)
	}
	// Simulated writes are cloud-store-like: sub-millisecond floor with a
	// tail. The floor is deterministic (injected latency), but the observed
	// max rides the host scheduler — a CPU-starved runner executing the
	// whole suite in parallel stalls goroutine wakeups by hundreds of ms —
	// so the ceiling only rules out genuine hangs (the client's IOTimeout
	// scale), not tail inflation.
	for _, r := range res.Runs {
		if r.MinWrite < 250*time.Microsecond || r.MaxWrite > time.Second {
			t.Errorf("%d workers: writes %v..%v outside plausible band", r.Workers, r.MinWrite, r.MaxWrite)
		}
	}
	// The sweep drives the controller's own write path, and without a
	// placer every event is exactly one store command.
	for _, r := range res.Runs {
		if r.Writes != int64(r.Events) || r.Events == 0 {
			t.Errorf("%d workers: store served %d commands for %d events", r.Workers, r.Writes, r.Events)
		}
	}
}

func TestPredictExperiment(t *testing.T) {
	env := quickEnv(t)
	res, err := Predict(env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Series == 0 {
		t.Fatal("no series")
	}
	if res.Model.RMSE >= res.Baseline.RMSE {
		t.Errorf("model RMSE %.3f not better than baseline %.3f", res.Model.RMSE, res.Baseline.RMSE)
	}
}

func TestAblations(t *testing.T) {
	skipUnderShort(t)
	env := quickEnv(t)
	joint, err := AblationJoint(env)
	if err != nil {
		t.Fatal(err)
	}
	// Compute-only pricing can only cost more at true prices.
	if joint.CostRatioVariant < 0.999 {
		t.Errorf("compute-only variant cheaper than joint: %.3f", joint.CostRatioVariant)
	}
	backup, err := AblationBackup(env)
	if err != nil {
		t.Fatal(err)
	}
	// Peak-aware DC-failure provisioning should need no more compute than
	// default backup bolted on top (Fig 4's 320 vs 480, system-scale).
	if backup.ComputeRatioVariant < 0.999 {
		t.Errorf("default-backup variant needs less compute than peak-aware: %.3f", backup.ComputeRatioVariant)
	}
}

// The quick-scale replay and drill results are built once and shared; tests
// read them without mutating.
var (
	simOnce   sync.Once
	simVal    *SimFidelityResult
	simErr    error
	drillOnce sync.Once
	drillVal  *DrillResult
	drillErr  error
)

func simFidelityQuick(t *testing.T) *SimFidelityResult {
	t.Helper()
	env := quickEnv(t)
	simOnce.Do(func() { simVal, simErr = SimFidelity(env) })
	if simErr != nil {
		t.Fatal(simErr)
	}
	return simVal
}

func drillQuick(t *testing.T) *DrillResult {
	t.Helper()
	env := quickEnv(t)
	drillOnce.Do(func() { drillVal, drillErr = Drill(env) })
	if drillErr != nil {
		t.Fatal(drillErr)
	}
	return drillVal
}

func TestSimFidelity(t *testing.T) {
	res := simFidelityQuick(t)
	// Overflow comes from tail traffic outside the planned top-N config
	// universe; at QuickConfig's coverage (~50%) that tail is large, so
	// the bound is loose. The default scale lands near 5%.
	for name, r := range map[string]*Replay{"plan": res.Plan, "greedy": res.Greedy} {
		if rate := r.OverflowShare; rate > 0.25 {
			t.Errorf("%s policy overflow rate %.3f for in-sample replay", name, rate)
		}
	}
	if res.Plan.Calls == 0 || res.Greedy.Calls != res.Plan.Calls {
		t.Fatalf("call counts plan=%d greedy=%d", res.Plan.Calls, res.Greedy.Calls)
	}
	// Realized latencies should be in the same regime as the plan's
	// fractional ACL (both policies follow latency-minimizing choices).
	if res.Plan.MeanACLms > 3*res.PlanACL+10 {
		t.Errorf("realized plan ACL %.1f far above fractional %.1f", res.Plan.MeanACLms, res.PlanACL)
	}
	// Exact quick-scale books, pinned when the replay moved onto des (it
	// reproduced the earlier dedicated replay loop call for call): a
	// change here changes published simfidelity numbers and must be
	// deliberate.
	for _, pin := range []struct {
		name string
		r    *Replay
		acl  float64
	}{
		{"plan", res.Plan, 19.623977623206571},
		{"greedy", res.Greedy, 19.495322459791097},
	} {
		r := pin.r
		if r.Calls != 4201 || r.Overflowed != 648 || r.Calls-r.Overflowed != 3553 || r.Unplanned != 2934 {
			t.Errorf("%s books: calls %d overflowed %d unplanned %d, want 4201/648/2934",
				pin.name, r.Calls, r.Overflowed, r.Unplanned)
		}
		if !approxEq(r.MeanACLms, pin.acl) {
			t.Errorf("%s mean ACL %.17g, want %.17g", pin.name, r.MeanACLms, pin.acl)
		}
		if !approxEq(r.MaxCoreUtil, 1.9909411040184837) || !approxEq(r.StrandedCores, 2.084) {
			t.Errorf("%s max CPU %.17g stranded %.17g cores", pin.name, r.MaxCoreUtil, r.StrandedCores)
		}
	}
}

// approxEq compares a pinned mean: the drill's after-failure ACL is
// reassembled from des's running means, so its last bits may move.
func approxEq(got, want float64) bool {
	return math.Abs(got-want) <= 1e-12*math.Abs(want)
}

// Every record with legs is replayed, once per policy.
func TestReplayEveryRecord(t *testing.T) {
	env := quickEnv(t)
	res := simFidelityQuick(t)
	withLegs := 0
	for _, r := range env.EvalRecords {
		if len(r.Legs) > 0 {
			withLegs++
		}
	}
	if withLegs == 0 {
		t.Fatal("no eval records with legs")
	}
	for name, r := range map[string]*Replay{"plan": res.Plan, "greedy": res.Greedy} {
		if r.Calls != uint64(withLegs) {
			t.Errorf("%s replayed %d of %d records", name, r.Calls, withLegs)
		}
	}
}

// Greedy-local replays the plan's own demand within its provisioned
// capacity, bar the unplanned-config tail.
func TestReplayGreedyLocal(t *testing.T) {
	r := simFidelityQuick(t).Greedy
	if r.Calls == 0 || r.Placed != r.Calls {
		t.Fatalf("greedy placed %d of %d calls", r.Placed, r.Calls)
	}
	if rate := r.OverflowShare; rate > 0.25 {
		t.Errorf("greedy overflow rate %.3f for in-sample replay", rate)
	}
	if r.MeanACLms <= 0 || r.MeanACLms > 120 {
		t.Errorf("greedy mean ACL %.1f implausible", r.MeanACLms)
	}
	// Peaks were recorded somewhere on a provisioned DC.
	if r.MaxCoreUtil <= 0 {
		t.Error("no compute peaks recorded")
	}
}

// The plan-quota policy follows a latency-minimizing plan, so its realized
// latency stays within a factor of greedy-local's.
func TestReplayPlanPolicy(t *testing.T) {
	res := simFidelityQuick(t)
	r := res.Plan
	if r.Calls == 0 || r.Placed == 0 {
		t.Fatalf("plan replay placed %d of %d calls", r.Placed, r.Calls)
	}
	if rate := r.OverflowShare; rate > 0.25 {
		t.Errorf("plan policy overflow rate %.3f", rate)
	}
	if r.MeanACLms > 2*res.Greedy.MeanACLms+5 {
		t.Errorf("plan ACL %.1f far above greedy %.1f", r.MeanACLms, res.Greedy.MeanACLms)
	}
}

// replayQuick builds a replay rig over QuickConfig's memoized backup plan.
func replayQuick(t *testing.T, recs []*model.CallRecord, capCores, capGbps []float64) *replayRig {
	t.Helper()
	env := quickEnv(t)
	lm, _, _, err := env.SBWithBackup()
	if err != nil {
		t.Fatal(err)
	}
	rig, err := newReplayRig(lm, env.Est, recs, capCores, capGbps)
	if err != nil {
		t.Fatal(err)
	}
	return rig
}

func TestReplayZeroCapacity(t *testing.T) {
	env := quickEnv(t)
	_, plan, _, err := env.SBWithBackup()
	if err != nil {
		t.Fatal(err)
	}
	rig := replayQuick(t, env.EvalRecords, make([]float64, len(plan.Cores)), make([]float64, len(plan.LinkGbps)))
	res, err := rig.run(des.GreedyLocal{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Calls == 0 || res.Overflowed != res.Calls {
		t.Errorf("with zero capacity, %d/%d overflowed", res.Overflowed, res.Calls)
	}
	if res.StrandedCores <= 0 || res.StrandedGbps <= 0 {
		t.Errorf("zero-capacity run should report stranded load, got %g cores / %g Gbps", res.StrandedCores, res.StrandedGbps)
	}
}

func TestReplayUnplannedConfig(t *testing.T) {
	env := quickEnv(t)
	_, plan, _, err := env.SBWithBackup()
	if err != nil {
		t.Fatal(err)
	}
	// A config certainly outside the planned universe.
	exotic := &model.CallRecord{
		ID:       999999,
		Start:    env.EvalStart.Add(time.Hour),
		Duration: 20 * time.Minute,
		Legs: []model.LegRecord{
			{Participant: 1, Country: "NZ", Media: model.Video},
			{Participant: 2, Country: "CL", Media: model.Video, JoinOffset: time.Minute},
			{Participant: 3, Country: "KE", Media: model.Video, JoinOffset: time.Minute},
		},
	}
	rig := replayQuick(t, []*model.CallRecord{exotic}, plan.Cores, plan.LinkGbps)
	res, err := rig.run(des.GreedyLocal{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Calls != 1 || res.Unplanned != 1 {
		t.Errorf("calls %d unplanned %d, want 1/1", res.Calls, res.Unplanned)
	}
	if res.MeanACLms <= 0 {
		t.Error("an unplanned config should still get an ACL")
	}
}

func TestReplayValidation(t *testing.T) {
	env := quickEnv(t)
	lm, plan, _, err := env.SBWithBackup()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newReplayRig(lm, env.Est, env.EvalRecords, []float64{1}, plan.LinkGbps); err == nil {
		t.Error("a mis-sized capacity vector should error")
	}
	rig := replayQuick(t, env.EvalRecords, plan.Cores, plan.LinkGbps)
	if _, err := rig.run(nil); err == nil {
		t.Error("a nil policy should error")
	}
}

func TestDrillValidation(t *testing.T) {
	env := quickEnv(t)
	lm, plan, _, err := env.SBWithBackup()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drillRun(lm, env.Est, env.EvalRecords, plan, 99, env.EvalStart); err == nil {
		t.Error("an invalid failed DC should error")
	}
	if _, err := drillRun(lm, env.Est, env.EvalRecords, plan, 0, env.EvalStart.AddDate(0, 0, 30)); err == nil {
		t.Error("a failure after the last record should error")
	}
}

func TestDrill(t *testing.T) {
	res := drillQuick(t)
	if res.WithBackup.Replaced == 0 || res.WithBackup.PostCalls == 0 {
		t.Fatalf("drill displaced nothing: %+v", res.WithBackup)
	}
	// Backup provisioning absorbs the failure better than serving-only.
	if res.WithBackup.OverflowRateAfter() > res.WithoutBackup.OverflowRateAfter() {
		t.Errorf("backup plan overflow %.3f above serving-only %.3f",
			res.WithBackup.OverflowRateAfter(), res.WithoutBackup.OverflowRateAfter())
	}
	// Exact quick-scale books, pinned like TestSimFidelity's.
	if res.FailedDC != "us-east" {
		t.Errorf("failed DC %s, want us-east", res.FailedDC)
	}
	for _, pin := range []struct {
		name                string
		r                   *DrillRun
		overflowed          uint64
		aclBefore, aclAfter float64
	}{
		{"with backup", res.WithBackup, 599, 19.014876703183543, 35.761042994318181},
		{"serving only", res.WithoutBackup, 1499, 17.097005903927908, 35.596964980492629},
	} {
		r := pin.r
		if r.Replaced != 1 || r.PostCalls != 3474 || r.Overflowed != pin.overflowed {
			t.Errorf("%s books: replaced %d post-calls %d overflowed %d, want 1/3474/%d",
				pin.name, r.Replaced, r.PostCalls, r.Overflowed, pin.overflowed)
		}
		if !approxEq(r.MeanACLBefore, pin.aclBefore) || !approxEq(r.MeanACLAfter, pin.aclAfter) {
			t.Errorf("%s ACL before/after %.17g/%.17g, want %.17g/%.17g",
				pin.name, r.MeanACLBefore, r.MeanACLAfter, pin.aclBefore, pin.aclAfter)
		}
	}
}

// TestDrillBackupAbsorbsFailure is the point of backup provisioning: under a
// DC failure mid-peak, the backup-provisioned plan absorbs the displaced and
// subsequent calls, while a serving-only plan overflows strictly more.
func TestDrillBackupAbsorbsFailure(t *testing.T) {
	res := drillQuick(t)
	b, s := res.WithBackup, res.WithoutBackup
	if b.Replaced == 0 || b.PostCalls == 0 {
		t.Fatalf("drill displaced nothing: %+v", b)
	}
	// The backup plan absorbs the planned demand; residual overflow comes
	// from tail traffic outside the planned config universe (whose
	// cushion headroom died with the DC) and integral burstiness.
	if rate := b.OverflowRateAfter(); rate > 0.25 {
		t.Errorf("backup plan post-failure overflow %.3f, want modest", rate)
	}
	if s.OverflowRateAfter() <= b.OverflowRateAfter() {
		t.Errorf("serving-only overflow %.3f not above backup plan %.3f",
			s.OverflowRateAfter(), b.OverflowRateAfter())
	}
	// Latency degrades gracefully, not catastrophically.
	if b.MeanACLAfter > 4*b.MeanACLBefore+20 {
		t.Errorf("post-failure ACL %.1f vs %.1f before", b.MeanACLAfter, b.MeanACLBefore)
	}
}

func TestPredictiveMigration(t *testing.T) {
	env := quickEnv(t)
	res, err := PredictiveMigration(env)
	if err != nil {
		t.Fatal(err)
	}
	if res.RecurringCalls == 0 {
		t.Fatal("no recurring calls in replay")
	}
	if res.PredictedCalls == 0 {
		t.Fatal("predictor never fired")
	}
	// §8's motivation: prediction should not worsen migrations on
	// recurring calls (and typically reduces them).
	if res.RecurringWith > res.RecurringWithout+0.02 {
		t.Errorf("recurring migration rate rose: %.3f -> %.3f", res.RecurringWithout, res.RecurringWith)
	}
}

func TestScaleCheck(t *testing.T) {
	// §6.6: around ten threads the controller sustains 1.4x the
	// production-scale peak. The unit test uses a lower bar (1.15x with
	// 16 threads) so CPU contention from parallel test/bench runs cannot
	// flake it; `sbexp -exp scale` performs the paper's exact check on an
	// idle machine.
	env := quickEnv(t)
	ok, run, err := ScaleCheck(env, 16, 1.15)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("controller did not sustain 1.15x peak with 16 threads: %+v", run)
	}
}

func TestChaosDrill(t *testing.T) {
	env := quickEnv(t)
	res, err := Chaos(env, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Calls == 0 || res.Events == 0 {
		t.Fatalf("empty drill: %+v", res)
	}
	if res.Degraded < 1 {
		t.Error("chaos run never degraded")
	}
	if res.Replayed == 0 {
		t.Error("no journaled writes replayed")
	}
	if res.Dropped != 0 {
		t.Errorf("dropped %d journaled writes", res.Dropped)
	}
	if res.LostTransitions != 0 {
		t.Errorf("lost %d transitions", res.LostTransitions)
	}
	// Faults change timing, never placement.
	if res.CleanMigrated != res.ChaosMigrated {
		t.Errorf("migrations diverged under faults: %d vs %d", res.CleanMigrated, res.ChaosMigrated)
	}
	if res.MaxStall > 2*time.Second {
		t.Errorf("an op stalled %v under faults", res.MaxStall)
	}
}

func TestPartitionDrill(t *testing.T) {
	env := quickEnv(t)
	res, err := PartitionDrill(env, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Calls == 0 || res.Events == 0 {
		t.Fatalf("empty drill: %+v", res)
	}
	if res.PromotionLatency <= 0 || res.PromotionLatency > 5*time.Second {
		t.Errorf("promotion latency = %v", res.PromotionLatency)
	}
	if res.ReplicatedSeq == 0 {
		t.Error("standby promoted with an empty replication log")
	}
	if res.Dropped != 0 {
		t.Errorf("dropped %d journaled writes", res.Dropped)
	}
	if res.LostTransitions != 0 {
		t.Errorf("lost %d transitions across failover", res.LostTransitions)
	}
	// Client deadlines, not the partition, bound every stall.
	if res.MaxStall > 3*time.Second {
		t.Errorf("an op stalled %v across failover", res.MaxStall)
	}
}

func TestShardDrill(t *testing.T) {
	env := quickEnv(t)
	res, err := ShardDrill(env, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Calls == 0 || res.Events == 0 {
		t.Fatalf("empty drill: %+v", res)
	}
	if res.PromotionLatency <= 0 || res.PromotionLatency > 5*time.Second {
		t.Errorf("takeover latency = %v", res.PromotionLatency)
	}
	if res.LostTransitions != 0 {
		t.Errorf("lost %d transitions across the shard takeover", res.LostTransitions)
	}
	// Lease TTL + takeover delay bound the failed-over shards' stalls; the
	// untouched shard must not feel the kill at all.
	if res.MaxStall > 5*time.Second {
		t.Errorf("an op stalled %v across the takeover", res.MaxStall)
	}
	if res.UntouchedMaxStall > time.Second {
		t.Errorf("the untouched shard stalled %v", res.UntouchedMaxStall)
	}
}

func TestReshardDrill(t *testing.T) {
	env := quickEnv(t)
	res, err := ReshardDrill(env, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Calls == 0 || res.Events == 0 {
		t.Fatalf("empty drill: %+v", res)
	}
	if res.FinalEpoch < 1 {
		t.Errorf("final ring epoch = %d, want the split to bump it", res.FinalEpoch)
	}
	if res.SplitDuration <= 0 || res.SplitDuration > 30*time.Second {
		t.Errorf("split duration = %v", res.SplitDuration)
	}
	if res.LostTransitions != 0 {
		t.Errorf("lost %d transitions across the split", res.LostTransitions)
	}
	// The handoff barrier, not the copy, bounds every held write.
	if res.MaxHeldStall > 5*time.Second {
		t.Errorf("a held write stalled %v", res.MaxHeldStall)
	}
	if res.MaxStall > 5*time.Second {
		t.Errorf("an op stalled %v during the split", res.MaxStall)
	}
}
