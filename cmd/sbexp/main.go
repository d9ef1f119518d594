// Command sbexp regenerates every table and figure of the Switchboard paper
// (SIGCOMM 2023) on the synthetic substrate. Each experiment prints the same
// rows/series the paper reports, normalized the same way.
//
// Usage:
//
//	sbexp -exp all                 # run everything at the default scale
//	sbexp -exp table3 -scale quick # one experiment, reduced scale
//	sbexp -list                    # list experiment names
//
// Experiments: table1, fig3, fig4, fig7a, fig7b, fig7c, table3, table4,
// fig8, migration, fig9, fig10, predict, scale, ablation-joint,
// ablation-backup, simfidelity, predict-migrations, drill,
// forecast-baselines, chaos, dessweep.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"strings"
	"time"

	"switchboard"
	"switchboard/internal/eval"
	"switchboard/internal/model"
)

var experiments = []struct {
	name  string
	desc  string
	needs bool // needs an Env
	run   func(*eval.Env) error
}{
	{"table1", "relative compute/network load by media type", false, func(*eval.Env) error { return table1() }},
	{"fig3", "time-shifted per-country demand peaks", true, fig3},
	{"fig4", "peak-aware backup worked example", false, func(*eval.Env) error { return fig4() }},
	{"fig7a", "per-config demand forecast vs ground truth", true, fig7a},
	{"fig7b", "per-config growth rates", true, fig7b},
	{"fig7c", "call coverage of top-N configs", true, fig7c},
	{"table3", "provisioned resources, cost, and mean ACL", true, table3},
	{"table4", "forecast-vs-truth provisioning deltas", true, table4},
	{"fig8", "participant join-time CDF", true, fig8},
	{"migration", "inter-DC call migration rates", true, migration},
	{"fig9", "CDF of normalized forecast RMSE/MAE", true, fig9},
	{"fig10", "controller throughput vs worker threads", true, fig10},
	{"predict", "MOMC call-config predictor vs baseline", true, predictExp},
	{"scale", "controller sustains 1.4x peak load", true, scaleExp},
	{"ablation-joint", "joint vs compute-only provisioning", true, ablationJoint},
	{"ablation-backup", "peak-aware vs default backup", true, ablationBackup},
	{"simfidelity", "call-level replay of the fractional plan", true, simFidelity},
	{"predict-migrations", "migration reduction via config prediction", true, predictMigrations},
	{"drill", "DC-failure drill: backup vs serving-only plans", true, drill},
	{"forecast-baselines", "Holt-Winters vs seasonal-naive and drift", true, forecastBaselines},
	{"chaos", "fault-injection drill: degraded mode vs clean run", true, chaos},
	{"partition", "HA failover drill: silent primary partition, standby promotes", true, partitionExp},
	{"shard", "sharded-fleet drill: kill a shard leader, survivor takes over", true, shardExp},
	{"reshard", "live shard-split drill: grow the ring online under load", true, reshardExp},
	{"dessweep", "million-call DES fleet sweep across placement policies", false, dessweep},
}

// dessweep flags; the engine itself never reads the wall clock, so the
// events/s numbers here are measured around the eval call, in this package.
var (
	desCalls  = flag.Int("des-calls", 0, "dessweep: calls per run (0: 10M, or 100k at -scale quick)")
	desDetect = flag.String("des-detect", "", "dessweep: comma-separated failover detection delays to sweep (e.g. '5s,30s,2m'); empty runs without failures")
	desTrace  = flag.String("des-trace", "", "dessweep: write the first run's decision trace (span JSONL, sbtrace-compatible) to this file")
)

// desScale and desSeed carry -scale/-seed into the dessweep experiment
// (its table entry takes no Env).
var (
	desScale string
	desSeed  int64
)

func main() {
	expFlag := flag.String("exp", "all", "experiment name or 'all'")
	scale := flag.String("scale", "default", "'default' or 'quick'")
	seed := flag.Int64("seed", 0, "override trace seed (0 keeps the scale's seed)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("  %-16s %s\n", e.name, e.desc)
		}
		return
	}

	cfg := switchboard.DefaultEvalConfig()
	if *scale == "quick" {
		cfg = switchboard.QuickEvalConfig()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	desScale, desSeed = *scale, *seed

	selected := map[string]bool{}
	runAll := *expFlag == "all"
	for _, name := range strings.Split(*expFlag, ",") {
		selected[strings.TrimSpace(name)] = true
	}

	var env *eval.Env
	needEnv := false
	for _, e := range experiments {
		if (runAll || selected[e.name]) && e.needs {
			needEnv = true
		}
	}
	if needEnv {
		fmt.Printf("# building environment: %d+%d days, %d calls/day, top %d configs (seed %d)\n",
			cfg.TrainDays, cfg.EvalDays, cfg.CallsPerDay, cfg.TopConfigs, cfg.Seed)
		start := time.Now()
		var err error
		env, err = switchboard.NewEvalEnv(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("# trace: %d train + %d eval calls, %d distinct configs (%.1fs)\n\n",
			env.TrainDB.TotalCalls(), env.EvalDB.TotalCalls(), env.TrainDB.NumConfigs(),
			time.Since(start).Seconds())
	}

	ran := 0
	for _, e := range experiments {
		if !runAll && !selected[e.name] {
			continue
		}
		ran++
		fmt.Printf("== %s: %s ==\n", e.name, e.desc)
		start := time.Now()
		if err := e.run(env); err != nil {
			fatal(fmt.Errorf("%s: %w", e.name, err))
		}
		fmt.Printf("   (%.1fs)\n\n", time.Since(start).Seconds())
	}
	if ran == 0 {
		fatal(fmt.Errorf("unknown experiment %q; use -list", *expFlag))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sbexp:", err)
	os.Exit(1)
}

func table1() error {
	clA, nlA := model.Audio.ComputeLoad(), model.Audio.NetworkLoad()
	fmt.Printf("%-14s %8s %8s %10s\n", "media", "CL", "NL", "NL/CL")
	for _, m := range model.MediaTypes() {
		cl, nl := m.ComputeLoad()/clA, m.NetworkLoad()/nlA
		fmt.Printf("%-14s %7.1fx %7.1fx %9.1fx\n", m, cl, nl, nl/cl)
	}
	return nil
}

func fig3(env *eval.Env) error {
	res := eval.Fig3(env)
	fmt.Printf("normalized compute demand by UTC slot (48 half-hour slots)\n")
	for i, c := range res.Countries {
		fmt.Printf("%s peaks at %02d:%02d UTC:", c, res.PeakSlot[i]/2, (res.PeakSlot[i]%2)*30)
		for t := 0; t < model.SlotsPerDay; t += 4 {
			fmt.Printf(" %.2f", res.Series[i][t])
		}
		fmt.Println()
	}
	return nil
}

func fig4() error {
	res, err := eval.Fig4()
	if err != nil {
		return err
	}
	fmt.Printf("serving peaks (JP,HK,IN):        %v\n", res.Serving)
	fmt.Printf("default plan total (fig 4b):     %.0f cores (paper: 480)\n", res.DefaultTotal)
	fmt.Printf("peak-aware capacities (fig 4c):  %.0f/%.0f/%.0f (paper: 100/110/110)\n",
		res.PeakAware[0], res.PeakAware[1], res.PeakAware[2])
	fmt.Printf("peak-aware total:                %.0f cores (paper: 320)\n", res.PeakAwareTotal)
	return nil
}

func fig7a(env *eval.Env) error {
	res, err := eval.Fig7a(env)
	if err != nil {
		return err
	}
	fmt.Printf("config %q, horizon %d slots\n", res.ConfigKey, len(res.Forecast))
	fmt.Printf("normalized RMSE %.3f, normalized MAE %.3f\n", res.Accuracy.NormRMSE, res.Accuracy.NormMAE)
	fmt.Printf("%-6s %10s %10s\n", "slot", "truth", "forecast")
	for t := 0; t < len(res.Forecast); t += len(res.Forecast) / 12 {
		fmt.Printf("%-6d %10.1f %10.1f\n", t, res.Truth[t], res.Forecast[t])
	}
	return nil
}

func fig7b(env *eval.Env) error {
	res, err := eval.Fig7b(env, 15)
	if err != nil {
		return err
	}
	fmt.Printf("growth over the training window, normalized to max (paper normalizes too)\n")
	for i, key := range res.ConfigKeys {
		fmt.Printf("  %-28s %.2f\n", key, res.Growth[i])
	}
	return nil
}

func fig7c(env *eval.Env) error {
	res := eval.Fig7c(env)
	fmt.Printf("%d distinct configs\n", res.Distinct)
	fmt.Printf("%-10s %s\n", "top-frac", "calls covered")
	for i, f := range res.TopFracs {
		fmt.Printf("%-10.3f %.1f%%\n", f, 100*res.Coverage[i])
	}
	return nil
}

func table3(env *eval.Env) error {
	res, err := eval.Table3(env)
	if err != nil {
		return err
	}
	print3 := func(label string, rows []eval.Table3Row) {
		fmt.Printf("%s\n%-8s %8s %8s %8s %10s\n", label, "scheme", "cores", "WAN", "cost", "mean ACL")
		for _, r := range rows {
			fmt.Printf("%-8s %8.2f %8.2f %8.2f %10.2f\n", r.Scheme, r.Cores, r.WAN, r.Cost, r.MeanACL)
		}
	}
	print3("without backup (normalized to RR)", res.Without)
	print3("with backup (normalized to RR)", res.With)
	fmt.Printf("raw (with backup): ")
	for _, r := range res.RawWith {
		fmt.Printf("%s{cores %.0f, %.2f Gbps, ACL %.1f ms} ", r.Scheme, r.Cores, r.WAN, r.MeanACL)
	}
	fmt.Println()
	return nil
}

func table4(env *eval.Env) error {
	res, err := eval.Table4(env)
	if err != nil {
		return err
	}
	print4 := func(label string, rows []eval.Table4Row) {
		fmt.Printf("%s\n%-8s %10s %10s\n", label, "scheme", "cores", "WAN")
		for _, r := range rows {
			fmt.Printf("%-8s %+9.1f%% %+9.1f%%\n", r.Scheme, r.CoresDelta, r.WANDelta)
		}
	}
	print4("without backup (truth - forecast)/truth", res.Without)
	print4("with backup", res.With)
	return nil
}

func fig8(env *eval.Env) error {
	res := eval.Fig8(env)
	fmt.Printf("fraction of participants joined by minute:\n")
	for m := 0; m <= 20; m += 2 {
		fmt.Printf("  %2d min: %.2f\n", m, res.CDF[m])
	}
	fmt.Printf("at 300 s: %.1f%% (paper: ~80%% -> A = 300 s)\n", 100*res.At300s)
	return nil
}

func migration(env *eval.Env) error {
	res, err := eval.Migration(env)
	if err != nil {
		return err
	}
	fmt.Printf("%-4s %10s %10s %8s %10s\n", "", "calls", "migrated", "rate", "unplanned")
	fmt.Printf("%-4s %10d %10d %7.2f%% %10d\n", "SB", res.SB.Calls, res.SB.Migrated, 100*res.SB.Rate, res.SB.Unplanned)
	fmt.Printf("%-4s %10d %10d %7.2f%% %10d\n", "LF", res.LF.Calls, res.LF.Migrated, 100*res.LF.Rate, res.LF.Unplanned)
	fmt.Printf("(paper: both 1.53%%)\n")
	return nil
}

func fig9(env *eval.Env) error {
	res, err := eval.Fig9(env, 1000)
	if err != nil {
		return err
	}
	fmt.Printf("%d configs scored; median normalized RMSE %.1f%%, MAE %.1f%% (paper: 13%% / 8%%)\n",
		res.Configs, 100*res.MedianRMSE, 100*res.MedianMAE)
	fmt.Printf("%-12s %10s %10s\n", "percentile", "RMSE", "MAE")
	for _, p := range []float64{0.10, 0.25, 0.50, 0.75, 0.90} {
		i := int(p * float64(len(res.NormRMSE)))
		if i >= len(res.NormRMSE) {
			i = len(res.NormRMSE) - 1
		}
		fmt.Printf("%-12.0f %9.1f%% %9.1f%%\n", p*100, 100*res.NormRMSE[i], 100*res.NormMAE[i])
	}
	return nil
}

func fig10(env *eval.Env) error {
	res, err := eval.Fig10(env, []int{1, 2, 4, 6, 8, 10})
	if err != nil {
		return err
	}
	fmt.Printf("peak event arrival rate: %.1f ev/s\n", res.PeakRate)
	fmt.Printf("%-8s %12s %12s %12s %12s\n", "threads", "events/s", "normalized", "min write", "max write")
	for _, r := range res.Runs {
		fmt.Printf("%-8d %12.0f %12.2f %12s %12s\n", r.Workers, r.EventsPerSec, r.Normalized, r.MinWrite, r.MaxWrite)
	}
	return nil
}

func predictExp(env *eval.Env) error {
	res, err := eval.Predict(env)
	if err != nil {
		return err
	}
	fmt.Printf("%d recurring series\n", res.Series)
	fmt.Printf("%-10s %8s %8s\n", "", "RMSE", "MAE")
	fmt.Printf("%-10s %8.2f %8.2f\n", "MOMC+LR", res.Model.RMSE, res.Model.MAE)
	fmt.Printf("%-10s %8.2f %8.2f\n", "baseline", res.Baseline.RMSE, res.Baseline.MAE)
	fmt.Printf("(paper: 0.97/0.90 vs 24.90/23.60 on production meetings)\n")
	return nil
}

func scaleExp(env *eval.Env) error {
	ok, run, err := eval.ScaleCheck(env, 12, 1.4)
	if err != nil {
		return err
	}
	fmt.Printf("12 threads: %.0f ev/s = %.2fx the production peak (%g ev/s); need >= 1.4x: %v\n",
		run.EventsPerSec, run.Normalized, eval.ProductionPeakRate, ok)
	return nil
}

func ablationJoint(env *eval.Env) error {
	res, err := eval.AblationJoint(env)
	if err != nil {
		return err
	}
	fmt.Printf("joint:        %.0f cores, %.2f Gbps, cost %.1f\n", res.BaseCores, res.BaseWAN, res.BaseCost)
	fmt.Printf("compute-only: %.0f cores, %.2f Gbps, cost %.1f (%.2fx joint)\n",
		res.VariantCores, res.VariantWAN, res.VariantCost, res.CostRatioVariant)
	return nil
}

func simFidelity(env *eval.Env) error {
	res, err := eval.SimFidelity(env)
	if err != nil {
		return err
	}
	fmt.Printf("plan mean ACL (fractional LP):  %.1f ms\n", res.PlanACL)
	fmt.Printf("%-14s %8s %10s %10s %10s %10s\n", "policy", "calls", "overflow", "ACL", "maxCPU", "maxLink")
	for _, row := range []struct {
		name string
		r    *eval.Replay
	}{
		{"plan", res.Plan},
		{"greedy-local", res.Greedy},
	} {
		fmt.Printf("%-14s %8d %9.2f%% %8.1fms %10.2f %10.2f\n",
			row.name, row.r.Calls, 100*row.r.OverflowShare, row.r.MeanACLms, row.r.MaxCoreUtil, row.r.MaxLinkUtil)
	}
	fmt.Printf("unplanned-config calls: %d; stranded load %.2f cores / %.3f Gbps\n",
		res.Plan.Unplanned, res.Plan.StrandedCores, res.Plan.StrandedGbps)
	return nil
}

func drill(env *eval.Env) error {
	res, err := eval.Drill(env)
	if err != nil {
		return err
	}
	fmt.Printf("failing %s mid-morning of the eval window's first day\n", res.FailedDC)
	fmt.Printf("%-14s %9s %10s %11s %12s %12s\n",
		"plan", "replaced", "overflow", "post-calls", "ACL before", "ACL after")
	for _, row := range []struct {
		name string
		r    *eval.DrillRun
	}{
		{"with backup", res.WithBackup},
		{"serving only", res.WithoutBackup},
	} {
		fmt.Printf("%-14s %9d %9.2f%% %11d %10.1fms %10.1fms\n",
			row.name, row.r.Replaced, 100*row.r.OverflowRateAfter(), row.r.PostCalls,
			row.r.MeanACLBefore, row.r.MeanACLAfter)
	}
	return nil
}

func forecastBaselines(env *eval.Env) error {
	res, err := eval.ForecastBaselines(env, 50)
	if err != nil {
		return err
	}
	fmt.Printf("%d configs; Holt-Winters wins %d (%.0f%%); median skill %+.1f%%\n",
		res.Configs, res.Wins, 100*float64(res.Wins)/float64(res.Configs), 100*res.MedianSkill)
	fmt.Printf("mean RMSE: HW %.2f, seasonal-naive %.2f, drift %.2f\n",
		res.MeanHW, res.MeanSeasonalNaive, res.MeanDrift)
	return nil
}

func chaos(env *eval.Env) error {
	res, err := eval.Chaos(env, 1)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d calls (%d events); store partitioned for the middle third (seed %d)\n",
		res.Calls, res.Events, res.Seed)
	fmt.Printf("%-22s %12s %12s\n", "", "clean", "chaos")
	fmt.Printf("%-22s %12.0f %12.0f\n", "events/s", res.CleanEventsPerSec, res.ChaosEventsPerSec)
	fmt.Printf("%-22s %12d %12d\n", "migrations", res.CleanMigrated, res.ChaosMigrated)
	fmt.Printf("max op stall under faults: %s (bounded by client deadlines)\n", res.MaxStall)
	fmt.Printf("degraded intervals %d, journaled writes replayed %d, dropped %d\n",
		res.Degraded, res.Replayed, res.Dropped)
	fmt.Printf("lost transitions after replay: %d (want 0)\n", res.LostTransitions)
	return nil
}

func partitionExp(env *eval.Env) error {
	res, err := eval.PartitionDrill(env, 1)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d calls (%d events) against a primary/standby pair; primary partitioned at the first third (seed %d)\n",
		res.Calls, res.Events, res.Seed)
	fmt.Printf("%-28s %12.0f\n", "events/s (incl. failover)", res.EventsPerSec)
	fmt.Printf("%-28s %12s\n", "standby promotion latency", res.PromotionLatency.Round(time.Millisecond))
	fmt.Printf("%-28s %12s\n", "max op stall", res.MaxStall.Round(time.Millisecond))
	fmt.Printf("%-28s %12d\n", "replicated log position", res.ReplicatedSeq)
	fmt.Printf("degraded intervals %d, journaled writes replayed %d, dropped %d\n",
		res.Degraded, res.Replayed, res.Dropped)
	fmt.Printf("lost transitions after failover: %d (want 0)\n", res.LostTransitions)
	return nil
}

func shardExp(env *eval.Env) error {
	res, err := eval.ShardDrill(env, 1)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d calls (%d events) against a %d-shard fleet; the two-shard node killed at the first third (seed %d)\n",
		res.Calls, res.Events, res.Shards, res.Seed)
	fmt.Printf("%-28s %12.0f\n", "events/s (incl. takeover)", res.EventsPerSec)
	fmt.Printf("%-28s %12s\n", "shard takeover latency", res.PromotionLatency.Round(time.Millisecond))
	fmt.Printf("%-28s %12s\n", "max stall, failed-over shards", res.MaxStall.Round(time.Millisecond))
	fmt.Printf("%-28s %12s\n", "max stall, untouched shard", res.UntouchedMaxStall.Round(time.Millisecond))
	fmt.Printf("lost transitions after takeover: %d (want 0)\n", res.LostTransitions)
	return nil
}

func reshardExp(env *eval.Env) error {
	res, err := eval.ReshardDrill(env, 1)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d calls (%d events) while splitting the ring %d → %d shards online (seed %d)\n",
		res.Calls, res.Events, res.FromShards, res.ToShards, res.Seed)
	fmt.Printf("%-28s %12.0f\n", "events/s (incl. split)", res.EventsPerSec)
	fmt.Printf("%-28s %12s\n", "split duration", res.SplitDuration.Round(time.Millisecond))
	fmt.Printf("%-28s %12d\n", "writes held at handoff", res.HeldWrites)
	fmt.Printf("%-28s %12s\n", "max held-write stall", res.MaxHeldStall.Round(time.Millisecond))
	fmt.Printf("%-28s %12s\n", "max stall otherwise", res.MaxStall.Round(time.Millisecond))
	fmt.Printf("final ring epoch: %d; lost transitions after split: %d (want 0)\n",
		res.FinalEpoch, res.LostTransitions)
	return nil
}

func predictMigrations(env *eval.Env) error {
	res, err := eval.PredictiveMigration(env)
	if err != nil {
		return err
	}
	fmt.Printf("%-22s %12s %12s\n", "", "no predictor", "with predictor")
	fmt.Printf("%-22s %11.2f%% %11.2f%%\n", "migration rate (all)", 100*res.Without, 100*res.With)
	fmt.Printf("%-22s %11.2f%% %11.2f%%\n", "recurring calls only", 100*res.RecurringWithout, 100*res.RecurringWith)
	fmt.Printf("predicted placements: %d of %d recurring calls\n", res.PredictedCalls, res.RecurringCalls)
	return nil
}

func ablationBackup(env *eval.Env) error {
	res, err := eval.AblationBackup(env)
	if err != nil {
		return err
	}
	fmt.Printf("peak-aware:     %.0f cores (compute cost %.1f)\n", res.BaseCores, res.BaseComputeCost)
	fmt.Printf("default backup: %.0f cores (compute cost %.1f, %.2fx peak-aware)\n",
		res.VariantCores, res.VariantCompute, res.ComputeRatioVariant)
	return nil
}

// parseDelays parses the -des-detect list.
func parseDelays(s string) ([]time.Duration, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []time.Duration
	for _, part := range strings.Split(s, ",") {
		d, err := time.ParseDuration(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("-des-detect: %w", err)
		}
		out = append(out, d)
	}
	return out, nil
}

// dessweep simulates the full fleet at call granularity — 10M calls across
// the 12 default DCs — under each placement policy, on the internal/des
// engine. With -des-detect it also sweeps failover detection timing through
// a peak-hour DC outage. The first run's decision trace (span JSONL, the
// live controller's format) goes to -des-trace for cmd/sbtrace.
func dessweep(*eval.Env) error {
	calls := *desCalls
	if calls <= 0 {
		calls = 10_000_000
		if desScale == "quick" {
			calls = 100_000
		}
	}
	seed := desSeed
	if seed == 0 {
		seed = 1
	}
	delays, err := parseDelays(*desDetect)
	if err != nil {
		return err
	}

	// Determinism self-check first: byte-identical trace on a re-run, and a
	// different seed must diverge. A violation fails the experiment (and the
	// CI smoke job) outright.
	base := eval.DESSweepConfig{Calls: calls, Seed: seed, DetectDelays: delays}
	if err := eval.DESSeedStable(base); err != nil {
		return err
	}
	fmt.Printf("seed-stability: ok (same seed replays byte-identical, different seed diverges)\n")

	policies := []string{"lowest-acl", "least-loaded", "power-of-two", "best-fit"}
	fmt.Printf("%d calls/run, seed %d; 12 DCs, headroom 1.25x expected peak\n", calls, seed)
	if len(delays) > 0 {
		fmt.Printf("failure scenario: busiest DC down 13:00-15:00, detection swept over %v\n", delays)
	}
	fmt.Printf("%-14s %8s %10s %9s %9s %9s %8s %10s %9s %12s\n",
		"policy", "detect", "placed", "overflow", "meanACL", "regret", "maxutil", "disrupted", "peak-cc", "Mev/s")
	for i, pname := range policies {
		cfg := base
		cfg.Policies = []string{pname}
		var traceW io.Writer
		var traceF *os.File
		if i == 0 && *desTrace != "" {
			traceF, err = os.Create(*desTrace)
			if err != nil {
				return err
			}
			traceW = traceF
		}
		start := time.Now()
		rows, err := eval.DESSweep(cfg, traceW)
		elapsed := time.Since(start)
		if traceF != nil {
			if cerr := traceF.Close(); err == nil && cerr != nil {
				err = cerr
			}
		}
		if err != nil {
			return err
		}
		var events uint64
		for _, r := range rows {
			events += r.Res.Events
			detect := "-"
			if len(delays) > 0 {
				detect = r.Detect.String()
			}
			fmt.Printf("%-14s %8s %10d %8.3f%% %7.1fms %7.2fms %8.2f %9.0fcs %9d %12s\n",
				r.Policy, detect, r.Res.Placed, 100*r.Res.OverflowShare, r.Res.MeanACLms,
				r.Res.RegretMeanMs, r.Res.MaxCoreUtil, r.Res.DisruptedCallSeconds,
				r.Res.PeakConcurrent, "")
		}
		fmt.Printf("%-14s %d events in %.2fs = %.2f Mev/s (single core)\n",
			pname+":", events, elapsed.Seconds(), float64(events)/elapsed.Seconds()/1e6)
	}
	if *desTrace != "" {
		fmt.Printf("decision trace: %s (analyze with: go run ./cmd/sbtrace -f %s)\n", *desTrace, *desTrace)
	}
	return nil
}
