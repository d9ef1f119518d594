// Package eval drives Switchboard's evaluation (§6): it wires the synthetic
// trace, records database, forecaster, provisioners, allocation plan,
// controller, and predictor into one experiment per table and figure of the
// paper, each returning structured results that cmd/sbexp prints and
// bench_test.go regenerates.
package eval

import (
	"fmt"
	"sync"
	"time"

	"switchboard/internal/allocate"
	"switchboard/internal/geo"
	"switchboard/internal/model"
	"switchboard/internal/obs"
	"switchboard/internal/provision"
	"switchboard/internal/records"
	"switchboard/internal/trace"
)

// Config scales an experiment environment. DefaultConfig matches the scale
// the committed EXPERIMENTS.md numbers were produced at; QuickConfig is a
// fast variant for tests.
type Config struct {
	// Seed drives the synthetic trace.
	Seed int64
	// TrainDays of history feed forecasting and latency estimation.
	TrainDays int
	// EvalDays is the provisioning / evaluation window that follows.
	EvalDays int
	// CallsPerDay is the day-0 global call volume.
	CallsPerDay int
	// TopConfigs bounds how many call configs are individually
	// provisioned (the paper's top-1%).
	TopConfigs int
	// SlotStride coarsens provisioning time slots (see provision.Inputs).
	SlotStride int
	// LatencyThresholdMs is LAT_th.
	LatencyThresholdMs float64
	// MinLatencySamples gates pooled-median latency estimates.
	MinLatencySamples int64
	// KeepEvalRecords retains the evaluation window's full call records
	// (needed by the migration and controller-throughput experiments).
	KeepEvalRecords bool
}

// DefaultConfig is the scale used for the committed experiment outputs.
func DefaultConfig() Config {
	return Config{
		Seed:               1,
		TrainDays:          28,
		EvalDays:           7,
		CallsPerDay:        12000,
		TopConfigs:         50,
		SlotStride:         6,
		LatencyThresholdMs: 120,
		MinLatencySamples:  30,
		KeepEvalRecords:    true,
	}
}

// QuickConfig is a reduced scale for unit tests.
func QuickConfig() Config {
	return Config{
		Seed:               1,
		TrainDays:          15,
		EvalDays:           2,
		CallsPerDay:        2000,
		TopConfigs:         30,
		SlotStride:         8,
		LatencyThresholdMs: 120,
		MinLatencySamples:  15,
		KeepEvalRecords:    true,
	}
}

// Env is a built experiment environment: one continuous synthetic trace
// split into a training window (history) and an evaluation window.
type Env struct {
	Cfg   Config
	World *geo.World
	// TrainDB holds the history window; EvalDB the evaluation window.
	TrainDB, EvalDB *records.DB
	// Est estimates Lat(x, u) from the training window.
	Est *records.LatencyEstimator
	// EvalRecords is the evaluation window's calls (nil unless
	// KeepEvalRecords).
	EvalRecords []*model.CallRecord
	// EvalStart is the first instant of the evaluation window.
	EvalStart time.Time

	// Obs, when non-nil, receives experiment telemetry: one completed-run
	// counter per experiment plus the drills' shed and lost tallies.
	Obs *obs.Registry

	// experiments is the lazily registered completed-run counter family.
	expOnce sync.Once
	expRuns *obs.CounterVec

	// Memoized heavy artifacts shared by experiments (several experiments
	// provision Switchboard-with-backup over the same ground-truth
	// demand; solving those scenario LPs once saves most of a full-run's
	// wall clock).
	sbOnce  sync.Once
	sbLM    *provision.LoadModel
	sbPlan  *provision.Plan
	sbAlloc *allocate.Result
	sbErr   error
}

// countRun counts one completed experiment under
// sb_eval_experiments_total{name=...}. No-op without an Obs registry.
func (env *Env) countRun(name string) {
	if env.Obs == nil {
		return
	}
	env.expOnce.Do(func() {
		env.expRuns = env.Obs.CounterVec("sb_eval_experiments_total",
			"Completed evaluation experiments, by name.", "name")
	})
	env.expRuns.With(name).Inc()
}

// SBWithBackup returns the memoized Switchboard-with-backup plan over the
// evaluation window's ground-truth demand envelope, together with its load
// model and the daily allocation plan within its capacities.
func (env *Env) SBWithBackup() (*provision.LoadModel, *provision.Plan, *allocate.Result, error) {
	env.sbOnce.Do(func() {
		in := &provision.Inputs{
			World:              env.World,
			Latency:            env.Est,
			Demand:             env.EvalDB.PeakEnvelope(env.Cfg.TopConfigs),
			LatencyThresholdMs: env.Cfg.LatencyThresholdMs,
			WithBackup:         true,
			SlotStride:         env.Cfg.SlotStride,
		}
		env.sbLM, env.sbErr = provision.NewLoadModel(in)
		if env.sbErr != nil {
			return
		}
		env.sbPlan, env.sbErr = provision.Switchboard(in)
		if env.sbErr != nil {
			return
		}
		env.sbAlloc, env.sbErr = allocate.Build(env.sbLM, env.sbPlan.Cores, env.sbPlan.LinkGbps)
	})
	return env.sbLM, env.sbPlan, env.sbAlloc, env.sbErr
}

// NewEnv generates the trace and populates the databases.
func NewEnv(cfg Config) (*Env, error) {
	if cfg.TrainDays <= 0 || cfg.EvalDays <= 0 {
		return nil, fmt.Errorf("eval: TrainDays and EvalDays must be positive")
	}
	tc := trace.DefaultConfig()
	tc.Seed = cfg.Seed
	tc.Days = cfg.TrainDays + cfg.EvalDays
	tc.CallsPerDay = cfg.CallsPerDay
	g, err := trace.NewGenerator(tc)
	if err != nil {
		return nil, err
	}
	w := geo.DefaultWorld()
	env := &Env{
		Cfg:       cfg,
		World:     w,
		TrainDB:   records.New(tc.Start, w),
		EvalStart: tc.Start.AddDate(0, 0, cfg.TrainDays),
	}
	env.EvalDB = records.New(env.EvalStart, w)
	g.EachCall(func(r *model.CallRecord) bool {
		if r.Start.Before(env.EvalStart) {
			env.TrainDB.Add(r)
		} else {
			env.EvalDB.Add(r)
			if cfg.KeepEvalRecords {
				env.EvalRecords = append(env.EvalRecords, r)
			}
		}
		return true
	})
	env.Est = env.TrainDB.Estimator(cfg.MinLatencySamples)
	return env, nil
}
