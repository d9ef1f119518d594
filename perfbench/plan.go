package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"switchboard/internal/allocate"
	"switchboard/internal/forecast"
	"switchboard/internal/geo"
	"switchboard/internal/model"
	"switchboard/internal/provision"
	"switchboard/internal/records"
	"switchboard/internal/trace"
)

const (
	planTrainDays = 15
	planEvalDays  = 2
	planDayCalls  = 2000
	planTop       = 30
	planStride    = 16
	// weekSlots is the Holt-Winters season: one week of 30-minute slots.
	weekSlots = 7 * model.SlotsPerDay
	// planPeakZ is the expected maximum of planEvalDays standard normals:
	// the allowance that turns a forecast mean into a peak estimate, as the
	// Table 4 pipeline (internal/eval ForecastDemand) applies it.
	planPeakZ = 0.56
)

// planHistories is how many histories, of consecutive variant seeds, a run
// plans in turn. How long a plan takes depends strongly on its history
// (single histories ranged from 1.6 to 3.0 s), so a run that planned one
// would measure its seed more than the code.
const planHistories = 6

// planRig is one input variant of the offline pipeline: a training history
// and the latency estimator built from it.
type planRig struct {
	world   *geo.World
	train   *records.DB
	est     *records.LatencyEstimator
	horizon int
	digest  uint64
}

// setupPlans generates the run's histories.
func setupPlans(seed int64) ([]*planRig, error) {
	var rigs []*planRig
	for v := 0; v < planHistories; v++ {
		r, err := setupPlan(variantSeed(seed, v))
		if err != nil {
			return nil, err
		}
		rigs = append(rigs, r)
	}
	return rigs, nil
}

func setupPlan(seed int64) (*planRig, error) {
	w := geo.DefaultWorld()
	tc := trace.DefaultConfig()
	tc.Days, tc.CallsPerDay, tc.Seed, tc.World = planTrainDays+planEvalDays, planDayCalls, seed, w
	gen, err := trace.NewGenerator(tc)
	if err != nil {
		return nil, err
	}
	trainEnd := tc.Start.Add(planTrainDays * 24 * time.Hour)
	r := &planRig{world: w, train: records.New(tc.Start, w), horizon: planEvalDays * model.SlotsPerDay}
	h := fnv.New64a()
	gen.EachCall(func(rec *model.CallRecord) bool {
		hashRecord(h, rec)
		if rec.Start.Before(trainEnd) {
			r.train.Add(rec)
		}
		return true
	})
	r.digest = h.Sum64()
	r.est = r.train.Estimator(20)
	return r, nil
}

// planOut is what one plan produced; every op from one seed must produce the
// same.
type planOut struct {
	Cost, Cores, Gbps, MeanACL float64
}

// plan runs the offline pipeline once: a Holt-Winters forecast per top
// config, the peak-day envelope, the provisioning LP with its failure
// scenario sweep, and the daily allocation plan. When traced it also solves
// the no-failure scenario alone, so the sweep's share can be split out.
func (r *planRig) plan(t timer) (planOut, error) {
	var series []records.ConfigSeries
	var top []records.ConfigSeries
	err := t.span("forecast.fit", func() error {
		top = r.train.TopConfigs(planTop)
		if len(top) == 0 {
			return fmt.Errorf("no training configs")
		}
		for _, cs := range top {
			m, err := forecast.FitAuto(cs.Counts, weekSlots)
			if err != nil {
				return fmt.Errorf("fit %q: %w", cs.Config.Key(), err)
			}
			f := m.Forecast(r.horizon)
			var total float64
			for i, v := range f {
				f[i] = v + planPeakZ*math.Sqrt(max(v, 0))
				total += f[i]
			}
			series = append(series, records.ConfigSeries{Config: cs.Config, Counts: f, Total: total})
		}
		return nil
	})
	if err != nil {
		return planOut{}, err
	}
	var demand *records.Demand
	_ = t.span("records.envelope", func() error {
		var covered float64
		for _, cs := range top {
			covered += cs.Total
		}
		cushion := 1.0
		if covered > 0 {
			cushion = float64(r.train.TotalCalls()) / covered
		}
		demand = records.EnvelopeFromSeries(series, cushion)
		return nil
	})
	in := &provision.Inputs{
		World:              r.world,
		Latency:            r.est,
		Demand:             demand,
		LatencyThresholdMs: 120,
		WithBackup:         true,
		SlotStride:         planStride,
	}
	var lm *provision.LoadModel
	if err := t.span("provision.load_model", func() (err error) {
		lm, err = provision.NewLoadModel(in)
		return err
	}); err != nil {
		return planOut{}, err
	}
	if t.rec != nil {
		f0 := *in
		f0.WithBackup = false
		if err := t.span("provision.f0", func() error {
			_, err := provision.Switchboard(&f0)
			return err
		}); err != nil {
			return planOut{}, err
		}
	}
	var plan *provision.Plan
	if err := t.span("provision.switchboard", func() (err error) {
		plan, err = provision.Switchboard(in)
		return err
	}); err != nil {
		return planOut{}, err
	}
	var alloc *allocate.Result
	if err := t.span("allocate.build", func() (err error) {
		alloc, err = allocate.Build(lm, plan.Cores, plan.LinkGbps)
		return err
	}); err != nil {
		return planOut{}, err
	}
	return planOut{Cost: plan.Cost(r.world), Cores: plan.TotalCores(), Gbps: plan.TotalGbps(), MeanACL: alloc.MeanACL}, nil
}

// planGolden holds the plan the history of seeds 1 to 10 (variant 0 of runs
// with those seeds) produced when the benchmark was written. A change that
// alters the plan beyond solver rounding (a relative 1e-6) fails the run on
// these seeds; every op is also checked for exact agreement with the earlier
// ops on its history.
var planGolden = map[int64]planOut{
	1:  {Cost: 173.52147612513096, Cores: 59.96592626807241, Gbps: 3.7279233413899195, MeanACL: 10.387541718618978},
	2:  {Cost: 183.94100542961178, Cores: 64.77312721772547, Gbps: 4.025962260095038, MeanACL: 9.71245458901375},
	3:  {Cost: 178.75719295401748, Cores: 60.759448835874636, Gbps: 3.939016648011895, MeanACL: 10.46347353187021},
	4:  {Cost: 168.01923464672586, Cores: 55.754687039844065, Gbps: 3.8769501757239433, MeanACL: 10.87651425976472},
	5:  {Cost: 180.8470614885897, Cores: 61.81887784427943, Gbps: 4.211178651593211, MeanACL: 10.27128155743408},
	6:  {Cost: 170.6124591124521, Cores: 59.39898905431342, Gbps: 4.002781918632134, MeanACL: 10.345105184724584},
	7:  {Cost: 173.6466090604947, Cores: 60.28072011626849, Gbps: 3.815641833415668, MeanACL: 10.01338910431445},
	8:  {Cost: 173.80823024928165, Cores: 60.73805810393622, Gbps: 3.291862464997392, MeanACL: 9.810273125139034},
	9:  {Cost: 174.3712116727465, Cores: 61.51472635561149, Gbps: 3.95920867212028, MeanACL: 10.148464486655481},
	10: {Cost: 181.37354753977195, Cores: 63.883861633057435, Gbps: 3.8021186392299122, MeanACL: 10.058011838698711},
}

func close6(a, b float64) bool { return math.Abs(a-b) <= 1e-6*math.Max(math.Abs(a), math.Abs(b)) }

func runPlan(run *run) error {
	rigs, setup, err := repeatSetup(run, func() ([]*planRig, error) { return setupPlans(run.seed) },
		func(rs []*planRig) uint64 {
			h := fnv.New64a()
			for _, r := range rs {
				_, _ = fmt.Fprint(h, r.digest)
			}
			return h.Sum64()
		}, func([]*planRig) {})
	if err != nil {
		return err
	}
	var rec *recorder
	if run.trace {
		rec = newRecorder(1024)
	}
	p, err := timeOps(run.duration(), len(rigs), rec, "plan.op", func(v int, t timer) (planOut, error) {
		return rigs[v].plan(t)
	})
	if err != nil {
		return err
	}
	run.attempted = int64(len(p.outs))
	checkRepeats(run, p)
	if g, ok := planGolden[run.seed]; ok {
		o := p.warm
		run.check(close6(o.Cost, g.Cost) && close6(o.Cores, g.Cores) && close6(o.Gbps, g.Gbps) && close6(o.MeanACL, g.MeanACL),
			"seed %d planned %+v, recorded %+v", run.seed, o, g)
	}
	run.info["plan"] = p.warm
	run.env(p.ph)
	if run.trace {
		layerPlan(run, rec)
		run.layer("runtime.gc_cpu_pct", p.ph.gcCPUPct)
		run.layer("runtime.heap_live_mb", p.ph.heapMB)
		return run.writeSpans(rec)
	}
	sequential(run, p, setup)
	return nil
}

// layerPlan reports each pipeline stage's median time per op.
func layerPlan(run *run, rec *recorder) {
	spans := rec.snapshot()
	ms := func(name string) float64 {
		var v []float64
		for _, s := range spans {
			if s.Name == name {
				v = append(v, float64(s.dur())/1e6)
			}
		}
		return median(v)
	}
	run.layer("forecast.fit_ms", ms("forecast.fit"))
	run.layer("records.envelope_ms", ms("records.envelope"))
	run.layer("provision.load_model_ms", ms("provision.load_model"))
	run.layer("provision.f0_ms", ms("provision.f0"))
	run.layer("provision.sweep_ms", ms("provision.switchboard")-ms("provision.f0"))
	run.layer("allocate.build_ms", ms("allocate.build"))
}

// planLayerOps is how many traced plans sim_des's traced run makes.
const planLayerOps = 2

// planLayers measures the offline pipeline's layers on traced plans of the
// seed's first history. plan_offline is not a workload of BENCHMARK.json
// (see README.md), so sim_des's traced run, the other offline computation,
// measures them.
func planLayers(run *run) error {
	rig, err := setupPlan(run.seed)
	if err != nil {
		return err
	}
	rec := newRecorder(64)
	for i := uint64(0); i < planLayerOps; i++ {
		s := rec.now()
		if _, err := rig.plan(timer{rec: rec, op: i, parent: "plan.op"}); err != nil {
			return fmt.Errorf("traced plan: %w", err)
		}
		rec.add(span{Name: "plan.op", Op: i, Start: s, End: rec.now()})
	}
	layerPlan(run, rec)
	return nil
}
