// Package switchboard is a from-scratch reproduction of "Switchboard:
// Efficient Resource Management for Conferencing Services" (Bothra et al.,
// ACM SIGCOMM 2023): a controller that provisions media-processing compute
// and WAN bandwidth for a global conferencing service and assigns every call
// to a datacenter, exploiting three ideas — peak-aware provisioning across
// time zones, joint compute+network optimization, and application-level
// (call-configuration) forecasting.
//
// This package is the public facade: it re-exports the domain types and
// wires the subsystems (see DESIGN.md for the full inventory):
//
//   - world model and cost tables (internal/geo)
//   - call configs, media-type load table (internal/model)
//   - synthetic Teams-like workload generation (internal/trace)
//   - call records database and latency estimation (internal/records)
//   - Holt-Winters demand forecasting (internal/forecast)
//   - RR / LF baselines and the Switchboard LP (internal/provision),
//     solved by a from-scratch simplex (internal/lp)
//   - the daily allocation plan (internal/allocate)
//   - the realtime controller and its RESP kvstore (internal/controller,
//     internal/kvstore)
//   - the recurring-meeting config predictor (internal/predict)
//   - the experiment harness regenerating every paper table and figure
//     (internal/eval)
//   - realtime-path telemetry: metrics, decision tracing, pprof
//     (internal/obs, served by cmd/switchboard -debug-addr)
//
// Quickstart:
//
//	world := switchboard.DefaultWorld()
//	gen, _ := switchboard.NewGenerator(switchboard.DefaultTraceConfig())
//	db := switchboard.NewRecordsDB(gen.Config().Start, world)  // via TraceConfig.Start
//	gen.EachCall(func(r *switchboard.CallRecord) bool { db.Add(r); return true })
//	in := &switchboard.ProvisionInputs{
//		World:              world,
//		Latency:            db.Estimator(30),
//		Demand:             db.PeakEnvelope(50),
//		LatencyThresholdMs: 120,
//		WithBackup:         true,
//	}
//	plan, _ := switchboard.Provision(in)
//	fmt.Println(plan.TotalCores(), plan.TotalGbps(), plan.Cost(world))
//
// See examples/ for runnable programs.
package switchboard

import (
	"io"
	"time"

	"switchboard/internal/allocate"
	"switchboard/internal/controller"
	"switchboard/internal/eval"
	"switchboard/internal/forecast"
	"switchboard/internal/geo"
	"switchboard/internal/kvstore"
	"switchboard/internal/model"
	"switchboard/internal/predict"
	"switchboard/internal/provision"
	"switchboard/internal/records"
	"switchboard/internal/trace"
)

// World model.
type (
	// World is the set of countries, datacenters, WAN links, and routing.
	World = geo.World
	// Country is one participant location.
	Country = geo.Country
	// CountryCode identifies a country ("US", "IN", ...).
	CountryCode = geo.CountryCode
	// DC is a datacenter hosting MP capacity.
	DC = geo.DC
	// Link is one inter-country WAN edge.
	Link = geo.Link
	// LinkSpec declares a link when building a custom world.
	LinkSpec = geo.LinkSpec
	// Region is a coarse service region (AMER, EMEA, APAC).
	Region = geo.Region
)

// Regions.
const (
	AMER = geo.AMER
	EMEA = geo.EMEA
	APAC = geo.APAC
)

// DefaultWorld returns the built-in 44-country, 12-DC world.
func DefaultWorld() *World { return geo.DefaultWorld() }

// NewWorld builds a custom world from explicit data.
func NewWorld(countries []Country, dcs []DC, links []LinkSpec) (*World, error) {
	return geo.NewWorld(countries, dcs, links)
}

// ReadWorld decodes a JSON world definition (see geo.WorldSpec).
func ReadWorld(r io.Reader) (*World, error) { return geo.ReadWorld(r) }

// WriteWorld encodes a world definition as indented JSON.
func WriteWorld(w io.Writer, world *World) error { return geo.WriteWorld(w, world) }

// Domain types.
type (
	// MediaType is a call's richest stream kind (audio/screen-share/video).
	MediaType = model.MediaType
	// CallConfig is the unit of forecasting and provisioning (§5.1).
	CallConfig = model.CallConfig
	// Spread is a config's per-country participant histogram.
	Spread = model.Spread
	// CountryCount is one spread element.
	CountryCount = model.CountryCount
	// CallRecord is one completed call's stored metadata.
	CallRecord = model.CallRecord
	// LegRecord is one participant's connection to the MP server.
	LegRecord = model.LegRecord
)

// Media types.
const (
	Audio       = model.Audio
	ScreenShare = model.ScreenShare
	Video       = model.Video
)

// NewSpread builds a canonical spread from per-country counts.
func NewSpread(counts map[CountryCode]int) Spread { return model.NewSpread(counts) }

// ParseConfigKey parses a CallConfig.Key() encoding.
func ParseConfigKey(key string) (CallConfig, error) { return model.ParseConfigKey(key) }

// Workload generation.
type (
	// TraceConfig parameterizes the synthetic workload generator.
	TraceConfig = trace.Config
	// Generator produces a deterministic Teams-like call trace.
	Generator = trace.Generator
)

// DefaultTraceConfig returns the generator parameters the experiments use.
func DefaultTraceConfig() TraceConfig { return trace.DefaultConfig() }

// NewGenerator validates the config and returns a trace generator.
func NewGenerator(cfg TraceConfig) (*Generator, error) { return trace.NewGenerator(cfg) }

// Records and demand.
type (
	// RecordsDB is the call records database (§5's building block 1).
	RecordsDB = records.DB
	// ConfigSeries is a config with its per-slot demand series.
	ConfigSeries = records.ConfigSeries
	// Demand is the provisioning input envelope.
	Demand = records.Demand
	// LatencyEstimator answers Lat(x, u) from pooled observations.
	LatencyEstimator = records.LatencyEstimator
)

// NewRecordsDB returns an empty records database anchored at origin.
func NewRecordsDB(origin time.Time, world *World) *RecordsDB { return records.New(origin, world) }

// LoadRecordsDB reads a snapshot written with RecordsDB.Save; the world must
// match the one the data was built with.
func LoadRecordsDB(r io.Reader, world *World) (*RecordsDB, error) { return records.Load(r, world) }

// EnvelopeFromSeries builds a provisioning demand envelope from explicit
// (observed or forecast) config series.
func EnvelopeFromSeries(series []ConfigSeries, cushion float64) *Demand {
	return records.EnvelopeFromSeries(series, cushion)
}

// Forecasting.
type (
	// ForecastModel is a fitted Holt-Winters state.
	ForecastModel = forecast.Model
	// ForecastAccuracy holds RMSE/MAE metrics (§6.5).
	ForecastAccuracy = forecast.Accuracy
)

// FitForecast fits Holt-Winters with fixed smoothing parameters.
func FitForecast(series []float64, season int, alpha, beta, gamma float64) (*ForecastModel, error) {
	return forecast.Fit(series, season, alpha, beta, gamma)
}

// FitForecastAuto grid-searches the smoothing parameters.
func FitForecastAuto(series []float64, season int) (*ForecastModel, error) {
	return forecast.FitAuto(series, season)
}

// EvaluateForecast compares a forecast with ground truth.
func EvaluateForecast(f, truth []float64) (ForecastAccuracy, error) {
	return forecast.Evaluate(f, truth)
}

// SeasonalNaiveForecast repeats the last observed season (baseline).
func SeasonalNaiveForecast(series []float64, season, horizon int) ([]float64, error) {
	return forecast.SeasonalNaive(series, season, horizon)
}

// DriftForecast extends the line through the first and last observations
// (baseline).
func DriftForecast(series []float64, horizon int) ([]float64, error) {
	return forecast.Drift(series, horizon)
}

// CompareForecasts scores Holt-Winters against the naive baselines on a
// train/test split.
func CompareForecasts(train, test []float64, season int) (*forecast.Comparison, error) {
	return forecast.Compare(train, test, season)
}

// Provisioning.
type (
	// ProvisionInputs bundles a provisioner's inputs.
	ProvisionInputs = provision.Inputs
	// Plan is a provisioning decision (cores per DC, Gbps per link).
	Plan = provision.Plan
	// LoadModel precomputes per-(config, DC) loads and ACLs.
	LoadModel = provision.LoadModel
	// FailureScenario is a set of DCs and links down simultaneously.
	FailureScenario = provision.Scenario
)

// Provision runs the Switchboard LP (Eq 3-9 with Eq 7-8 scenario maxima).
func Provision(in *ProvisionInputs) (*Plan, error) { return provision.Switchboard(in) }

// ProvisionRoundRobin runs the §3.1 baseline.
func ProvisionRoundRobin(in *ProvisionInputs) (*Plan, error) { return provision.RoundRobin(in) }

// ProvisionRoundRobinWeighted runs weighted round-robin with per-DC weights.
func ProvisionRoundRobinWeighted(in *ProvisionInputs, weights []float64) (*Plan, error) {
	return provision.RoundRobinWeighted(in, weights)
}

// ProvisionLocalityFirst runs the §3.2 baseline.
func ProvisionLocalityFirst(in *ProvisionInputs) (*Plan, error) { return provision.LocalityFirst(in) }

// NewLoadModel builds the shared load-accounting model.
func NewLoadModel(in *ProvisionInputs) (*LoadModel, error) { return provision.NewLoadModel(in) }

// DefaultBackup solves the §3.2 backup LP for given per-DC serving peaks.
func DefaultBackup(serving []float64) ([]float64, error) { return provision.DefaultBackup(serving) }

// PeakAwareBackup solves the §4.2 peak-aware capacity LP over a per-slot,
// per-DC demand matrix.
func PeakAwareBackup(demand [][]float64) ([]float64, error) {
	return provision.PeakAwareBackup(demand)
}

// Allocation plan.
type (
	// AllocationPlan is the daily latency-optimized allocation (Eq 10).
	AllocationPlan = allocate.Result
)

// BuildAllocationPlan computes the per-slot allocation within capacities.
func BuildAllocationPlan(lm *LoadModel, cores, linkGbps []float64) (*AllocationPlan, error) {
	return allocate.Build(lm, cores, linkGbps)
}

// Realtime controller.
type (
	// Controller is the realtime MP selector (§5.4).
	Controller = controller.Controller
	// ControllerConfig parameterizes a Controller.
	ControllerConfig = controller.Config
	// ControllerStats summarizes controller activity.
	ControllerStats = controller.Stats
	// Placer decides planned placements for known configs.
	Placer = controller.Placer
	// PlanPlacer tracks an allocation plan's remaining slots.
	PlanPlacer = controller.PlanPlacer
	// MinACLPlacer is the locality-first placement policy.
	MinACLPlacer = controller.MinACLPlacer
	// Event is one replayable controller input.
	Event = controller.Event
)

// NewController returns a realtime controller.
func NewController(cfg ControllerConfig) (*Controller, error) { return controller.New(cfg) }

// NewPlanPlacer indexes an allocation plan for slot accounting.
func NewPlanPlacer(configs []CallConfig, alloc [][][]float64, aclOf func(CallConfig, int) float64, nDCs int) *PlanPlacer {
	return controller.NewPlanPlacer(configs, alloc, aclOf, nDCs)
}

// BuildEvents expands call records into a time-ordered event stream.
func BuildEvents(recs []*CallRecord, freeze time.Duration) []Event {
	return controller.BuildEvents(recs, freeze)
}

// Predictor forecasts a recurring call's config before joins (§8).
type Predictor = controller.Predictor

// KV store.
type (
	// KVServer is the RESP-speaking in-memory store.
	KVServer = kvstore.Server
	// KVClient is a kvstore client over one connection.
	KVClient = kvstore.Client
	// KVOptions tunes the client's deadlines and redial/backoff policy.
	KVOptions = kvstore.Options
)

// NewKVServer returns an empty store.
func NewKVServer() *KVServer { return kvstore.NewServer() }

// DialKV connects a client to a kvstore (or Redis) server.
func DialKV(addr string) (*KVClient, error) { return kvstore.Dial(addr) }

// DialKVOptions connects a client with explicit robustness options.
func DialKVOptions(addr string, opts KVOptions) (*KVClient, error) {
	return kvstore.DialOptions(addr, opts)
}

// DialKVFailover connects to the first reachable address of an HA pair (or
// larger set) and fails over across the rest on transport errors and MOVED
// redirects. The usual shape is {primary, standby}.
func DialKVFailover(addrs []string, opts KVOptions) (*KVClient, error) {
	return kvstore.DialFailover(addrs, opts)
}

// Config prediction (§8).
type (
	// PredictDataset is recurring-meeting attendance history.
	PredictDataset = predict.Dataset
	// PredictModel is the trained MOMC + logistic-regression predictor.
	PredictModel = predict.Model
)

// BuildPredictDataset derives attendance matrices from series records.
func BuildPredictDataset(series map[uint64][]*CallRecord, minInstances int) *PredictDataset {
	return predict.BuildDataset(series, minInstances)
}

// TrainPredictor fits the attendance model.
func TrainPredictor(ds *PredictDataset) (*PredictModel, error) {
	return predict.Train(ds, predict.TrainOptions{})
}

// Experiments.
type (
	// EvalConfig scales an experiment environment.
	EvalConfig = eval.Config
	// EvalEnv is a built experiment environment.
	EvalEnv = eval.Env
)

// DefaultEvalConfig is the scale the committed EXPERIMENTS.md numbers use.
func DefaultEvalConfig() EvalConfig { return eval.DefaultConfig() }

// QuickEvalConfig is a reduced scale for fast runs.
func QuickEvalConfig() EvalConfig { return eval.QuickConfig() }

// NewEvalEnv generates the experiment trace and databases.
func NewEvalEnv(cfg EvalConfig) (*EvalEnv, error) { return eval.NewEnv(cfg) }
