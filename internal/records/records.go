// Package records implements Switchboard's call records database (§5,
// building block 1): streaming ingestion of call-leg records into the
// aggregate views the rest of the controller consumes — per-config demand
// timeseries, pooled per-(DC, country) latency estimates, per-country compute
// demand (Fig 3), the participant join-time CDF (Fig 8), and config coverage
// statistics (Fig 7c).
//
// Ingestion keeps memory bounded: full records are only retained for
// recurring meeting series (the §8 predictor needs per-instance attendance);
// everything else is folded into fixed-size aggregates, so arbitrarily long
// traces stream through.
package records

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"switchboard/internal/geo"
	"switchboard/internal/model"
)

// DB is the call records database. Ingest with Add; it is not safe for
// concurrent writers.
type DB struct {
	origin time.Time
	world  *geo.World

	byConfig map[string]*configStats
	numSlots int // highest slot index seen + 1

	latency map[latKey]*reservoir

	// computeByCountry[country][slotIndex] = cores demanded by that
	// country's participants.
	computeByCountry map[geo.CountryCode][]float64

	joinHist   [joinHistBuckets]int64 // participant join offsets, 1-minute buckets
	totalLegs  int64
	totalCalls int64

	series map[uint64][]*model.CallRecord

	rng *rand.Rand
}

type configStats struct {
	cfg    model.CallConfig
	counts []float64 // per absolute slot index
	total  float64
}

type latKey struct {
	dc      int
	country geo.CountryCode
}

const (
	joinHistBuckets = 60 // minutes
	reservoirSize   = 512
)

// reservoir keeps a uniform sample of latency observations for one
// (DC, country) pair.
type reservoir struct {
	samples []float64
	seen    int64
	sorted  bool
}

func (r *reservoir) add(v float64, rng *rand.Rand) {
	r.seen++
	r.sorted = false
	if len(r.samples) < reservoirSize {
		r.samples = append(r.samples, v)
		return
	}
	if j := rng.Int63n(r.seen); j < reservoirSize {
		r.samples[j] = v
	}
}

func (r *reservoir) median() float64 {
	if len(r.samples) == 0 {
		return math.NaN()
	}
	if !r.sorted {
		sort.Float64s(r.samples)
		r.sorted = true
	}
	n := len(r.samples)
	if n%2 == 1 {
		return r.samples[n/2]
	}
	return (r.samples[n/2-1] + r.samples[n/2]) / 2
}

// New returns an empty database. origin anchors slot indices (slot 0 starts
// at origin); world is used for spread/region lookups and must match the
// trace's world.
func New(origin time.Time, world *geo.World) *DB {
	return &DB{
		origin:           origin,
		world:            world,
		byConfig:         make(map[string]*configStats),
		latency:          make(map[latKey]*reservoir),
		computeByCountry: make(map[geo.CountryCode][]float64),
		series:           make(map[uint64][]*model.CallRecord),
		rng:              rand.New(rand.NewSource(99)),
	}
}

// Add ingests one call record.
func (db *DB) Add(r *model.CallRecord) {
	slot := model.SlotIndex(db.origin, r.Start)
	if slot < 0 {
		return // before the observation window
	}
	if slot >= db.numSlots {
		db.numSlots = slot + 1
	}
	cfg := r.Config()
	key := cfg.Key()
	cs := db.byConfig[key]
	if cs == nil {
		cs = &configStats{cfg: cfg}
		db.byConfig[key] = cs
	}
	for len(cs.counts) <= slot {
		cs.counts = append(cs.counts, 0)
	}
	cs.counts[slot]++
	cs.total++
	db.totalCalls++

	cl := cfg.Media.ComputeLoad()
	for _, leg := range r.Legs {
		db.totalLegs++
		k := latKey{dc: r.DC, country: leg.Country}
		res := db.latency[k]
		if res == nil {
			res = &reservoir{}
			db.latency[k] = res
		}
		res.add(leg.LatencyMs, db.rng)

		bucket := int(leg.JoinOffset / time.Minute)
		if bucket >= joinHistBuckets {
			bucket = joinHistBuckets - 1
		}
		db.joinHist[bucket]++

		series := db.computeByCountry[leg.Country]
		for len(series) <= slot {
			series = append(series, 0)
		}
		series[slot] += cl
		db.computeByCountry[leg.Country] = series
	}

	if r.SeriesID != 0 {
		db.series[r.SeriesID] = append(db.series[r.SeriesID], r)
	}
}

// TotalCalls returns the number of ingested calls.
func (db *DB) TotalCalls() int64 { return db.totalCalls }

// NumSlots returns the number of 30-minute slots covered by ingested data.
func (db *DB) NumSlots() int { return db.numSlots }

// Origin returns the slot-0 anchor time.
func (db *DB) Origin() time.Time { return db.origin }

// NumConfigs returns the number of distinct call configs seen.
func (db *DB) NumConfigs() int { return len(db.byConfig) }

// TopConfigs returns the n most frequent call configs in descending call
// count, with their per-slot demand series (length NumSlots).
func (db *DB) TopConfigs(n int) []ConfigSeries {
	all := make([]ConfigSeries, 0, len(db.byConfig))
	for _, cs := range db.byConfig {
		counts := make([]float64, db.numSlots)
		copy(counts, cs.counts)
		all = append(all, ConfigSeries{Config: cs.cfg, Counts: counts, Total: cs.total})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Total != all[j].Total {
			return all[i].Total > all[j].Total
		}
		return all[i].Config.Key() < all[j].Config.Key()
	})
	if n < len(all) {
		all = all[:n]
	}
	return all
}

// ConfigSeries is a call config with its demand timeseries.
type ConfigSeries struct {
	Config model.CallConfig
	// Counts[i] is the number of calls in absolute slot i.
	Counts []float64
	// Total is the call count across the window.
	Total float64
}

// Coverage returns, for the top-fraction points given (e.g. 0.001, 0.01),
// the fraction of calls covered by that share of distinct configs — the
// paper's Fig 7c.
func (db *DB) Coverage(topFracs []float64) []float64 {
	totals := make([]float64, 0, len(db.byConfig))
	var sum float64
	for _, cs := range db.byConfig {
		totals = append(totals, cs.total)
		sum += cs.total
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(totals)))
	out := make([]float64, len(topFracs))
	for i, f := range topFracs {
		k := int(math.Ceil(f * float64(len(totals))))
		if k > len(totals) {
			k = len(totals)
		}
		var covered float64
		for _, v := range totals[:k] {
			covered += v
		}
		if sum > 0 {
			out[i] = covered / sum
		}
	}
	return out
}

// ComputeDemandByCountry returns the average per-slot-of-day compute demand
// (cores) generated by participants in the given country — Fig 3's series.
func (db *DB) ComputeDemandByCountry(country geo.CountryCode) []float64 {
	out := make([]float64, model.SlotsPerDay)
	series := db.computeByCountry[country]
	if len(series) == 0 {
		return out
	}
	days := make([]float64, model.SlotsPerDay)
	for i, v := range series {
		out[i%model.SlotsPerDay] += v
		days[i%model.SlotsPerDay]++
	}
	for i := range out {
		if days[i] > 0 {
			out[i] /= days[i]
		}
	}
	return out
}

// JoinCDF returns the cumulative fraction of participants joined by each
// minute offset — Fig 8.
func (db *DB) JoinCDF() []float64 {
	out := make([]float64, joinHistBuckets)
	var cum int64
	for i, n := range db.joinHist {
		cum += n
		if db.totalLegs > 0 {
			out[i] = float64(cum) / float64(db.totalLegs)
		}
	}
	return out
}

// SeriesRecords returns the retained recurring-meeting records grouped by
// series ID, each group in start-time order.
func (db *DB) SeriesRecords() map[uint64][]*model.CallRecord {
	for _, recs := range db.series {
		sort.Slice(recs, func(i, j int) bool { return recs[i].Start.Before(recs[j].Start) })
	}
	return db.series
}

// Estimator builds a latency estimator over the pooled observations,
// falling back to the world model for pairs with fewer than minSamples
// observations (the counterfactual pairs of §6.2: the logs only contain
// latencies for the DC that actually hosted each call).
func (db *DB) Estimator(minSamples int64) *LatencyEstimator {
	est := &LatencyEstimator{
		world:   db.world,
		medians: make(map[latKey]float64, len(db.latency)),
	}
	for k, r := range db.latency {
		if r.seen >= minSamples {
			est.medians[k] = r.median()
		}
	}
	return est
}

// LatencyEstimator answers Lat(x, u) queries: the median of observed call-leg
// latencies for the (DC, country) pair when data exists, otherwise the
// distance-model latency. It is safe for concurrent readers.
type LatencyEstimator struct {
	world   *geo.World
	medians map[latKey]float64
}

// Latency returns the estimated one-way latency in milliseconds between the
// DC and a participant in the country.
func (e *LatencyEstimator) Latency(dc int, country geo.CountryCode) float64 {
	if v, ok := e.medians[latKey{dc, country}]; ok {
		return v
	}
	return e.world.Latency(dc, country)
}

// Observed reports whether the pair's estimate comes from measured data.
func (e *LatencyEstimator) Observed(dc int, country geo.CountryCode) bool {
	_, ok := e.medians[latKey{dc, country}]
	return ok
}

// ACL returns the participant-weighted average call latency of hosting cfg
// at DC dc under this estimator (Table 2's ACL(x, c)).
func (e *LatencyEstimator) ACL(cfg model.CallConfig, dc int) float64 {
	var sum float64
	var n int
	for _, cc := range cfg.Spread {
		sum += e.Latency(dc, cc.Country) * float64(cc.Count)
		n += cc.Count
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
