package des

import (
	"fmt"
	"math"
	"sort"
	"time"

	"switchboard/internal/geo"
	"switchboard/internal/model"
)

// Arrival is one call entering the simulation: a config index into the
// fleet's universe, a virtual start time, and a duration.
type Arrival struct {
	ID uint64
	At int64 // virtual ns since the run origin, ≥ 0
	// Dur is the call's duration in ns, and must be ≥ 0: the engine's
	// departure queue takes every departure to be due no earlier than the
	// last one it dispatched.
	Dur int64
	Cfg int32
}

// Source produces the arrival stream, one call at a time in nondecreasing At
// order. Pull-based generation keeps the pending events few: the engine holds
// one pending arrival in a slot, and Engine.Run at most three fixed chunks of
// arrivals pulled ahead, so a 10M-call run never materializes 10M arrival
// events. The engine calls Next on one goroutine at a time, in stream order:
// under Run that is a producer goroutine Run starts, not the caller's, and
// Next is never called after Run returns.
type Source interface {
	// Next fills a with the next arrival, returning false at end of stream.
	Next(a *Arrival) bool
	// Configs returns the config universe arrivals index into.
	Configs() []model.CallConfig
}

// SynthConfig parameterizes the built-in synthetic workload.
type SynthConfig struct {
	// Seed drives every draw.
	Seed int64
	// Calls is the total number of calls to generate.
	Calls int
	// CallsPerDay shapes the arrival rate (the diurnal curve integrates to
	// this many calls per simulated day). Zero defaults to Calls, i.e. a
	// one-day run.
	CallsPerDay int
	// Configs is the size of the generated config universe (0: 64).
	Configs int
	// MinDur/MeanDur/MaxDur bound call durations (0: 60s / 8m / 4h).
	MinDur, MeanDur, MaxDur time.Duration
}

func (c *SynthConfig) withDefaults() SynthConfig {
	out := *c
	if out.Configs <= 0 {
		out.Configs = 64
	}
	if out.CallsPerDay <= 0 {
		out.CallsPerDay = out.Calls
	}
	if out.MinDur <= 0 {
		out.MinDur = time.Minute
	}
	if out.MeanDur <= 0 {
		out.MeanDur = 8 * time.Minute
	}
	if out.MaxDur <= 0 {
		out.MaxDur = 4 * time.Hour
	}
	return out
}

// SynthSource generates a deterministic Teams-like workload directly in the
// engine's units: a zipf-weighted config universe drawn from the geo world's
// demand shares, a diurnal arrival-rate curve, and exponential interarrivals
// and durations. It is the million-call counterpart of internal/trace — that
// generator builds full per-leg call records for the provisioning pipeline;
// this one builds four-field arrivals at tens of millions per second.
//
// Next runs the same IEEE operations on the same inputs as the plain
// formulas, so the stream is fixed by the seed: the per-slot mean
// interarrival and the duration scale are divided out once, and a config
// pick starts its search where a 256-entry guide table puts it.
type SynthSource struct {
	cfg      SynthConfig
	cfgs     []model.CallConfig
	cumw     []float64  // cumulative config weights, normalized to 1
	guide    [256]int32 // guide[k]: the first config with cumw ≥ k/256
	slotRate []float64  // arrivals per ns, per slot of day
	slotMean []float64  // 1/slotRate: the mean interarrival, ns
	durScale float64    // MeanDur − MinDur: the mean of the exponential part
	rng      Stream
	next     uint64
	now      int64
}

// slotsPerDay mirrors model.SlotsPerDay (30-minute slots).
const slotNs = int64(30 * time.Minute)

// NewSynthSource builds the workload. The config universe, weights, and
// rate curve are pure functions of the seed and config.
func NewSynthSource(w *geo.World, cfg SynthConfig) (*SynthSource, error) {
	cfg = cfg.withDefaults()
	if cfg.Calls <= 0 {
		return nil, fmt.Errorf("des: SynthConfig.Calls must be positive")
	}
	s := &SynthSource{cfg: cfg, rng: NewStream(cfg.Seed, StreamWorkload)}
	s.buildUniverse(w)
	s.buildRateCurve()
	s.durScale = float64(cfg.MeanDur) - float64(cfg.MinDur)
	return s, nil
}

// buildUniverse draws the config universe: mostly single-country calls with
// a cross-region minority, media mix weighted toward video, and zipf config
// popularity (the paper's top-1% coverage comes from exactly this shape).
func (s *SynthSource) buildUniverse(w *geo.World) {
	countries := w.Countries()
	var cumCountry []float64
	var total float64
	for _, c := range countries {
		total += c.Weight
		cumCountry = append(cumCountry, total)
	}
	pickCountry := func() geo.CountryCode {
		u := s.rng.Float64() * total
		i := sort.SearchFloat64s(cumCountry, u)
		if i >= len(countries) {
			i = len(countries) - 1
		}
		return countries[i].Code
	}
	seen := map[string]int{}
	var weights []float64
	for k := 0; len(s.cfgs) < s.cfg.Configs && k < 4*s.cfg.Configs; k++ {
		var media model.MediaType
		switch u := s.rng.Float64(); {
		case u < 0.45:
			media = model.Audio
		case u < 0.85:
			media = model.Video
		default:
			media = model.ScreenShare
		}
		counts := map[geo.CountryCode]int{}
		counts[pickCountry()] += 2 + s.rng.Intn(7)
		if s.rng.Float64() < 0.30 {
			counts[pickCountry()] += 1 + s.rng.Intn(4)
		}
		cfg := model.CallConfig{Media: media, Spread: model.NewSpread(counts)}
		wgt := 1 / math.Pow(float64(len(s.cfgs)+1), 0.8)
		if i, dup := seen[cfg.Key()]; dup {
			weights[i] += wgt
			continue
		}
		seen[cfg.Key()] = len(s.cfgs)
		s.cfgs = append(s.cfgs, cfg)
		weights = append(weights, wgt)
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	s.cumw = make([]float64, len(weights))
	var acc float64
	for i, w := range weights {
		acc += w / sum
		s.cumw[i] = acc
	}
	s.cumw[len(s.cumw)-1] = 1
	// Every cumw before the last is a running sum, so cumw ≥ u holds from
	// some index on for any u < 1 and the guided scan in pickConfig stops
	// where a binary search would.
	i := int32(0)
	for k := range s.guide {
		for s.cumw[i] < float64(k)/256 {
			i++
		}
		s.guide[k] = i
	}
}

// buildRateCurve shapes arrivals with a business-hours bump so peaks and
// troughs exercise provisioning the way real demand does (internal/trace
// models per-country curves; one global curve is enough for fleet sweeps).
func (s *SynthSource) buildRateCurve() {
	slots := int(24 * time.Hour / time.Duration(slotNs))
	factors := make([]float64, slots)
	var sum float64
	for i := range factors {
		h := float64(i) * 24 / float64(slots)
		d := (h - 13.5) / 4.5
		factors[i] = 0.30 + 0.70*math.Exp(-d*d)
		sum += factors[i]
	}
	s.slotRate = make([]float64, slots)
	s.slotMean = make([]float64, slots)
	for i, f := range factors {
		// Integrating rate over a day yields CallsPerDay.
		s.slotRate[i] = float64(s.cfg.CallsPerDay) * f / (sum * float64(slotNs))
		s.slotMean[i] = 1 / s.slotRate[i]
	}
}

// Configs implements Source.
func (s *SynthSource) Configs() []model.CallConfig { return s.cfgs }

// Next implements Source.
func (s *SynthSource) Next(a *Arrival) bool {
	if s.next >= uint64(s.cfg.Calls) {
		return false
	}
	slot := int(s.now/slotNs) % len(s.slotMean)
	if slot < 0 {
		slot = 0
	}
	s.now += int64(s.rng.Exp(s.slotMean[slot]))
	s.next++
	a.ID = s.next
	a.At = s.now
	a.Cfg = s.pickConfig()
	a.Dur = s.drawDuration()
	return true
}

// pickConfig returns the first config whose cumulative weight reaches a
// uniform draw u. u·256 is exact, so u ≥ k/256 for its guide slot k, and the
// scan cannot start past the answer; it ends by the last config (cumw = 1).
func (s *SynthSource) pickConfig() int32 {
	u := s.rng.Float64()
	i := s.guide[int(u*256)]
	for s.cumw[i] < u {
		i++
	}
	return i
}

func (s *SynthSource) drawDuration() int64 {
	d := float64(s.cfg.MinDur) + s.rng.Exp(s.durScale)
	if max := float64(s.cfg.MaxDur); d > max {
		d = max
	}
	return int64(d)
}

// ExpectedPeakLoad estimates the peak-slot concurrent load the workload puts
// on each DC and link, assuming every call lands at its lowest-ACL candidate
// — the Little's-law provisioning baseline dessweep scales into capacities.
func (s *SynthSource) ExpectedPeakLoad(f *Fleet) (cores, gbps []float64) {
	cores = make([]float64, f.NumDCs())
	gbps = make([]float64, len(f.CapGbps))
	peakRate := 0.0
	for _, r := range s.slotRate {
		if r > peakRate {
			peakRate = r
		}
	}
	prev := 0.0
	for c := range s.cfgs {
		share := s.cumw[c] - prev
		prev = s.cumw[c]
		// Little's law: concurrency = arrival rate x mean residence.
		concurrent := peakRate * share * float64(time.Second) * s.cfg.MeanDur.Seconds()
		x := f.Candidates(int32(c))[0]
		cores[x] += concurrent * f.Cores(int32(c))
		for _, ll := range f.Links(int32(c), x) {
			gbps[ll.Link] += concurrent * ll.Gbps
		}
	}
	return cores, gbps
}

// RecordSource replays model.CallRecords (a parsed internal/tracefile trace
// or anything cmd/sbgen emits) through the engine. Records are sorted by
// (start, ID); the config universe is the distinct configs present.
type RecordSource struct {
	origin time.Time
	recs   []*model.CallRecord
	cfgs   []model.CallConfig
	cfgIdx []int32 // per record, index into cfgs
	calls  []int   // per config, how many records use it
	pos    int
}

// NewRecordSource indexes the records. The source's virtual origin is the
// earliest record start; Origin exposes it so trace timestamps line up. A
// record with legs and a negative Duration is an error: its call would end
// before it began.
func NewRecordSource(recs []*model.CallRecord) (*RecordSource, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("des: empty record set")
	}
	sorted := make([]*model.CallRecord, 0, len(recs))
	for _, r := range recs {
		if len(r.Legs) == 0 {
			continue
		}
		if r.Duration < 0 {
			return nil, fmt.Errorf("des: record %d has negative duration %v", r.ID, r.Duration)
		}
		sorted = append(sorted, r)
	}
	if len(sorted) == 0 {
		return nil, fmt.Errorf("des: no records with legs")
	}
	sort.SliceStable(sorted, func(i, j int) bool {
		if !sorted[i].Start.Equal(sorted[j].Start) {
			return sorted[i].Start.Before(sorted[j].Start)
		}
		return sorted[i].ID < sorted[j].ID
	})
	s := &RecordSource{origin: sorted[0].Start, recs: sorted}
	byKey := map[string]int32{}
	s.cfgIdx = make([]int32, len(sorted))
	for i, r := range sorted {
		cfg := r.Config()
		key := cfg.Key()
		idx, ok := byKey[key]
		if !ok {
			idx = int32(len(s.cfgs))
			byKey[key] = idx
			s.cfgs = append(s.cfgs, cfg)
			s.calls = append(s.calls, 0)
		}
		s.cfgIdx[i] = idx
		s.calls[idx]++
	}
	return s, nil
}

// Origin returns the virtual-time anchor (the earliest record start).
func (s *RecordSource) Origin() time.Time { return s.origin }

// Configs implements Source.
func (s *RecordSource) Configs() []model.CallConfig { return s.cfgs }

// Calls returns how many records use config c.
func (s *RecordSource) Calls(c int32) int { return s.calls[c] }

// Next implements Source.
func (s *RecordSource) Next(a *Arrival) bool {
	if s.pos >= len(s.recs) {
		return false
	}
	r := s.recs[s.pos]
	a.ID = r.ID
	a.At = r.Start.Sub(s.origin).Nanoseconds()
	a.Dur = r.Duration.Nanoseconds()
	a.Cfg = s.cfgIdx[s.pos]
	s.pos++
	return true
}
