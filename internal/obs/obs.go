// Package obs is Switchboard's dependency-free observability subsystem: a
// concurrent metrics registry (counters, gauges, fixed-bucket histograms)
// rendered in Prometheus text exposition format, a bounded ring buffer that
// records every placement/migration/failover decision the realtime
// controller takes, and HTTP middleware for per-route request telemetry.
//
// Switchboard's value proposition is quantitative — provisioning cost, ACL,
// migration rates — so the running service must expose the same quantities
// continuously. The paper's controller (§6.6) lives against fleet telemetry;
// this package is that substrate for the reproduction, and the baseline every
// future performance PR reports against.
//
// Design rules:
//
//   - Zero allocation and no locks on the hot paths: Counter.Inc,
//     Counter.Add, Gauge.Set, and Histogram.Observe never allocate and never
//     take a lock. Counters and histograms are striped across cache-line-
//     padded per-goroutine lanes, so concurrent writers never contend on a
//     line; scrapes aggregate the lanes lazily. Vec.With on an already-
//     interned label set is lock-free (an atomic load of a copy-on-write
//     map); hot callers still cache the child at wire-up time.
//   - Nil-safe sinks: every sink method (Inc/Add/Observe/Set) is a no-op on
//     a nil receiver, so instrumented code never guards with `if m != nil`.
//     Construction decides whether telemetry is on; call sites stay branch-
//     free and unconditional.
//   - Naming scheme: sb_<subsystem>_<quantity>[_<unit>][_total], e.g.
//     sb_controller_calls_started_total, sb_kvstore_client_cmd_seconds.
//     Counters end in _total; durations are histograms in seconds.
//
// The package is stdlib-only and imports nothing from the rest of the
// module, so every layer (controller, kvstore, faults, httpapi, sim, eval)
// can depend on it without cycles.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metricKind discriminates families for exposition rendering.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Counter is a monotonically increasing uint64, striped across
// cache-line-padded lanes so concurrent writers on different CPUs never
// contend on one line. Writes touch a single lane; Value sums the lanes
// lazily — the scrape pays for aggregation, not the hot path. The zero value
// is usable; all methods are safe for concurrent use and no-ops on a nil
// receiver.
type Counter struct {
	cells [numStripes]stripedCell
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.cells[stripeIdx()].n.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.cells[stripeIdx()].n.Add(n)
	}
}

// Value returns the current count (0 on nil), summing the stripes. Each lane
// is monotonic, so concurrent writes can only make the result a valid earlier
// total, never an invalid one.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var v uint64
	for i := range c.cells {
		v += c.cells[i].n.Load()
	}
	return v
}

// Gauge is a float64 that can go up and down, stored as IEEE-754 bits in a
// uint64 so Set is one atomic store. Nil-safe like Counter.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the gauge by delta (CAS loop; rarely contended).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed, cumulative-rendered buckets.
// Bounds are immutable after construction. Observe is lock-free and striped:
// each writer lane owns a cache-line-aligned block of bucket counters plus
// its own total and running-sum cells, so concurrent observers never share a
// line; scrape-side readers sum the lanes lazily. Each bucket can also carry
// one exemplar — the trace ID and value of the last exemplared observation to
// land in it — linking a fleet scrape back into sbtrace.
type Histogram struct {
	bounds []float64 // immutable upper bounds, ascending
	// cells is numStripes lanes of stride cells each. Within a lane:
	// [0..len(bounds)] bucket counts (last is +Inf), then the lane's
	// observation total, then its running sum as float64 bits. stride is
	// rounded to a cache-line multiple so lanes never share a line.
	cells     []atomic.Uint64
	stride    int
	exemplars []exemplarCell // len(bounds)+1, shared across lanes
}

// exemplarCell holds one bucket's exemplar: the trace ID (0 = none) and the
// float64 bits of the observed value. The two stores are not paired
// atomically; exemplars are best-effort breadcrumbs, and a torn pair still
// names a real trace in the right bucket.
type exemplarCell struct {
	trace atomic.Uint64
	vbits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.observe(v, 0) }

// ObserveExemplar records one sample and, when traceID is nonzero, stamps it
// as the bucket's exemplar so scrapes can link the bucket to a trace.
func (h *Histogram) ObserveExemplar(v float64, traceID uint64) { h.observe(v, traceID) }

func (h *Histogram) observe(v float64, traceID uint64) {
	if h == nil {
		return
	}
	// Linear scan: bucket lists are short (≤20) and typically hit early,
	// which beats binary search's branch misses at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	base := stripeIdx() * h.stride
	h.cells[base+i].Add(1)
	h.cells[base+len(h.bounds)+1].Add(1)
	sum := &h.cells[base+len(h.bounds)+2]
	for {
		old := sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if sum.CompareAndSwap(old, next) {
			break
		}
	}
	if traceID != 0 {
		e := &h.exemplars[i]
		e.vbits.Store(math.Float64bits(v))
		e.trace.Store(traceID)
	}
}

// BucketCount returns the (non-cumulative) count of bucket i, where
// i == len(Bounds()) is the +Inf bucket. 0 on nil or out of range.
func (h *Histogram) BucketCount(i int) uint64 {
	if h == nil || i < 0 || i > len(h.bounds) {
		return 0
	}
	var n uint64
	for s := 0; s < numStripes; s++ {
		n += h.cells[s*h.stride+i].Load()
	}
	return n
}

// Bounds returns the bucket upper bounds (the +Inf bucket is implicit). The
// slice must not be modified. Nil on nil.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// Exemplar returns bucket i's exemplar trace ID and observed value; ok is
// false when the bucket never received an exemplared observation.
func (h *Histogram) Exemplar(i int) (traceID uint64, value float64, ok bool) {
	if h == nil || i < 0 || i > len(h.bounds) {
		return 0, 0, false
	}
	e := &h.exemplars[i]
	t := e.trace.Load()
	if t == 0 {
		return 0, 0, false
	}
	return t, math.Float64frombits(e.vbits.Load()), true
}

// Count returns the number of observations (0 on nil), summing the lanes.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	off := len(h.bounds) + 1
	var n uint64
	for s := 0; s < numStripes; s++ {
		n += h.cells[s*h.stride+off].Load()
	}
	return n
}

// Sum returns the sum of observed values (0 on nil), summing the lanes.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	off := len(h.bounds) + 2
	var v float64
	for s := 0; s < numStripes; s++ {
		v += math.Float64frombits(h.cells[s*h.stride+off].Load())
	}
	return v
}

// CountLE returns how many observations were ≤ bound, using the buckets with
// an upper bound ≤ bound (the histogram's resolution; pick an SLO threshold
// that is an exact bucket bound for an exact answer). 0 on nil.
func (h *Histogram) CountLE(bound float64) uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i, b := range h.bounds {
		if b > bound {
			break
		}
		n += h.BucketCount(i)
	}
	return n
}

// LatencyBuckets are the default duration buckets in seconds: 100 µs to 10 s
// in a 1-2.5-5 progression. The low end matches the in-process kvstore
// round-trip (~100 µs on loopback); the paper's Azure Redis writes land in
// 0.3–4.2 ms, i.e. the middle of the range; the top end catches deadline-
// bounded stalls (the client's default IOTimeout is 5 s).
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// family is one registered metric name with its samples.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string // for vecs; nil for plain metrics

	counter *Counter
	gauge   *Gauge
	hist    *Histogram

	// kids is the vec child map, copy-on-write: readers Load the current map
	// and index it with no lock — the lock-free fast path for already-
	// interned label sets. Writers (first observation of a new label set)
	// serialize on mu, copy the map, insert, and Store the copy.
	kids atomic.Pointer[map[string]*child]
	mu   sync.Mutex // serializes kids copy-on-write updates
}

// child is one labeled sample of a vec family.
type child struct {
	labelVals []string
	counter   *Counter
	hist      *Histogram
	gauge     *Gauge
}

// Registry holds metric families and renders them. The zero value is not
// usable; call NewRegistry. A nil *Registry is a valid "telemetry off"
// registry: every constructor returns a nil metric whose sink methods are
// no-ops, so wiring code can pass nil straight through.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register adds a family, panicking on duplicate names with a different
// shape — a wiring bug worth failing loudly on at startup, matching how
// Prometheus client libraries treat duplicate registration.
func (r *Registry) register(name, help string, kind metricKind, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels}
	r.families[name] = f
	return f
}

// Counter registers (or fetches) a plain counter. Nil-safe: a nil registry
// returns a nil counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.register(name, help, kindCounter, nil)
	if f.counter == nil {
		f.counter = &Counter{}
	}
	return f.counter
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.register(name, help, kindGauge, nil)
	if f.gauge == nil {
		f.gauge = &Gauge{}
	}
	return f.gauge
}

// Histogram registers (or fetches) a histogram with the given ascending
// bucket upper bounds (a final +Inf bucket is implicit). A nil or empty
// bounds slice uses LatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	f := r.register(name, help, kindHistogram, nil)
	if f.hist == nil {
		f.hist = newHistogram(bounds)
	}
	return f.hist
}

// newHistogram allocates the striped lane arrays once per registered series.
//
//sblint:allowalloc(registration-time only; Observe on the hot path touches preallocated counters)
func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	// Per lane: len(b)+1 buckets, a total cell, and a sum cell — rounded up
	// to a whole number of 64-byte cache lines so lanes never false-share.
	stride := (len(b) + 3 + 7) &^ 7
	return &Histogram{
		bounds:    b,
		stride:    stride,
		cells:     make([]atomic.Uint64, numStripes*stride),
		exemplars: make([]exemplarCell, len(b)+1),
	}
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct {
	f *family
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	if len(labels) == 0 {
		panic("obs: CounterVec needs at least one label")
	}
	return &CounterVec{f: r.register(name, help, kindCounter, labels)}
}

// With returns the child counter for the given label values, creating it on
// first use. The lookup takes a read lock and allocates only on a miss; hot
// paths should cache the returned child. Nil-safe.
func (v *CounterVec) With(labelVals ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.childFor(labelVals).counter
}

// HistogramVec is a histogram family partitioned by label values. All
// children share the same bucket bounds.
type HistogramVec struct {
	f      *family
	bounds []float64
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if len(labels) == 0 {
		panic("obs: HistogramVec needs at least one label")
	}
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &HistogramVec{f: r.register(name, help, kindHistogram, labels), bounds: b}
}

// With returns the child histogram for the given label values. Nil-safe.
func (v *HistogramVec) With(labelVals ...string) *Histogram {
	if v == nil {
		return nil
	}
	c := v.f.childForHist(labelVals, v.bounds)
	return c.hist
}

// GaugeVec is a gauge family partitioned by label values (e.g. an SLO burn
// rate by window).
type GaugeVec struct {
	f *family
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	if len(labels) == 0 {
		panic("obs: GaugeVec needs at least one label")
	}
	return &GaugeVec{f: r.register(name, help, kindGauge, labels)}
}

// With returns the child gauge for the given label values. Nil-safe.
func (v *GaugeVec) With(labelVals ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.childForGauge(labelVals).gauge
}

// labelKey joins label values with a separator no sane label contains.
func labelKey(vals []string) string {
	if len(vals) == 1 {
		return vals[0]
	}
	return strings.Join(vals, "\x1f") //sblint:allowalloc(multi-label join; every hot-path series uses a single label and takes the branch above)
}

// lookup is the lock-free fast path: one atomic pointer load plus one map
// read against an immutable map.
func (f *family) lookup(key string) (*child, bool) {
	if m := f.kids.Load(); m != nil {
		c, ok := (*m)[key]
		return c, ok
	}
	return nil, false
}

// insert is the copy-on-write slow path, taken once per new label set: copy
// the current map, add the child, publish the copy. Existing readers keep
// their (still valid, still immutable) old map.
//
//sblint:allowalloc(series creation; the interned fast path in lookup never reaches here)
func (f *family) insert(key string, vals []string, build func(*child)) *child {
	f.mu.Lock()
	defer f.mu.Unlock()
	old := f.kids.Load()
	if old != nil {
		if c, ok := (*old)[key]; ok {
			return c
		}
	}
	next := make(map[string]*child, 1)
	if old != nil {
		next = make(map[string]*child, len(*old)+1)
		for k, v := range *old {
			next[k] = v
		}
	}
	c := &child{labelVals: append([]string(nil), vals...)}
	build(c)
	next[key] = c
	f.kids.Store(&next)
	return c
}

func (f *family) childFor(vals []string) *child {
	key := labelKey(vals)
	if c, ok := f.lookup(key); ok {
		return c
	}
	return f.insert(key, vals, func(c *child) { c.counter = &Counter{} })
}

func (f *family) childForGauge(vals []string) *child {
	key := labelKey(vals)
	if c, ok := f.lookup(key); ok {
		return c
	}
	return f.insert(key, vals, func(c *child) { c.gauge = &Gauge{} })
}

func (f *family) childForHist(vals []string, bounds []float64) *child {
	key := labelKey(vals)
	if c, ok := f.lookup(key); ok {
		return c
	}
	return f.insert(key, vals, func(c *child) { c.hist = newHistogram(bounds) }) //sblint:allowalloc(series creation; the interned fast path returned above)
}
