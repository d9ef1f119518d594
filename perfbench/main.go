// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed time from a seed, checks the program's outputs, and
// prints every metric by name with its unit; the last line of standard
// output is one JSON object with the result. See README.md.
//
//	perfbench -workload callctl_mem -seed 1 -seconds 10 -trace 0
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

// unit of every metric the benchmark reports. BENCHMARK.json must list the
// same end-to-end and per-layer names; the run refuses to start otherwise.
var e2eUnits = map[string]string{
	"ops_per_s":     "1/s",
	"op_p50_us":     "us",
	"op_p99_us":     "us",
	"cpu_us_per_op": "us",
	"allocs_per_op": "count",
	"peak_rss_mb":   "MB",
	"setup_s":       "s",
}

var layerUnits = map[string]string{
	"net.wire_us_p50":                "us",
	"net.stub_us_p50":                "us",
	"net.gen_allocs_per_req":         "count",
	"httpapi.handler_us_p50":         "us",
	"httpapi.self_us_per_op":         "us",
	"controller.start_us_p50":        "us",
	"controller.config_us_p50":       "us",
	"controller.end_us_p50":          "us",
	"controller.self_us_per_op":      "us",
	"controller.placer_us_per_op":    "us",
	"controller.placer_calls_per_op": "count",
	"controller.writes_per_op":       "count",
	"controller.persist_us_mean":     "us",
	"controller.persist_us_p50":      "us",
	"controller.migrated_per_frozen": "ratio",
	"kvstore.hset_us_p50":            "us",
	"kvstore.hset_us_p99":            "us",
	"kvstore.plain_hset_us_p50":      "us",
	"replica.ack_us_p50":             "us",
	"replica.lag_max":                "count",
	"replica.stalls_per_10k":         "count",
	"forecast.fit_ms":                "ms",
	"records.envelope_ms":            "ms",
	"provision.load_model_ms":        "ms",
	"provision.f0_ms":                "ms",
	"provision.sweep_ms":             "ms",
	"allocate.build_ms":              "ms",
	"des.source_ms":                  "ms",
	"des.ns_per_event":               "ns",
	"des.events_per_op":              "count",
	"des.max_queue_len":              "count",
	"des.placement_ns_per_call":      "ns",
	"runtime.gc_cpu_pct":             "%",
	"runtime.heap_live_mb":           "MB",
	"layers.sum_us":                  "us",
	"layers.unexplained_pct":         "%",
	"layers.trace_overhead_us":       "us",
}

var workloads = map[string]func(*run) error{
	"callctl_mem":  func(r *run) error { return runCallctl(r, false) },
	"callctl_repl": func(r *run) error { return runCallctl(r, true) },
	"plan_offline": runPlan,
	"sim_des":      runDES,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one invocation's metrics and check outcomes.
type run struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spansDir string
	opsBound float64 // ops_per_s bound: the stationarity guard's limit

	metrics   map[string]metric // end-to-end
	layers    map[string]metric // per-layer
	failures  []string
	attempted int64
	failed    int64
	info      map[string]any
}

func (r *run) duration() time.Duration { return time.Duration(r.seconds) * time.Second }

func (r *run) e2e(name string, v float64) { r.metrics[name] = metric{v, e2eUnits[name]} }

func (r *run) layer(name string, v float64) { r.layers[name] = metric{v, layerUnits[name]} }

// check records a failed output check unless ok.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// stationary applies the stationarity guard to a timed phase.
func (r *run) stationary(h halves) {
	r.info["ops_per_s_first_half"] = h.First
	r.info["ops_per_s_second_half"] = h.Second
	if err := checkStationary(h, r.opsBound); err != nil {
		r.failures = append(r.failures, err.Error())
	}
}

// variantStride separates the seeds of a workload's input variants;
// variant 0 uses the run's seed itself.
const variantStride = 1_000_003

func variantSeed(seed int64, v int) int64 { return seed + int64(v)*variantStride }

// seqPhase is a timed phase of back-to-back ops.
type seqPhase[T comparable] struct {
	warm    T // the untimed warm-up op's output (variant 0)
	outs    []T
	durs    []time.Duration
	variant []int
	ph      phase
}

// timeOps runs one untimed warm-up op on variant 0, then ops on variants 0,
// 1, ..., k-1, 0, ... back to back until d has passed and more than k ops
// have run, so at least one variant has run twice. With rec set, each timed
// op is a root span named root and op records its children under t.
func timeOps[T comparable](d time.Duration, k int, rec *recorder, root string, op func(v int, t timer) (T, error)) (*seqPhase[T], error) {
	p := &seqPhase[T]{}
	var err error
	if p.warm, err = op(0, timer{}); err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	m := startMeter()
	for i := 0; len(p.durs) <= k || time.Since(m.t0) < d; i++ {
		v := i % k
		s := time.Now()
		out, err := op(v, timer{rec: rec, op: uint64(i), parent: root})
		e := time.Now()
		if err != nil {
			return nil, fmt.Errorf("op %d (variant %d): %w", i, v, err)
		}
		if rec != nil {
			rec.add(span{Name: root, Op: uint64(i), Start: int64(s.Sub(rec.base)), End: int64(e.Sub(rec.base))})
		}
		p.outs = append(p.outs, out)
		p.durs = append(p.durs, e.Sub(s))
		p.variant = append(p.variant, v)
	}
	p.ph = m.stop()
	return p, nil
}

// checkRepeats records whether every op reproduced the output of the
// earlier op on the same variant, the warm-up op included.
func checkRepeats[T comparable](r *run, p *seqPhase[T]) {
	first := map[int]T{0: p.warm}
	for i, o := range p.outs {
		f, seen := first[p.variant[i]]
		if !seen {
			first[p.variant[i]] = o
			continue
		}
		r.check(o == f, "op %d on variant %d produced %+v, an earlier op produced %+v", i, p.variant[i], o, f)
	}
}

// sequential reports the end-to-end metrics of a phase of back-to-back ops.
// Throughput is over the ops' own time, so it does not depend on where the
// last op ended relative to the phase length.
func sequential[T comparable](r *run, p *seqPhase[T], setup float64) {
	ops := float64(len(p.durs))
	var busy time.Duration
	ms := make([]float64, len(p.durs))
	for i, d := range p.durs {
		busy += d
		ms[i] = float64(d) / 1e6
	}
	r.info["op_ms"] = ms
	lat := micros(p.durs)
	r.e2e("ops_per_s", ops/busy.Seconds())
	r.e2e("op_p50_us", percentile(lat, 50))
	tail(r, lat, func(us float64) float64 { return us })
	r.e2e("cpu_us_per_op", float64(p.ph.cpu)/float64(time.Microsecond)/ops)
	r.e2e("allocs_per_op", float64(p.ph.mallocs)/ops)
	r.e2e("setup_s", setup)
	r.stationary(splitVariants(p.durs, p.variant))
}

// tail reports op_p99_us from ascending samples, converted by us: the 99th
// percentile when at least ten ops lie beyond it, else the highest
// percentile that leaves ten ops beyond it, and the median when the run has
// fewer than twenty ops. A percentile with fewer samples beyond it measures
// single outliers, not the workload.
func tail[T cmp.Ordered](r *run, sorted []T, us func(T) float64) {
	p := tailPercentile(len(sorted))
	r.info["op_p99_us_percentile"] = p
	r.info["op_samples"] = len(sorted)
	r.e2e("op_p99_us", us(percentile(sorted, p)))
}

// env stamps the run with its environment and the timed phase's CPU steal.
func (r *run) env(p phase) { r.info["env"] = environment(p) }

func (r *run) writeSpans(rec *recorder) error {
	if r.spansDir == "" {
		return nil
	}
	stride, err := rec.writeJSONL(r.spansDir, spanFile(r.workload, r.seed))
	r.info["spans_written_op_stride"] = stride
	return err
}

// A run sets up at least minSetups times, and more, up to maxSetups, until
// setupBudget seconds of set-up have run.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 2.0
)

// repeatSetup runs a workload's set-up several times, tearing down all but
// the last, and returns the last with the median set-up time: one set-up is
// too short a sample to be steady. It sets up at least three times, and more
// (up to 25) until two seconds of set-up have run, so a cheap set-up gets
// more samples. Every set-up from one seed must generate identical inputs.
// The traced run sets up once; it reports no set-up time.
func repeatSetup[T any](r *run, setup func() (T, error), digest func(T) uint64, teardown func(T)) (T, float64, error) {
	minN, maxN := minSetups, maxSetups
	if r.trace {
		minN, maxN = 1, 1
	}
	var rig T
	var times []float64
	var digests []uint64
	var spent float64
	for i := 0; i < maxN && (i < minN || spent < setupBudget); i++ {
		if i > 0 {
			teardown(rig)
			runtime.GC()
		}
		t := time.Now()
		var err error
		rig, err = setup()
		if err != nil {
			var zero T
			return zero, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
		spent += times[i]
		digests = append(digests, digest(rig))
	}
	checkSeeds(r, digests)
	r.info["setup_s_each"] = times
	// Start every workload from a collected heap: the garbage of set-up is
	// not the timed phase's work.
	runtime.GC()
	return rig, median(times), nil
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

// loadSpec reads the ops_per_s bound and checks that BENCHMARK.json and
// this program name the same metrics.
func loadSpec(path string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	var e2e, layers []string
	bound := -1.0
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
		if m.Name == "ops_per_s" {
			bound = m.Bound
		}
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	if !sameNames(e2e, e2eUnits) || !sameNames(layers, layerUnits) {
		return 0, fmt.Errorf("%s does not list the metrics this benchmark reports", path)
	}
	if bound <= 0 {
		return 0, fmt.Errorf("%s: no bound for ops_per_s", path)
	}
	return bound, nil
}

func sameNames(names []string, units map[string]string) bool {
	if len(names) != len(units) {
		return false
	}
	for _, n := range names {
		if _, ok := units[n]; !ok {
			return false
		}
	}
	return true
}

func main() {
	workload := flag.String("workload", "", "workload to run: callctl_mem, callctl_repl, plan_offline or sim_des")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics; 0 reports end-to-end metrics")
	spansDir := flag.String("spans", "", "directory the traced run writes its spans to (empty: not written)")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics and their bounds")
	flag.Parse()

	if err := mainErr(*workload, *seed, *seconds, *traceFlag, *spansDir, *specPath); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds, traceFlag int, spansDir, specPath string) error {
	f, ok := workloads[workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %v)", workload, names)
	}
	if seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		return errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	bound, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	r := &run{
		workload: workload,
		seed:     seed,
		seconds:  seconds,
		trace:    traceFlag == 1,
		spansDir: spansDir,
		opsBound: bound,
		metrics:  map[string]metric{},
		layers:   map[string]metric{},
		info:     map[string]any{"workload": workload, "seed": seed, "trace": traceFlag},
	}
	if err := f(r); err != nil {
		return err
	}
	out := r.metrics
	want := e2eUnits
	if r.trace {
		// A layer the workload does not exercise reads 0.
		out, want = r.layers, layerUnits
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		r.e2e("peak_rss_mb", rss)
	}
	for name, unit := range want {
		if _, ok := out[name]; !ok {
			out[name] = metric{0, unit}
		}
	}
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.4f %s\n", n, out[n].Value, out[n].Unit)
	}
	r.check(r.attempted > 0, "no op was attempted")
	r.info["attempted"], r.info["failed"] = r.attempted, r.failed
	r.info["succeeded"] = r.attempted - r.failed
	r.info["failed_checks"] = r.failures
	info, err := json.Marshal(r.info)
	if err != nil {
		return err
	}
	fmt.Println(string(info))
	res, err := json.Marshal(result{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	if len(r.failures) > 0 {
		return fmt.Errorf("%d output checks failed: %v", len(r.failures), r.failures)
	}
	return nil
}
