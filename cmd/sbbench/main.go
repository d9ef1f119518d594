// Command sbbench measures the two core hot paths of the realtime service —
// the controller's in-memory placement decision and one kvstore round-trip
// over loopback TCP — and appends the results to BENCH_core.json, the repo's
// perf trajectory file: a history of runs keyed by git revision, so the
// trajectory across commits stays inspectable instead of being overwritten.
// CI runs it with -gate: a >10% ns/op regression on a core benchmark fails
// the build, and so does ANY allocs/op increase (allocation counts are
// deterministic, so the tolerance is zero; allocs are compared only between
// history entries marked allocs_gated, i.e. recorded under the same bench
// configuration). Label the PR bench-exempt, which sets SBBENCH_SKIP_GATE,
// when a regression is deliberate.
//
// core_placement runs with metrics and tracing ON — striped registry sinks,
// a child span per call exported to the sharded ring — so the recorded number
// is the production-shaped hot path, not the dark one.
//
// Usage:
//
//	sbbench                                   # print this run's JSON to stdout
//	sbbench -o BENCH_core.json -rev $(git rev-parse --short HEAD)
//	sbbench -benchtime 2s                     # longer sampling for quieter numbers
//	sbbench -o BENCH_core.json -rev HEAD -gate  # fail on core hot-path regression
//
// With -o, an existing file is loaded and the new run is appended to its
// "results" history (an entry with the same rev is replaced, so re-running
// on a dirty tree does not grow the file). A file in the pre-history flat
// format is migrated to a single "pre-history" entry.
//
// The same loops exist as BenchmarkCorePlacement / BenchmarkCoreKVRoundTrip
// in bench_test.go for `make bench` and profiling runs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"switchboard"
	"switchboard/internal/controller"
	"switchboard/internal/des"
	"switchboard/internal/geo"
	"switchboard/internal/kvstore/replica"
	"switchboard/internal/obs"
	"switchboard/internal/obs/span"
)

// result is one benchmark point. ns/op is the headline; allocs and bytes
// catch regressions the timer hides (a stray allocation on a 700ns path).
type result struct {
	Name       string  `json:"name"`
	Iterations int     `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	AllocsOp   int64   `json:"allocs_per_op"`
	BytesOp    int64   `json:"bytes_per_op"`
}

// run is one sbbench invocation: the machine it ran on, the revision it
// measured, and its benchmark points.
type run struct {
	Rev    string `json:"rev"`
	GoOS   string `json:"goos"`
	GoArch string `json:"goarch"`
	NumCPU int    `json:"num_cpu"`
	// AllocsGated marks entries recorded under the current gated-benchmark
	// configuration (telemetry-on placement loop). -gate compares
	// allocs_per_op only between marked entries: allocation counts are
	// deterministic, but changing what the bench loop instruments legitimately
	// changes them, so a config flip must not trip the gate against
	// pre-flip history.
	AllocsGated bool     `json:"allocs_gated,omitempty"`
	Results     []result `json:"results"`
}

// history is the trajectory file: every recorded run, oldest first.
type history struct {
	Results []run `json:"results"`
}

// legacyReport is the pre-history flat schema (one overwritten run with no
// rev), still recognized so old files migrate instead of erroring.
type legacyReport struct {
	GoOS    string   `json:"goos"`
	GoArch  string   `json:"goarch"`
	NumCPU  int      `json:"num_cpu"`
	Results []result `json:"results"`
}

// loadHistory reads an existing trajectory file, migrating the legacy flat
// format. A missing or unreadable file starts a fresh history.
func loadHistory(path string) []run {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var h history
	// History entries nest their own results; the inner slice being present
	// distinguishes the new schema from the legacy flat one (whose results
	// are bench points and leave run.Results nil).
	if json.Unmarshal(buf, &h) == nil && len(h.Results) > 0 && h.Results[0].Results != nil {
		return h.Results
	}
	var legacy legacyReport
	if json.Unmarshal(buf, &legacy) == nil && len(legacy.Results) > 0 {
		return []run{{
			Rev:    "pre-history",
			GoOS:   legacy.GoOS,
			GoArch: legacy.GoArch,
			NumCPU: legacy.NumCPU, Results: legacy.Results,
		}}
	}
	log.Printf("warning: %s is neither a bench history nor a legacy report; starting fresh", path)
	return nil
}

// gatedBenchmarks are the hot paths whose ns/op regressions fail a -gate run;
// the failover drill is excluded because its time is dominated by deliberate
// timeouts, not code under test.
var gatedBenchmarks = []string{"core_placement", "core_kv_round_trip"}

// gateTolerance is how much slower a gated benchmark may get before -gate
// fails: shared-runner noise sits well inside 10%, real regressions outside.
const gateTolerance = 1.10

// checkGate compares this run's gated benchmarks against the most recent
// prior run (skipping entries for the same rev, so re-runs on a dirty tree
// still compare against the actual predecessor). It returns the failures,
// one line each; no baseline means nothing to gate.
func checkGate(prior []run, this run, rev string) []string {
	var base *run
	for i := len(prior) - 1; i >= 0; i-- {
		if prior[i].Rev != rev {
			base = &prior[i]
			break
		}
	}
	if base == nil {
		log.Printf("gate: no prior run to compare against; passing")
		return nil
	}
	baseline := make(map[string]result, len(base.Results))
	for _, r := range base.Results {
		baseline[r.Name] = r
	}
	if !base.AllocsGated {
		log.Printf("gate: baseline rev %q predates alloc gating; gating ns/op only", base.Rev)
	}
	var failures []string
	for _, r := range this.Results {
		gated := false
		for _, name := range gatedBenchmarks {
			if r.Name == name {
				gated = true
				break
			}
		}
		was, ok := baseline[r.Name]
		if !gated || !ok || was.NsPerOp <= 0 {
			continue
		}
		if r.NsPerOp > was.NsPerOp*gateTolerance {
			failures = append(failures, fmt.Sprintf(
				"%s regressed: %.0f ns/op -> %.0f ns/op (%+.1f%%, gate %.0f%%) vs rev %q",
				r.Name, was.NsPerOp, r.NsPerOp, (r.NsPerOp/was.NsPerOp-1)*100, (gateTolerance-1)*100, base.Rev))
		} else {
			log.Printf("gate: %s %.0f ns/op vs %.0f ns/op at rev %q: ok", r.Name, r.NsPerOp, was.NsPerOp, base.Rev)
		}
		// Allocation counts are deterministic — zero tolerance. Only gated
		// between entries recorded under the same bench configuration (see
		// run.AllocsGated).
		if base.AllocsGated && this.AllocsGated {
			if r.AllocsOp > was.AllocsOp {
				failures = append(failures, fmt.Sprintf(
					"%s allocates more: %d allocs/op -> %d allocs/op vs rev %q",
					r.Name, was.AllocsOp, r.AllocsOp, base.Rev))
			} else {
				log.Printf("gate: %s %d allocs/op vs %d allocs/op at rev %q: ok",
					r.Name, r.AllocsOp, was.AllocsOp, base.Rev)
			}
		}
	}
	return failures
}

// benchDES runs a fixed 200k-call simulated day on the DES engine and
// returns a point with Iterations = events processed and NsPerOp = wall-clock
// nanoseconds per event. The engine never reads the wall clock itself, so the
// timing lives here.
func benchDES() (result, error) {
	const calls = 200_000
	w := geo.DefaultWorld()
	src, err := des.NewSynthSource(w, des.SynthConfig{Seed: 1, Calls: calls})
	if err != nil {
		return result{}, err
	}
	f, err := des.NewFleet(w, src.Configs(), 120)
	if err != nil {
		return result{}, err
	}
	cores, gbps := src.ExpectedPeakLoad(f)
	for i := range cores {
		cores[i] *= 1.25
	}
	for i := range gbps {
		gbps[i] *= 1.25
	}
	if err := f.SetCapacity(cores, gbps); err != nil {
		return result{}, err
	}
	start := time.Now()
	res, err := des.Run(des.Config{Fleet: f, Source: src, Placement: des.LowestACL{}, Seed: 1})
	elapsed := time.Since(start)
	if err != nil {
		return result{}, err
	}
	if res.DroppedEvents != 0 {
		return result{}, fmt.Errorf("des bench dropped %d events", res.DroppedEvents)
	}
	return result{
		Name:       "core_des_events_per_sec",
		Iterations: int(res.Events),
		NsPerOp:    float64(elapsed.Nanoseconds()) / float64(res.Events),
	}, nil
}

func main() {
	out := flag.String("o", "", "output path (empty prints this run to stdout)")
	rev := flag.String("rev", "", "git revision this run measures (the history key)")
	benchtime := flag.Duration("benchtime", time.Second, "target sampling time per benchmark")
	gate := flag.Bool("gate", false,
		"fail when a core benchmark regresses more than 10% ns/op vs the previous recorded run (SBBENCH_SKIP_GATE=1 overrides)")
	flag.Parse()

	// testing.Benchmark honours -test.benchtime only via the testing flags,
	// which a plain main cannot set after flag.Parse; approximate it by
	// running until the measured time crosses the target.
	runBench := func(name string, fn func(b *testing.B)) result {
		var r testing.BenchmarkResult
		for n := 1; ; n *= 4 {
			r = testing.Benchmark(fn)
			if r.T >= *benchtime || n > 64 {
				break
			}
		}
		return result{
			Name:       name,
			Iterations: r.N,
			NsPerOp:    float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsOp:   r.AllocsPerOp(),
			BytesOp:    r.AllocedBytesPerOp(),
		}
	}

	placement := runBench("core_placement", func(b *testing.B) {
		// Metrics AND tracing on: this is the production-shaped hot path, not
		// the dark one. Every placement increments striped counters, times
		// itself into the place-seconds histogram (stamping exemplars), spawns
		// a child span under the bench root, and exports it to the sharded
		// ring — all of which the recorded ns/op must absorb.
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
	})

	srv := switchboard.NewKVServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	client, err := switchboard.DialKV(l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	kvRoundTrip := runBench("core_kv_round_trip", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := client.HSet("call:1", "state", "active"); err != nil {
				b.Fatal(err)
			}
		}
	})
	_ = client.Close()
	_ = srv.Close()

	// Promotion latency of an HA pair: kill the primary, clock stops when a
	// write lands on the promoted standby (same loop as BenchmarkFailover).
	failover := runBench("failover_promotion", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			psrv := switchboard.NewKVServer()
			pl, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go func() { _ = psrv.Serve(pl) }()
			replica.NewPrimary(psrv, 0, replica.PrimaryOptions{
				Heartbeat:  10 * time.Millisecond,
				AckTimeout: 200 * time.Millisecond,
			})
			ssrv := switchboard.NewKVServer()
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
			cl, err := switchboard.DialKVFailover(
				[]string{pl.Addr().String(), sl.Addr().String()},
				switchboard.KVOptions{
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
			if err := cl.HSet("call:1", "state", "active"); err != nil {
				b.Fatal(err)
			}
			for standby.LastSeq() == 0 {
				time.Sleep(time.Millisecond)
			}

			b.StartTimer()
			_ = psrv.Close()
			for {
				if err := cl.HSet("call:2", "state", "active"); err == nil {
					break
				}
			}
			b.StopTimer()

			_ = cl.Close()
			standby.Stop()
			<-standby.Done()
			_ = ssrv.Close()
			b.StartTimer()
		}
	})

	// DES engine throughput: one fixed 200k-call day through the simulation
	// queue (400k arrive/depart events), reported as ns per event so
	// 1e9/ns_per_op is events/s. Informational — not in gatedBenchmarks: the
	// engine's own TestEngineAllocsBounded guards allocations, and a
	// wall-clock gate on a shared runner would flake.
	desPoint, err := benchDES()
	if err != nil {
		log.Fatal(err)
	}

	this := run{
		Rev:         *rev,
		GoOS:        runtime.GOOS,
		GoArch:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		AllocsGated: true,
		Results:     []result{placement, kvRoundTrip, failover, desPoint},
	}
	if *out == "" {
		buf, err := json.MarshalIndent(this, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(buf))
		return
	}
	runs := loadHistory(*out)
	var gateFailures []string
	if *gate {
		if os.Getenv("SBBENCH_SKIP_GATE") != "" {
			log.Printf("gate: skipped (SBBENCH_SKIP_GATE set)")
		} else {
			gateFailures = checkGate(runs, this, *rev)
		}
	}
	replaced := false
	if *rev != "" {
		for i := range runs {
			if runs[i].Rev == *rev {
				runs[i] = this
				replaced = true
				break
			}
		}
	}
	if !replaced {
		runs = append(runs, this)
	}
	buf, err := json.MarshalIndent(history{Results: runs}, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d runs, rev %q)", *out, len(runs), *rev)
	// The run is recorded either way — a failed gate should still leave its
	// point in the trajectory for the investigation that follows.
	if len(gateFailures) > 0 {
		for _, f := range gateFailures {
			log.Printf("gate FAIL: %s", f)
		}
		os.Exit(1)
	}
}
