package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"switchboard/internal/kvstore"
	"switchboard/internal/obs"
)

// stretch is how long the closed loop runs on one set of client goroutines.
// The timed phase restarts them every stretch, and the traced run alternates
// untraced and traced stretches, so slow changes of the machine's speed
// (which on the reference VM flipped between regimes almost a factor of two
// apart, for tens of seconds at a time) fall on both sides alike.
const stretch = time.Second

// runCallctlTraced is the traced run: untraced and traced stretches of the
// closed loop alternating, so slow drifts fall on both sides and their
// difference is the tracing overhead (the traced stretches record a span
// per request and per handler call); then the generator against a stub
// handler, the op stream replayed straight into the controller, and direct
// store writes.
func runCallctlTraced(run *run, rig *callRig, conns []*genConn, lifecycles int64) error {
	rec := newRecorder(1 << 20)
	var untraced, traced []uint32
	gather0 := persistTotals(rig.reg)
	stopLag := rig.sampleLag(run)
	m := startMeter()
	for i := 0; i < 2 || time.Since(m.t0) < run.duration(); i++ {
		var seg *recorder
		if i%2 == 1 {
			seg = rec
		}
		rig.handler.rec.Store(seg)
		l := rig.drive(conns, time.Now(), stretch, seg)
		rig.handler.rec.Store(nil)
		lifecycles += l.lifecycles
		run.attempted += l.requests()
		run.failed += l.failed
		if err := errors.Join(l.err, failedErr(l)); err != nil {
			stopLag()
			return err
		}
		if seg == nil {
			untraced = append(untraced, l.lat...)
		} else {
			traced = append(traced, l.lat...)
		}
	}
	ph := m.stop()
	stopLag()
	gather1 := persistTotals(rig.reg)
	run.env(ph)
	run.layer("runtime.gc_cpu_pct", ph.gcCPUPct)
	run.layer("runtime.heap_live_mb", ph.heapMB)
	if n := gather1.count - gather0.count; n > 0 {
		run.layer("controller.persist_us_mean", 1e6*(gather1.sum-gather0.sum)/float64(n))
	}
	slices.Sort(untraced)
	slices.Sort(traced)
	untracedP50 := nsToUs(percentile(untraced, 50))
	tracedP50 := nsToUs(percentile(traced, 50))
	run.layer("layers.trace_overhead_us", tracedP50-untracedP50)
	rig.verify(run, lifecycles)

	if err := stubLayer(run, run.duration()/8); err != nil {
		return err
	}
	rp, err := rig.replay(run, rec)
	if err != nil {
		return err
	}
	run.layer("controller.placer_us_per_op", rp.placerUs)
	run.layer("controller.placer_calls_per_op", rp.placerCalls)
	run.layer("controller.migrated_per_frozen", rp.migrated)
	ledger(run, rec.snapshot(), rp.persist, untracedP50, tracedP50)
	if err := run.writeSpans(rec); err != nil {
		return err
	}
	if !rig.repl {
		// The store is not on callctl_mem's path, and callctl_repl is not a
		// workload of BENCHMARK.json (see README.md): measure the store's
		// layers here, on a replicated pair attached to the rig after its
		// closed loop, so that a workload of the benchmark measures them.
		if err := rig.startStore(); err != nil {
			return fmt.Errorf("attaching a store: %w", err)
		}
		stopLag := rig.sampleLag(run)
		g0 := persistTotals(rig.reg)
		rp, err = rig.replay(run, newRecorder(1<<12))
		g1 := persistTotals(rig.reg)
		stopLag()
		if err != nil {
			return err
		}
		if n := g1.count - g0.count; n > 0 {
			run.layer("controller.persist_us_mean", 1e6*(g1.sum-g0.sum)/float64(n))
		}
	}
	run.layer("controller.writes_per_op", rp.writes)
	run.layer("controller.persist_us_p50", median(values(rp.persist)))
	return rig.storeLayers(run, run.duration()/4)
}

// maxUnexplainedPct is how much of the untraced median the ledger may leave
// unexplained before the traced run fails.
const maxUnexplainedPct = 15

// ledger splits the traced ops into layers and checks that the layers add
// up to the untraced median.
//
// An op's wire time is the client's time minus the handler's. The handler's
// time splits into the controller's own time, the placer's and the store
// writes', each taken from the direct replay of ops of the same step, and
// httpapi's time: what remains, including any wait for the store client the
// two connections share. The ledger averages this split over the traced ops
// whose latency lies within 2.5 percentiles of the traced median, so the
// layers add up to that median; the share by which it misses the untraced
// median is unexplained (tracing overhead and phase-to-phase variance).
func ledger(run *run, spans []span, persist map[uint64]float64, untracedP50, tracedP50 float64) {
	self := selfTimes(spans)
	opDur, wire := byName(spans, self, "op")
	handler, _ := byName(spans, self, "httpapi.handler")
	run.layer("net.wire_us_p50", percentile(values(wire), 50))
	run.layer("httpapi.handler_us_p50", percentile(values(handler), 50))

	// Per step of the replay: controller self time (without placer and
	// store), placer time, store-write time.
	var selfStep, placerStep, storeStep [3]float64
	var allSelf []float64
	for step, name := range stepNames {
		dur, selfUs := byName(spans, self, "controller."+name)
		run.layer("controller."+name+"_us_p50", percentile(values(dur), 50))
		var own, placer, store []float64
		for op, d := range dur {
			own = append(own, selfUs[op]-persist[op])
			placer = append(placer, d-selfUs[op])
			store = append(store, persist[op])
		}
		selfStep[step], placerStep[step], storeStep[step] = median(own), mean(placer), median(store)
		allSelf = append(allSelf, own...)
	}
	run.layer("controller.self_us_per_op", median(allSelf))

	sorted := values(opDur)
	lo, hi := percentile(sorted, 47.5), percentile(sorted, 52.5)
	var wireB, httpB, selfB, placerB, storeB float64
	var n int
	for op, d := range opDur {
		h, ok := handler[op]
		if !ok || d < lo || d > hi {
			continue
		}
		s := op % 3
		wireB += wire[op]
		httpB += h - selfStep[s] - placerStep[s] - storeStep[s]
		selfB += selfStep[s]
		placerB += placerStep[s]
		storeB += storeStep[s]
		n++
	}
	if n == 0 {
		run.check(false, "no traced op near the median to split into layers")
		return
	}
	k := float64(n)
	wireB, httpB, selfB, placerB, storeB = wireB/k, httpB/k, selfB/k, placerB/k, storeB/k
	sum := wireB + httpB + selfB + placerB + storeB
	run.layer("httpapi.self_us_per_op", httpB)
	run.layer("layers.sum_us", sum)
	unexplained := 100 * math.Abs(untracedP50-sum) / untracedP50
	run.layer("layers.unexplained_pct", unexplained)
	run.check(unexplained <= maxUnexplainedPct, "the layers explain %.1f us of the untraced median %.1f us: %.1f%% unexplained, above %v%%",
		sum, untracedP50, unexplained, maxUnexplainedPct)
	run.info["ledger_us"] = map[string]float64{
		"net.wire":           wireB,
		"httpapi":            httpB,
		"controller.self":    selfB,
		"controller.placer":  placerB,
		"controller.persist": storeB,
		"sum":                sum,
		"traced_op_p50":      tracedP50,
		"untraced_op_p50":    untracedP50,
		"band_ops":           k,
	}
}

// replayBase puts the replay's call and op IDs in their own range. It is a
// multiple of 3, so op%3 is the step as it is for the HTTP ops.
const replayBase = 3 << 60

// replayCalls is how many pool lifecycles the replay drives: the whole pool
// without a store, and a fixed prefix with the replicated store, whose
// writes take milliseconds each.
func (r *callRig) replayCalls() int {
	if r.kv != nil {
		return min(len(r.pool), 100)
	}
	return len(r.pool)
}

// replayed is what the direct replay measured, per op.
type replayed struct {
	persist     map[uint64]float64 // store-write time by op ID, us
	placerUs    float64
	placerCalls float64
	writes      float64 // store writes
	migrated    float64 // migrations per frozen call
}

// replay drives a fixed prefix of the call pool, in one goroutine, straight
// into a controller wired like the served one (to the rig's store, if it has
// one) but with a timed placer. Each op's store-write time comes from the
// controller's persist histogram.
func (r *callRig) replay(run *run, rec *recorder) (*replayed, error) {
	tp := &timedPlacer{p: r.placer, rec: rec}
	ctrl, err := r.newController(tp)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	hist := r.ctrlMetrics.PersistSeconds
	calls := r.replayCalls()
	persist := make(map[uint64]float64, 3*calls)
	var seq0 uint64
	if r.primary != nil {
		seq0 = r.primary.LastSeq()
	}
	for j := 0; j < calls; j++ {
		lc := &r.pool[j]
		id := uint64(replayBase) + uint64(j)
		for step := uint64(0); step < 3; step++ {
			op := replayBase + uint64(j)*3 + step
			tp.op, tp.parent = op, "controller."+stepNames[step]
			p0 := hist.Sum()
			start := rec.now()
			switch step {
			case 0:
				_, err = ctrl.CallStartedWithSeries(ctx, id, lc.country, lc.series, r.served)
			case 1:
				_, _, err = ctrl.ConfigKnown(ctx, id, lc.cfg, r.served)
			case 2:
				err = ctrl.CallEnded(ctx, id)
			}
			end := rec.now()
			if err != nil {
				return nil, fmt.Errorf("replay %s of call %d: %w", stepNames[step], id, err)
			}
			rec.add(span{Name: "controller." + stepNames[step], Op: op, Start: start, End: end})
			persist[op] = (hist.Sum() - p0) * 1e6
		}
	}
	ops := float64(3 * calls)
	var placerNs int64
	for _, s := range rec.snapshot() {
		if s.Name == "controller.placer" {
			placerNs += s.dur()
		}
	}
	out := &replayed{persist: persist, placerUs: float64(placerNs) / 1e3 / ops, placerCalls: float64(tp.calls) / ops}
	st := ctrl.Stats()
	run.check(st.Started == int64(calls) && st.Ended == st.Started && ctrl.ActiveCalls() == 0,
		"replay controller started %d, ended %d, %d active", st.Started, st.Ended, ctrl.ActiveCalls())
	run.check(st.Degraded == 0 && st.Dropped == 0, "replay store path degraded: %d degradations, %d dropped", st.Degraded, st.Dropped)
	if st.Frozen > 0 {
		out.migrated = float64(st.Migrated) / float64(st.Frozen)
	}
	if r.primary != nil {
		out.writes = float64(r.primary.LastSeq()-seq0) / ops
	}
	return out, nil
}

// sampleLag polls the primary's unacknowledged-entry count until stopped.
func (r *callRig) sampleLag(run *run) (stop func()) {
	if r.primary == nil {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var maxLag uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				maxLag = max(maxLag, r.primary.Lag())
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		run.layer("replica.lag_max", float64(maxLag))
	}
}

// storeLayers times direct HSET calls: against the replicated primary the
// load used (its log full), and against a fresh unreplicated server.
func (r *callRig) storeLayers(run *run, d time.Duration) error {
	repl, err := hsetLoop(r.primaryAddr, d, "bench:kv:")
	if err != nil {
		return err
	}
	srv := kvstore.NewServer()
	l, err := listen()
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = srv.Serve(l) }()
	plain, err := hsetLoop(l.Addr().String(), d/2, "bench:kv:")
	_ = srv.Close()
	wg.Wait()
	if err != nil {
		return err
	}
	rs, ps := micros(repl), micros(plain)
	run.layer("kvstore.hset_us_p50", percentile(rs, 50))
	run.layer("kvstore.hset_us_p99", percentile(rs, 99))
	run.layer("kvstore.plain_hset_us_p50", percentile(ps, 50))
	run.layer("replica.ack_us_p50", percentile(rs, 50)-percentile(ps, 50))
	var stalls int
	for _, v := range repl {
		if v >= replHeartbeat {
			stalls++
		}
	}
	run.layer("replica.stalls_per_10k", 1e4*float64(stalls)/float64(len(repl)))
	return nil
}

// hsetLoop issues HSETs one at a time for d and returns each one's latency.
func hsetLoop(addr string, d time.Duration, prefix string) ([]time.Duration, error) {
	c, err := kvstore.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer func() { _ = c.Close() }()
	var lat []time.Duration
	deadline := time.Now().Add(d)
	for i := 0; ; i++ {
		key := prefix + strconv.Itoa(i)
		s := time.Now()
		if !s.Before(deadline) {
			break
		}
		if err := c.HSet(key, "f", "v"); err != nil {
			return nil, fmt.Errorf("HSET %s: %w", key, err)
		}
		lat = append(lat, time.Since(s))
	}
	return lat, nil
}

// stubLayer measures the generator and the HTTP stack without the API:
// the closed loop against a handler that returns a fixed 200, and the
// generator's own allocations against a canned in-memory connection.
func stubLayer(run *run, d time.Duration) error {
	reply := []byte(`{"dc":0,"dc_name":"stub"}` + "\n")
	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(reply)
		}),
		ReadHeaderTimeout: 5 * time.Second,
	}
	l, err := listen()
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = srv.Serve(l) }()
	defer func() { _ = srv.Close(); wg.Wait() }()

	req := newRequest("/v1/call/start", `{"id":$ID,"country":"US"}`)
	var lat []time.Duration
	var mu sync.Mutex
	var first error
	var cwg sync.WaitGroup
	for i := 0; i < genConns; i++ {
		g, c, err := dialGen(l.Addr().String())
		if err != nil {
			return err
		}
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			defer func() { _ = c.Close() }()
			var mine []time.Duration
			var ferr error
			deadline := time.Now().Add(d)
			for k := uint64(0); ; k++ {
				s := time.Now()
				if !s.Before(deadline) {
					break
				}
				status, _, err := g.do(&req, k, k)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("stub answered %d", status)
				}
				if err != nil {
					ferr = err
					break
				}
				mine = append(mine, time.Since(s))
			}
			mu.Lock()
			lat = append(lat, mine...)
			first = errors.Join(first, ferr)
			mu.Unlock()
		}(i)
	}
	cwg.Wait()
	if first != nil {
		return first
	}
	run.layer("net.stub_us_p50", percentile(micros(lat), 50))

	resp := []byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(len(reply)) + "\r\n\r\n" + string(reply))
	g := newGenConn(&cannedConn{resp: resp})
	const n = 100_000
	if _, _, err := g.do(&req, 1, 1); err != nil {
		return err
	}
	m0 := mallocs()
	for k := uint64(0); k < n; k++ {
		if _, _, err := g.do(&req, k, k); err != nil {
			return err
		}
	}
	run.layer("net.gen_allocs_per_req", float64(mallocs()-m0)/n)
	return nil
}

// cannedConn answers every read with an endless repetition of one response
// and discards writes.
type cannedConn struct {
	resp []byte
	off  int
}

func (c *cannedConn) Read(p []byte) (int, error) {
	n := copy(p, c.resp[c.off:])
	c.off = (c.off + n) % len(c.resp)
	return n, nil
}

func (c *cannedConn) Write(p []byte) (int, error) { return len(p), nil }

// persistSnapshot is the controller persist histogram's running totals.
type persistSnapshot struct {
	count uint64
	sum   float64
}

// persistTotals reads sb_controller_persist_seconds through Registry.Gather,
// the structured scrape a fleet collector uses.
func persistTotals(reg *obs.Registry) persistSnapshot {
	for _, f := range reg.Gather() {
		if f.Name == "sb_controller_persist_seconds" && len(f.Points) == 1 {
			return persistSnapshot{count: f.Points[0].Count, sum: f.Points[0].Sum}
		}
	}
	return persistSnapshot{}
}
