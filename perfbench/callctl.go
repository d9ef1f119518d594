package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"switchboard/internal/allocate"
	"switchboard/internal/controller"
	"switchboard/internal/geo"
	"switchboard/internal/httpapi"
	"switchboard/internal/kvstore"
	"switchboard/internal/kvstore/replica"
	"switchboard/internal/model"
	"switchboard/internal/obs"
	obsspan "switchboard/internal/obs/span"
	"switchboard/internal/provision"
	"switchboard/internal/records"
	"switchboard/internal/trace"
)

const (
	// genConns is the closed loop's connection count: one per vCPU of the
	// reference machine, so the generator never needs more threads than
	// the server it measures.
	genConns = 2
	// planCalls sizes the set-up's trace: one day of history for the small
	// serving plan, and the following day's calls as the lifecycles the
	// load replays.
	planCalls = 2000
	// replLogCap is replica.PrimaryOptions' default log capacity, and
	// preloadWrites goes past it so every timed write takes the full-log
	// path a long-running store takes.
	replLogCap        = 1 << 16
	preloadWrites     = replLogCap + 8
	preloadCallWrites = 3
	// replHeartbeat is replica.PrimaryOptions' default heartbeat. A write
	// that takes at least this long waited out a heartbeat: a stall.
	replHeartbeat = 100 * time.Millisecond
	// warmup runs the closed loop before timing so connections, pools and
	// the plan placer's maps are warm.
	warmup = time.Second
)

var stepNames = [3]string{"start", "config", "end"}

// lifecycle is one call from the trace: its three requests pre-encoded for
// the wire, and the same inputs for the direct controller replay.
type lifecycle struct {
	reqs    [3]request
	country geo.CountryCode
	series  uint64
	cfg     model.CallConfig
}

func newLifecycle(rec *model.CallRecord) lifecycle {
	cfg := rec.ConfigFrozenAt(controller.DefaultFreeze)
	l := lifecycle{country: rec.Legs[0].Country, series: rec.SeriesID, cfg: cfg}
	country, _ := json.Marshal(string(l.country))
	key, _ := json.Marshal(cfg.Key())
	l.reqs[0] = newRequest("/v1/call/start", fmt.Sprintf(`{"id":$ID,"country":%s,"series_id":%d}`, country, rec.SeriesID))
	l.reqs[1] = newRequest("/v1/call/config", fmt.Sprintf(`{"id":$ID,"config":%s}`, key))
	l.reqs[2] = newRequest("/v1/call/end", `{"id":$ID}`)
	return l
}

// handlerSpans wraps the API's mux. While a recorder is armed it records one
// span per request, tagged with the op ID the generator sent.
type handlerSpans struct {
	h   http.Handler
	rec atomic.Pointer[recorder]
}

func (hs *handlerSpans) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	rec := hs.rec.Load()
	if rec == nil {
		hs.h.ServeHTTP(w, req)
		return
	}
	start := rec.now()
	hs.h.ServeHTTP(w, req)
	end := rec.now()
	op, _ := strconv.ParseUint(strings.TrimSpace(req.Header.Get(opHeader)), 10, 64)
	rec.add(span{Name: "httpapi.handler", Op: op, Parent: "op", Start: start, End: end})
}

// timedPlacer keeps the controller's Placer and AvoidingPlacer contract and
// records a span around every call into the plan placer. The replay drives
// it from one goroutine and sets op before each controller call.
type timedPlacer struct {
	p      *controller.PlanPlacer
	rec    *recorder
	op     uint64
	parent string
	calls  int64
}

func (t *timedPlacer) timed(start int64) {
	t.calls++
	t.rec.add(span{Name: "controller.placer", Op: t.op, Parent: t.parent, Start: start, End: t.rec.now()})
}

func (t *timedPlacer) Place(cfg model.CallConfig, slot, current int) (int, bool) {
	s := t.rec.now()
	defer t.timed(s)
	return t.p.Place(cfg, slot, current)
}

func (t *timedPlacer) PlaceAvoiding(cfg model.CallConfig, slot, current int, avoid func(int) bool) (int, bool) {
	s := t.rec.now()
	defer t.timed(s)
	return t.p.PlaceAvoiding(cfg, slot, current, avoid)
}

func (t *timedPlacer) Release(cfg model.CallConfig, slot, dc int) {
	s := t.rec.now()
	defer t.timed(s)
	t.p.Release(cfg, slot, dc)
}

// callRig is one set-up of a callctl workload: the serving plan, the store
// (replicated or none), the controller and the HTTP API, wired as
// cmd/switchboard wires them.
type callRig struct {
	repl   bool
	seed   int64
	world  *geo.World
	served time.Time // the API's clock: every call lands in one plan slot
	placer *controller.PlanPlacer
	pool   []lifecycle
	digest uint64

	reg         *obs.Registry
	ring        *obs.DecisionRing
	ctrlMetrics *controller.Metrics
	logger      *slog.Logger
	ctrl        *controller.Controller

	primarySrv, standbySrv *kvstore.Server
	primary                *replica.Primary
	standby                *replica.Standby
	primaryAddr            string
	standbyAddr            string
	kv                     *kvstore.Client

	handler  *handlerSpans
	httpSrv  *http.Server
	httpAddr string
	serveWG  sync.WaitGroup

	nextSeq uint64   // first lifecycle sequence number of the next phase
	sampled []uint64 // call IDs the store audit reads back
}

func (r *callRig) serve(f func()) {
	r.serveWG.Add(1)
	go func() {
		defer r.serveWG.Done()
		f()
	}()
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// setupCallctl builds the plan and the serving stack; for the replicated
// workload it also pairs a primary with a standby and preloads the store.
func setupCallctl(seed int64, repl bool) (*callRig, error) {
	w := geo.DefaultWorld()
	r := &callRig{repl: repl, seed: seed, world: w}
	gen, err := callTrace(seed, w)
	if err != nil {
		return nil, err
	}
	start := gen.Config().Start
	db := records.New(start, w)
	day1 := start.Add(24 * time.Hour)
	h := fnv.New64a()
	gen.EachCall(func(rec *model.CallRecord) bool {
		hashRecord(h, rec)
		if rec.Start.Before(day1) {
			db.Add(rec)
		} else if len(rec.Legs) > 0 {
			r.pool = append(r.pool, newLifecycle(rec))
		}
		return true
	})
	r.digest = h.Sum64()
	if len(r.pool) == 0 {
		return nil, errors.New("callctl: empty call pool")
	}
	// The served day's afternoon (UTC): Europe and the Americas both busy.
	r.served = day1.Add(14 * time.Hour)

	est := db.Estimator(20)
	in := &provision.Inputs{
		World:              w,
		Latency:            est,
		Demand:             db.PeakEnvelope(25),
		LatencyThresholdMs: 120,
		SlotStride:         8,
	}
	lm, err := provision.NewLoadModel(in)
	if err != nil {
		return nil, err
	}
	plan, err := provision.Switchboard(in)
	if err != nil {
		return nil, err
	}
	alloc, err := allocate.Build(lm, plan.Cores, plan.LinkGbps)
	if err != nil {
		return nil, err
	}
	aclOf := func(cfg model.CallConfig, dc int) float64 { return est.ACL(cfg, dc) }
	r.placer = controller.NewPlanPlacer(lm.Demand().Configs, alloc.Alloc, aclOf, len(w.DCs()))

	r.reg = obs.NewRegistry()
	r.ring = obs.NewDecisionRing(obs.DefaultRingCapacity)
	r.ctrlMetrics = controller.NewMetrics(r.reg)
	r.logger = slog.New(obsspan.NewLogHandler(slog.NewTextHandler(os.Stderr, nil)))
	tracer := obsspan.NewTracer(seed, obsspan.NewRing(obsspan.DefaultRingCapacity))

	if repl {
		if err := r.startStore(); err != nil {
			r.close()
			return nil, err
		}
	}
	r.ctrl, err = r.newController(r.placer)
	if err != nil {
		r.close()
		return nil, err
	}
	api := httpapi.New(w, r.ctrl)
	api.HTTP = obs.NewHTTPMetrics(r.reg)
	api.KV = r.kv
	api.Tracer = tracer
	api.Registry = r.reg
	api.Instance = "bench"
	api.Now = func() time.Time { return r.served }
	r.handler = &handlerSpans{h: api.Mux()}
	l, err := listen()
	if err != nil {
		r.close()
		return nil, err
	}
	r.httpAddr = l.Addr().String()
	r.httpSrv = &http.Server{Handler: r.handler, ReadHeaderTimeout: 5 * time.Second}
	r.serve(func() { _ = r.httpSrv.Serve(l) })
	return r, nil
}

// callTrace is the generator of a callctl set-up's two days of calls.
func callTrace(seed int64, w *geo.World) (*trace.Generator, error) {
	tc := trace.DefaultConfig()
	tc.Days, tc.CallsPerDay, tc.Seed, tc.World = 2, planCalls, seed, w
	return trace.NewGenerator(tc)
}

// callTraceDigest regenerates a callctl set-up's calls and hashes them as
// the set-up does.
func callTraceDigest(seed int64) (uint64, error) {
	gen, err := callTrace(seed, geo.DefaultWorld())
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	gen.EachCall(func(rec *model.CallRecord) bool { hashRecord(h, rec); return true })
	return h.Sum64(), nil
}

// setupCallctlTimed sets up the rig the run uses, from the run's seed, and
// then, for timing only, rigs from further variant seeds, each torn down at
// once: how long a set-up takes depends on its seed's plan (0.22 to 0.5 s
// across seeds), so a steady setup_s is a median over several seeds. Each
// set-up after the first ends a GC, so none pays for another's garbage.
func setupCallctlTimed(run *run, repl bool) (*callRig, float64, error) {
	t := time.Now()
	rig, err := setupCallctl(run.seed, repl)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	times := []float64{time.Since(t).Seconds()}
	spent := times[0]
	for v := 1; !run.trace && v < maxSetups && (v < minSetups || spent < setupBudget); v++ {
		runtime.GC()
		t := time.Now()
		r, err := setupCallctl(variantSeed(run.seed, v), repl)
		if err != nil {
			rig.close()
			return nil, 0, fmt.Errorf("set-up of variant %d: %w", v, err)
		}
		times = append(times, time.Since(t).Seconds())
		spent += times[v]
		r.close()
	}
	again, err := callTraceDigest(run.seed)
	if err != nil {
		rig.close()
		return nil, 0, err
	}
	checkSeeds(run, []uint64{rig.digest, again})
	run.info["setup_s_each"] = times
	runtime.GC()
	return rig, median(times), nil
}

func (r *callRig) newController(p controller.Placer) (*controller.Controller, error) {
	return controller.New(controller.Config{
		World:     r.world,
		Placer:    p,
		Store:     r.kv,
		Metrics:   r.ctrlMetrics,
		Decisions: r.ring,
		Logger:    r.logger,
	})
}

// startStore pairs a semi-synchronous primary with one standby on loopback,
// both with default options, and fills the primary's replication log past
// its capacity.
func (r *callRig) startStore() error {
	r.primarySrv = kvstore.NewServer()
	r.primarySrv.SetMetrics(kvstore.NewServerMetrics(r.reg))
	pl, err := listen()
	if err != nil {
		return err
	}
	r.primaryAddr = pl.Addr().String()
	r.serve(func() { _ = r.primarySrv.Serve(pl) })
	opts := replica.PrimaryOptions{AckMode: replica.AckStandby, Metrics: replica.NewMetrics(r.reg)}
	r.primary = replica.NewPrimary(r.primarySrv, 0, opts)

	// The standby is another node: its own registry.
	sreg := obs.NewRegistry()
	r.standbySrv = kvstore.NewServer()
	r.standbySrv.SetMetrics(kvstore.NewServerMetrics(sreg))
	sl, err := listen()
	if err != nil {
		return err
	}
	r.standbyAddr = sl.Addr().String()
	r.serve(func() { _ = r.standbySrv.Serve(sl) })
	sm := replica.NewMetrics(sreg)
	r.standby = replica.NewStandby(r.standbySrv, r.primaryAddr, replica.StandbyOptions{
		Promote: replica.PrimaryOptions{AckMode: replica.AckStandby, Metrics: sm},
		Metrics: sm,
		Logger:  r.logger,
	})
	r.serve(r.standby.Run)

	r.kv, err = kvstore.DialOptions(r.primaryAddr, kvstore.Options{Seed: r.seed, Metrics: kvstore.NewClientMetrics(r.reg)})
	if err != nil {
		return err
	}
	// Semi-sync acks only once a standby is attached: wait until it holds
	// a probe write.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := r.kv.HSet("bench:probe", "f", "v"); err != nil {
			return fmt.Errorf("probe write: %w", err)
		}
		if r.standby.LastSeq() == r.primary.LastSeq() {
			break
		}
		if time.Now().After(deadline) {
			return errors.New("standby did not attach within 5s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	return r.preload()
}

// preload writes past the replication log's capacity the way served calls
// would: a call hash per preloadCallWrites writes (dc, config, state), as
// the store of a controller that has served about 20k calls holds. The
// writes go over many connections at once: a write waits for the standby's
// ack, and one connection, pipelined or not, would wait out a heartbeat
// stall every few hundred writes.
func (r *callRig) preload() error {
	const conns = 64
	fields := [preloadCallWrites]string{"dc", "config", "state"}
	values := [preloadCallWrites]string{"3", "video|US:2", "ended"}
	calls := (preloadWrites + preloadCallWrites - 1) / preloadCallWrites
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := kvstore.Dial(r.primaryAddr)
			if err != nil {
				errs[c] = err
				return
			}
			defer func() { _ = cl.Close() }()
			for id := c; id < calls; id += conns {
				key := "preload:call:" + strconv.Itoa(id)
				for f := range fields {
					if err := cl.HSet(key, fields[f], values[f]); err != nil {
						errs[c] = fmt.Errorf("preload: %w", err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if last := r.primary.LastSeq(); last <= replLogCap {
		return fmt.Errorf("preload left the log at seq %d, not past capacity %d", last, replLogCap)
	}
	return nil
}

func (r *callRig) close() {
	if r.httpSrv != nil {
		_ = r.httpSrv.Close()
	}
	if r.kv != nil {
		_ = r.kv.Close()
	}
	if r.standby != nil {
		r.standby.Stop()
		<-r.standby.Done()
	}
	if r.standbySrv != nil {
		_ = r.standbySrv.Close()
	}
	if r.primarySrv != nil {
		_ = r.primarySrv.Close()
	}
	r.serveWG.Wait()
}

// load is what one closed-loop phase measured. Its samples take four bytes
// per request and a count per second, so the benchmark's own memory barely
// grows with throughput and peak_rss_mb stays the program's.
type load struct {
	lat        []uint32      // per request, ns (clamped at about 4.3 s)
	windows    []uint32      // completions in each second since the phase start
	elapsed    time.Duration // phase start to the last completion
	calls      uint64        // lifecycles begun, each taking one sequence number
	lifecycles int64         // completed, every step 2xx
	failed     int64         // requests answered non-2xx or without a valid DC
	sampled    []uint64      // IDs of every 64th completed call, for the store audit
	err        error         // a transport error ends the phase
}

func (l *load) requests() int64 { return int64(len(l.lat)) }

// merge adds l's samples and counts to out.
func (out *load) merge(l *load) {
	out.lat = append(out.lat, l.lat...)
	for len(out.windows) < len(l.windows) {
		out.windows = append(out.windows, 0)
	}
	for w, n := range l.windows {
		out.windows[w] += n
	}
	out.elapsed = max(out.elapsed, l.elapsed)
	out.lifecycles += l.lifecycles
	out.failed += l.failed
	out.err = errors.Join(out.err, l.err)
}

// drive runs the closed loop on conns for d: each connection sends a call's
// start, config and end, each after the previous reply, then the next call.
// A phase ends on a lifecycle boundary, so every started call ends. Windows
// and elapsed time count from t0, the start of the phase the stretch is part
// of. With rec set, each request is recorded as an "op" span.
func (r *callRig) drive(conns []*genConn, t0 time.Time, d time.Duration, rec *recorder) *load {
	n := len(conns)
	base := r.nextSeq
	per := make([]*load, n)
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			per[i] = r.driveConn(conns[i], base, uint64(i), uint64(n), t0, deadline, rec)
		}(i)
	}
	wg.Wait()
	out := &load{}
	var maxSeq uint64
	for i, l := range per {
		out.merge(l)
		r.sampled = append(r.sampled, l.sampled...)
		if s := base + uint64(i) + uint64(n)*l.calls; s > maxSeq {
			maxSeq = s
		}
	}
	r.nextSeq = maxSeq
	return out
}

// driveFor runs the closed loop for d in consecutive stretches, each on
// fresh client goroutines, as one phase.
func (r *callRig) driveFor(conns []*genConn, d time.Duration) *load {
	out := &load{}
	t0 := time.Now()
	for out.elapsed == 0 || time.Since(t0) < d {
		out.merge(r.drive(conns, t0, min(stretch, d-time.Since(t0)), nil))
		if out.err != nil {
			break
		}
	}
	return out
}

func (r *callRig) driveConn(g *genConn, base, i, n uint64, t0, deadline time.Time, rec *recorder) *load {
	l := &load{lat: make([]uint32, 0, int(time.Until(deadline).Seconds()*30000)+1024)}
	nDC := len(r.world.DCs())
	for k := uint64(0); ; k++ {
		s := time.Now()
		if !s.Before(deadline) {
			break
		}
		seq := base + i + k*n
		l.calls = k + 1
		lc := &r.pool[seq%uint64(len(r.pool))]
		ok := true
		for step := range lc.reqs {
			op := seq*3 + uint64(step)
			status, body, err := g.do(&lc.reqs[step], seq+1, op)
			e := time.Now()
			if err != nil {
				l.err = fmt.Errorf("conn %d: %s: %w", i, stepNames[step], err)
				return l
			}
			l.lat = append(l.lat, uint32(min(e.Sub(s), math.MaxUint32)))
			l.elapsed = e.Sub(t0)
			w := int(l.elapsed / time.Second)
			for len(l.windows) <= w {
				l.windows = append(l.windows, 0)
			}
			l.windows[w]++
			if rec != nil {
				rec.add(span{Name: "op", Op: op, Start: int64(s.Sub(rec.base)), End: int64(e.Sub(rec.base))})
			}
			if status/100 != 2 {
				l.failed++
				ok = false
				break
			}
			if step < 2 {
				if dc, valid := replyDC(body); !valid || dc >= nDC {
					l.failed++
					ok = false
					break
				}
			}
			s = e
		}
		if ok {
			if l.lifecycles%64 == 0 {
				l.sampled = append(l.sampled, seq+1)
			}
			l.lifecycles++
		}
	}
	return l
}

func (r *callRig) dial() ([]*genConn, func(), error) {
	var gs []*genConn
	var cs []net.Conn
	closeAll := func() {
		for _, c := range cs {
			_ = c.Close()
		}
	}
	for i := 0; i < genConns; i++ {
		g, c, err := dialGen(r.httpAddr)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		gs, cs = append(gs, g), append(cs, c)
	}
	return gs, closeAll, nil
}

// verify checks the controller's books and, when replicated, that the
// standby converged on the primary.
func (r *callRig) verify(run *run, lifecycles int64) {
	st := r.ctrl.Stats()
	run.check(st.Started == lifecycles && st.Ended == lifecycles,
		"controller started %d and ended %d calls, want %d each", st.Started, st.Ended, lifecycles)
	run.check(r.ctrl.ActiveCalls() == 0, "%d calls still active", r.ctrl.ActiveCalls())
	run.check(st.Degraded == 0 && st.Dropped == 0 && st.JournalDepth == 0,
		"store path degraded: %d degradations, %d dropped, %d journaled", st.Degraded, st.Dropped, st.JournalDepth)
	if !r.repl {
		return
	}
	run.check(!r.standby.Promoted(), "standby promoted itself")
	deadline := time.Now().Add(5 * time.Second)
	for r.standby.LastSeq() != r.primary.LastSeq() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	run.check(r.standby.LastSeq() == r.primary.LastSeq(),
		"standby at seq %d, primary at %d after drain", r.standby.LastSeq(), r.primary.LastSeq())
	pc, err := kvstore.Dial(r.primaryAddr)
	if err != nil {
		run.check(false, "dial primary: %v", err)
		return
	}
	defer func() { _ = pc.Close() }()
	sc, err := kvstore.Dial(r.standbyAddr)
	if err != nil {
		run.check(false, "dial standby: %v", err)
		return
	}
	defer func() { _ = sc.Close() }()
	const samples = 32
	stride := max(1, len(r.sampled)/samples)
	for k := 0; k < len(r.sampled); k += stride {
		key := "call:" + strconv.FormatUint(r.sampled[k], 10)
		a, err := pc.HGetAll(key)
		if err != nil {
			run.check(false, "primary HGETALL %s: %v", key, err)
			return
		}
		b, err := sc.HGetAll(key)
		if err != nil {
			run.check(false, "standby HGETALL %s: %v", key, err)
			return
		}
		run.check(len(a) > 0 && a["state"] == "ended", "call hash %s on primary is %v, want an ended call", key, a)
		run.check(fmt.Sprint(a) == fmt.Sprint(b), "call hash %s differs: primary %v, standby %v", key, a, b)
	}
}

// runCallctl runs callctl_mem (repl false) or callctl_repl.
func runCallctl(run *run, repl bool) error {
	rig, setup, err := setupCallctlTimed(run, repl)
	if err != nil {
		return err
	}
	defer rig.close()
	conns, closeConns, err := rig.dial()
	if err != nil {
		return err
	}
	defer closeConns()

	var lifecycles int64
	wl := rig.drive(conns, time.Now(), warmup, nil)
	lifecycles += wl.lifecycles
	if err := errors.Join(wl.err, failedErr(wl)); err != nil {
		return fmt.Errorf("warmup: %w", err)
	}
	if repl {
		run.check(rig.primary.LastSeq() > replLogCap,
			"timing would start with the log at seq %d, below capacity %d", rig.primary.LastSeq(), replLogCap)
	}

	if run.trace {
		return runCallctlTraced(run, rig, conns, lifecycles)
	}
	m := startMeter()
	l := rig.driveFor(conns, run.duration())
	ph := m.stop()
	lifecycles += l.lifecycles
	if l.err != nil {
		return l.err
	}
	run.attempted, run.failed = l.requests(), l.failed
	run.check(l.failed == 0, "%d of %d requests failed", l.failed, l.requests())
	ops := float64(l.requests())
	slices.Sort(l.lat)
	run.e2e("ops_per_s", windowRate(l.windows, l.elapsed))
	run.info["ops_per_s_mean"] = ops / l.elapsed.Seconds()
	run.e2e("op_p50_us", nsToUs(percentile(l.lat, 50)))
	tail(run, l.lat, nsToUs)
	run.e2e("cpu_us_per_op", float64(ph.cpu)/float64(time.Microsecond)/ops)
	run.e2e("allocs_per_op", float64(ph.mallocs)/ops)
	run.e2e("setup_s", setup)
	run.info["op_p999_us"] = nsToUs(percentile(l.lat, 99.9))
	run.info["op_max_us"] = nsToUs(percentile(l.lat, 100))
	stalled, _ := slices.BinarySearch(l.lat, uint32(replHeartbeat))
	run.info["stalled_pct"] = 100 * float64(len(l.lat)-stalled) / ops
	run.stationary(splitHalves(l.windows, l.elapsed))
	run.env(ph)
	rig.verify(run, lifecycles)
	return nil
}

func failedErr(l *load) error {
	if l.failed > 0 {
		return fmt.Errorf("%d requests failed", l.failed)
	}
	return nil
}
