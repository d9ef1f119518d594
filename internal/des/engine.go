package des

import (
	"fmt"
	"time"
)

// Call is one in-flight call's bookkeeping. Calls are pooled (free-listed)
// and threaded onto an intrusive per-DC doubly-linked list so a DC-failure
// sweep can walk exactly the calls it hosts without a map or a scan, and
// onto the departure queue's bucket lists.
type Call struct {
	id       uint64
	end      int64 // departure virtual time
	placedAt int64 // when the call landed at dc (arrival or migration)
	cfg      int32
	dc       int32
	prev     *Call
	next     *Call // also the free-list link when pooled
	qnext    *Call // departure-queue bucket link
}

// DCFailure schedules a datacenter outage: the DC fails at At and recovers
// at Recover (zero or ≤ At: never, within this run). Between failure and
// detection (the failover policy's delay) the controller keeps placing calls
// there — exactly the window the failover-timing sweep measures.
type DCFailure struct {
	DC      int32
	At      time.Duration
	Recover time.Duration
}

// Config assembles one simulation run.
type Config struct {
	Fleet     *Fleet
	Source    Source
	Placement PlacementPolicy
	Admission AdmissionPolicy // nil: every call is admitted
	Failover  FailoverPolicy  // nil: FixedDetection{30s}
	Failures  []DCFailure
	// Seed drives the policy, failover, and trace streams. The workload
	// source carries its own seed, so re-seeding the engine replays the
	// identical arrival stream under fresh policy randomness.
	Seed  int64
	Trace *Trace // nil: decision trace off
}

// Result is one run's aggregate outcome.
type Result struct {
	// Calls is the number of arrivals processed; Placed of those were
	// hosted, Rejected refused by admission. Migrated counts failover
	// re-placements (a call migrated twice counts twice).
	Calls    uint64
	Placed   uint64
	Rejected uint64
	Migrated uint64
	// Overflowed counts placements (arrivals and migrations) that landed on
	// a DC without compute headroom.
	Overflowed uint64
	// Events and DroppedEvents audit the queue: DroppedEvents must be zero
	// on a clean drain. MaxQueueLen is the pending-event high-water mark.
	Events        uint64
	DroppedEvents uint64
	MaxQueueLen   int
	// PeakConcurrent is the most simultaneously hosted calls.
	PeakConcurrent int
	// MeanACLms averages the hosted latency over placed arrivals;
	// RegretMeanMs averages the gap to each call's best available candidate
	// (zero when every call lands latency-first). MigratedACLms averages the
	// latency of the DCs migrations landed on.
	MeanACLms     float64
	RegretMeanMs  float64
	MigratedACLms float64
	// MaxCoreUtil is the worst peak/capacity ratio (see Engine.Peaks) over
	// DCs with at least one core provisioned (a ratio over an LP plan's
	// residue capacity is noise); OverflowShare is Overflowed over Placed.
	MaxCoreUtil   float64
	OverflowShare float64
	// DisruptedCallSeconds sums each migrated call's outage: from the later
	// of the DC failing and the call landing there, to the detection sweep.
	DisruptedCallSeconds float64
	// TraceLines is the number of decision-trace records written.
	TraceLines uint64
}

// Engine executes one run. It is single-use, and its state belongs to the
// goroutine that calls Run or RunUntil: the shared virtual clock is the
// determinism contract, so there is nothing to lock. Run pulls the Source on
// a second goroutine it starts and stops itself (feed.go), so Source.Next
// may run off the caller's goroutine, but always on one goroutine at a time,
// in stream order, and never after Run returns.
type Engine struct {
	f          *Fleet
	src        Source
	feed       *feed // Run's arrival producer; nil while RunUntil pulls src directly
	place      PlacementPolicy
	rel        Releaser // place's release hook, if it has one
	admit      AdmissionPolicy
	fail       FailoverPolicy
	tw         *Trace
	policyName string

	// The three event sources (queue.go). arrival is the pending arrival,
	// due at pending.At, or nil when none is pending. seq counts pushes.
	arrival  *Call
	deps     departures
	fleet    []fleetEvent
	seq      uint64
	events   uint64 // dispatched
	maxQueue int    // pending-event high-water mark
	started  bool

	polRng  Stream
	failRng Stream

	usage     Usage   // Down = detected-down, the controller's view
	downTruth []bool  // ground truth, ahead of detection
	failedAt  []int64 // virtual time each down DC failed
	nDown     int     // detected-down count (fast path: zero = no filtering)

	dcHead  []*Call
	free    *Call
	scratch []int32
	pending Arrival // reused across Next calls (a local would escape through the interface)

	calls          uint64
	placed         uint64
	rejected       uint64
	migrated       uint64
	overflowed     uint64
	concurrent     int
	peakConcurrent int
	aclSum         float64
	regretSum      float64
	migACLSum      float64
	peakCores      []float64
	peakGbps       []float64
	disruptedNs    float64
}

// NewEngine validates cfg and builds a ready-to-Run engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Fleet == nil || cfg.Source == nil || cfg.Placement == nil {
		return nil, fmt.Errorf("des: Config needs Fleet, Source, and Placement")
	}
	if len(cfg.Source.Configs()) != len(cfg.Fleet.Configs()) {
		return nil, fmt.Errorf("des: source universe (%d configs) does not match fleet (%d)",
			len(cfg.Source.Configs()), len(cfg.Fleet.Configs()))
	}
	fail := cfg.Failover
	if fail == nil {
		fail = FixedDetection{Delay: 30 * time.Second}
	}
	nDC := cfg.Fleet.NumDCs()
	for _, df := range cfg.Failures {
		if df.DC < 0 || int(df.DC) >= nDC {
			return nil, fmt.Errorf("des: failure schedules DC %d, fleet has %d", df.DC, nDC)
		}
	}
	e := &Engine{
		f:          cfg.Fleet,
		src:        cfg.Source,
		place:      cfg.Placement,
		admit:      cfg.Admission,
		fail:       fail,
		tw:         cfg.Trace,
		policyName: cfg.Placement.Name(),
		fleet:      make([]fleetEvent, 0, 3*len(cfg.Failures)),
		polRng:     NewStream(cfg.Seed, StreamPolicy),
		failRng:    NewStream(cfg.Seed, StreamFailover),
		downTruth:  make([]bool, nDC),
		failedAt:   make([]int64, nDC),
		dcHead:     make([]*Call, nDC),
		scratch:    make([]int32, 0, nDC),
		peakCores:  make([]float64, nDC),
		peakGbps:   make([]float64, len(cfg.Fleet.CapGbps)),
	}
	e.rel, _ = cfg.Placement.(Releaser)
	e.usage = Usage{
		Cores:    make([]float64, nDC),
		Gbps:     make([]float64, len(cfg.Fleet.CapGbps)),
		CapCores: cfg.Fleet.CapCores,
		CapGbps:  cfg.Fleet.CapGbps,
		Down:     make([]bool, nDC),
	}
	for _, df := range cfg.Failures {
		e.schedule(fleetFail, df.DC, int64(df.At))
		if df.Recover > df.At {
			e.schedule(fleetRecover, df.DC, int64(df.Recover))
		}
	}
	return e, nil
}

// Run drains the event sources and returns the aggregate result. Everything
// step reaches is the annotated hot path: a call costs a slot fill, one
// departure-queue push and pop, and pooled bookkeeping. The arrivals come
// from a producer goroutine that pulls the Source a chunk or two ahead, so
// the workload's draws run beside the dispatch loop; Run stops the producer
// before it returns or panics, and re-raises a panic of Source.Next here.
func (e *Engine) Run() (Result, error) {
	if !e.started || e.arrival != nil { // else RunUntil drained the source
		e.feed = startFeed(e.src)
		defer e.stopFeed()
	}
	e.start()
	for src, at := e.next(); src != srcNone; src, at = e.next() {
		e.step(src, at)
	}
	if err := e.tw.Close(); err != nil {
		return Result{}, fmt.Errorf("des: decision trace: %w", err)
	}
	return e.result(), nil
}

// RunUntil processes every event before virtual time t and returns the
// totals so far: the run as it stood the instant before t. A later Run
// continues from there, so a drill can split its books at a failure.
// RunUntil pulls the Source on the caller's goroutine, one arrival ahead,
// so it never reads past the arrival that ends it.
func (e *Engine) RunUntil(t time.Duration) Result {
	e.start()
	for src, at := e.next(); src != srcNone && at < int64(t); src, at = e.next() {
		e.step(src, at)
	}
	return e.result()
}

// Peaks returns copies of the most compute each DC, and bandwidth each link,
// carried at once so far. They live on the engine rather than in Result so
// that Result stays a comparable value.
func (e *Engine) Peaks() (cores, gbps []float64) {
	return append([]float64(nil), e.peakCores...), append([]float64(nil), e.peakGbps...)
}

// stopFeed ends Run's producer; the Source is the caller's again.
func (e *Engine) stopFeed() {
	e.feed.stop()
	e.feed = nil
}

// start schedules the first arrival, once.
func (e *Engine) start() {
	if !e.started {
		e.started = true
		e.scheduleNextArrival()
	}
}

// result snapshots the running totals.
func (e *Engine) result() Result {
	r := Result{
		Calls:                e.calls,
		Placed:               e.placed,
		Rejected:             e.rejected,
		Migrated:             e.migrated,
		Overflowed:           e.overflowed,
		Events:               e.events,
		DroppedEvents:        e.seq - e.events - uint64(e.queued()),
		MaxQueueLen:          e.maxQueue,
		PeakConcurrent:       e.peakConcurrent,
		DisruptedCallSeconds: e.disruptedNs / 1e9,
		TraceLines:           e.tw.Lines(),
	}
	if e.placed > 0 {
		r.MeanACLms = e.aclSum / float64(e.placed)
		r.RegretMeanMs = e.regretSum / float64(e.placed)
		r.OverflowShare = float64(e.overflowed) / float64(e.placed)
	}
	if e.migrated > 0 {
		r.MigratedACLms = e.migACLSum / float64(e.migrated)
	}
	for x, peak := range e.peakCores {
		if cap := e.usage.CapCores[x]; cap >= 1 {
			r.MaxCoreUtil = max(r.MaxCoreUtil, peak/cap)
		}
	}
	return r
}

// Event sources, in dispatch order at an equal instant.
const (
	srcNone uint8 = iota
	srcDepart
	srcFleet
	srcArrive
)

// next names the source of the earliest pending event and its instant, by
// the merge rule in queue.go; srcNone when nothing is pending.
func (e *Engine) next() (src uint8, at int64) {
	if e.arrival != nil {
		src, at = srcArrive, e.pending.At
	}
	if len(e.fleet) > 0 && (src == srcNone || e.fleet[0].at <= at) {
		src, at = srcFleet, e.fleet[0].at
	}
	if e.deps.n > 0 && (src == srcNone || e.deps.earliest <= at) {
		src, at = srcDepart, e.deps.earliest
	}
	return src, at
}

// step dispatches next's event. This is the engine's inner loop: everything
// it reaches must stay heap-allocation-free outside the justified escapes
// (fleet-list and call-pool growth, sampled trace emission,
// and the injected policy interfaces).
//
//sblint:hotpath
func (e *Engine) step(src uint8, at int64) {
	e.events++
	e.usage.Now = at
	switch src {
	case srcDepart:
		e.depart(e.deps.pop())
	case srcFleet:
		ev := e.fleet[0]
		e.fleet = e.fleet[:copy(e.fleet, e.fleet[1:])]
		switch ev.kind {
		case fleetFail:
			e.dcFail(ev.dc, at)
		case fleetSweep:
			e.sweep(ev.dc, at)
		default:
			e.dcRecover(ev.dc)
		}
	default:
		call := e.arrival
		e.arrival = nil
		e.arrive(call, at)
	}
}

// queued counts the events waiting in the three sources.
func (e *Engine) queued() int {
	n := e.deps.n + len(e.fleet)
	if e.arrival != nil {
		n++
	}
	return n
}

// pushed counts one scheduled event and tracks the pending high-water mark.
func (e *Engine) pushed() {
	e.seq++
	e.maxQueue = max(e.maxQueue, e.queued())
}

// schedule inserts a fleet event after every one due at or before at, which
// keeps the list in (at, push order).
func (e *Engine) schedule(kind uint8, dc int32, at int64) {
	i := len(e.fleet)
	for i > 0 && e.fleet[i-1].at > at {
		i--
	}
	e.fleet = append(e.fleet, fleetEvent{}) //sblint:allowalloc(fleet list growth; at most three events per scheduled failure)
	copy(e.fleet[i+1:], e.fleet[i:])
	e.fleet[i] = fleetEvent{at: at, dc: dc, kind: kind}
	e.pushed()
}

// scheduleNextArrival pulls one arrival into the slot, so pending events
// track concurrency, not total calls.
func (e *Engine) scheduleNextArrival() {
	if !e.pull(&e.pending) {
		return
	}
	a := &e.pending
	call := e.alloc()
	call.id = a.ID
	call.cfg = a.Cfg
	call.end = a.At + a.Dur
	e.arrival = call
	e.pushed()
}

// pull fills a with the stream's next arrival: from Run's producer, or
// straight from the source under RunUntil.
func (e *Engine) pull(a *Arrival) bool {
	if e.feed != nil {
		return e.feed.next(a)
	}
	return e.src.Next(a) //sblint:allowalloc(source is an injected interface; built-in sources are allocation-free)
}

// alloc takes a call from the free list, growing the pool a slab of 256 at a
// time.
func (e *Engine) alloc() *Call {
	if e.free == nil {
		slab := make([]Call, 256) //sblint:allowalloc(call pool growth; steady state reuses departed calls)
		for i := len(slab) - 1; i >= 0; i-- {
			slab[i].next = e.free
			e.free = &slab[i]
		}
	}
	c := e.free
	e.free = c.next
	c.next = nil
	return c
}

func (e *Engine) release(c *Call) {
	c.prev = nil
	c.next = e.free
	e.free = c
}

// candidates returns the config's feasible DCs with detected-down ones
// filtered out. When every candidate is down the call must still land
// somewhere, so it falls back to the surviving DCs in ACL order, and to the
// unfiltered list only when the whole fleet is down.
func (e *Engine) candidates(c int32) []int32 {
	cands := e.f.cands[c]
	if e.nDown == 0 {
		return cands
	}
	if s := e.alive(cands); len(s) > 0 {
		return s
	}
	if s := e.alive(e.f.order[c]); len(s) > 0 {
		return s
	}
	return cands
}

// alive filters detected-down DCs out of dcs into the scratch buffer.
func (e *Engine) alive(dcs []int32) []int32 {
	s := e.scratch[:0]
	for _, x := range dcs {
		if !e.usage.Down[x] {
			s = append(s, x) //sblint:allowalloc(scratch is preallocated to the DC count)
		}
	}
	return s
}

func (e *Engine) arrive(call *Call, now int64) {
	e.calls++
	c := call.cfg
	cands := e.candidates(c)
	if e.admit != nil && !e.admit.Admit(e.f, c, cands, &e.usage) { //sblint:allowalloc(admission is an injected interface; built-in policies are allocation-free)
		e.rejected++
		if e.tw.Sampled(call.id) {
			e.tw.EmitCall(e.f, &e.usage, call.id, now, c, cands[0], cands, e.policyName, "rejected")
		}
		e.release(call)
		e.scheduleNextArrival()
		return
	}
	dc := e.place.Choose(e.f, c, cands, &e.usage, &e.polRng) //sblint:allowalloc(placement is an injected interface; built-in policies are allocation-free)
	status := ""
	if !e.usage.FitsCompute(dc, e.f.cores[c]) {
		e.overflowed++
		status = "overflow"
	}
	if e.tw.Sampled(call.id) {
		e.tw.EmitCall(e.f, &e.usage, call.id, now, c, dc, cands, e.policyName, status)
	}
	e.host(call, dc, now)
	e.placed++
	e.aclSum += e.f.acl[c][dc]
	e.regretSum += e.f.acl[c][dc] - e.f.acl[c][cands[0]]
	e.deps.push(call)
	e.pushed()
	e.scheduleNextArrival()
}

// host charges a call's resources to dc and links it into the DC's list.
func (e *Engine) host(call *Call, dc int32, now int64) {
	call.dc = dc
	call.placedAt = now
	call.prev = nil
	call.next = e.dcHead[dc]
	if call.next != nil {
		call.next.prev = call
	}
	e.dcHead[dc] = call
	e.usage.Cores[dc] += e.f.cores[call.cfg]
	if u := e.usage.Cores[dc]; u > e.peakCores[dc] {
		e.peakCores[dc] = u
	}
	for _, ll := range e.f.links[call.cfg][dc] {
		e.usage.Gbps[ll.Link] += ll.Gbps
		if g := e.usage.Gbps[ll.Link]; g > e.peakGbps[ll.Link] {
			e.peakGbps[ll.Link] = g
		}
	}
	e.concurrent++
	if e.concurrent > e.peakConcurrent {
		e.peakConcurrent = e.concurrent
	}
}

// unhost releases a call's resources and unlinks it from its DC's list.
func (e *Engine) unhost(call *Call) {
	dc := call.dc
	if call.prev != nil {
		call.prev.next = call.next
	} else {
		e.dcHead[dc] = call.next
	}
	if call.next != nil {
		call.next.prev = call.prev
	}
	e.usage.Cores[dc] -= e.f.cores[call.cfg]
	for _, ll := range e.f.links[call.cfg][dc] {
		e.usage.Gbps[ll.Link] -= ll.Gbps
	}
	e.concurrent--
}

func (e *Engine) depart(call *Call) {
	if e.rel != nil {
		e.rel.Release(e.f, call.cfg, call.dc, call.placedAt) //sblint:allowalloc(release is an injected interface; the built-in policy is allocation-free)
	}
	e.unhost(call)
	e.release(call)
}

// dcFail marks ground truth and schedules the detection sweep. The gap
// between the two is the failover policy's detection delay — arrivals keep
// landing on the dead DC until the sweep, as they would in production.
func (e *Engine) dcFail(dc int32, now int64) {
	if e.downTruth[dc] {
		return
	}
	e.downTruth[dc] = true
	e.failedAt[dc] = now
	delay := e.fail.DetectionDelay(dc, &e.failRng) //sblint:allowalloc(failover timing is an injected interface; built-in policies are allocation-free)
	e.schedule(fleetSweep, dc, now+int64(delay))
}

// sweep is failure detection: the controller finally sees the DC down and
// migrates its calls to surviving candidates. Each call's disruption spans
// from when it lost service (DC failing, or landing on the already-dead DC)
// to now.
func (e *Engine) sweep(dc int32, now int64) {
	if !e.downTruth[dc] {
		return // recovered before detection: nothing to do
	}
	if !e.usage.Down[dc] {
		e.usage.Down[dc] = true
		e.nDown++
	}
	migrated := 0
	for call := e.dcHead[dc]; call != nil; {
		next := call.next
		e.unhost(call)
		from := e.failedAt[dc]
		if call.placedAt > from {
			from = call.placedAt
		}
		e.disruptedNs += float64(now - from)
		cands := e.candidates(call.cfg)
		ndc := e.place.Choose(e.f, call.cfg, cands, &e.usage, &e.polRng) //sblint:allowalloc(placement is an injected interface; built-in policies are allocation-free)
		if !e.usage.FitsCompute(ndc, e.f.cores[call.cfg]) {
			e.overflowed++
		}
		e.host(call, ndc, now)
		e.migACLSum += e.f.acl[call.cfg][ndc]
		e.migrated++
		migrated++
		call = next
	}
	e.tw.EmitFailover(e.f, now, dc, migrated, now-e.failedAt[dc])
}

func (e *Engine) dcRecover(dc int32) {
	if !e.downTruth[dc] {
		return
	}
	e.downTruth[dc] = false
	e.failedAt[dc] = 0
	if e.usage.Down[dc] {
		e.usage.Down[dc] = false
		e.nDown--
	}
}

// Run is the one-shot convenience wrapper: build an engine and drain it.
func Run(cfg Config) (Result, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return Result{}, err
	}
	return e.Run()
}
