// Package controller implements Switchboard's real-time MP assignment
// (§5.4): when a call's first participant joins, the call is assigned to the
// DC closest to them (the first joiner predicts the majority location);
// A minutes in, the call config is frozen and checked against the
// precomputed allocation plan — the usage is tallied against the plan's
// slots, and the call is migrated when the initial choice disagrees with the
// plan. Call state transitions are persisted to a kvstore so the assignment
// survives controller restarts, which is also the write path benchmarked in
// Fig 10.
package controller

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"time"

	"switchboard/internal/geo"
	"switchboard/internal/kvstore"
	"switchboard/internal/model"
	"switchboard/internal/obs"
	"switchboard/internal/obs/span"
)

// DefaultFreeze is A, the time into a call when its config is considered
// known (§6.4 picks 300 s, where ~80% of participants have joined).
const DefaultFreeze = 300 * time.Second

// Sentinel errors, exposed so the HTTP layer can map failures to correct
// status codes.
var (
	// ErrUnknownCall reports an operation on a call the controller does
	// not know.
	ErrUnknownCall = errors.New("controller: unknown call")
	// ErrDuplicateCall reports a second start for a live call ID.
	ErrDuplicateCall = errors.New("controller: call already started")
	// ErrNoDC reports that no (surviving) DC can host the call.
	ErrNoDC = errors.New("controller: no DC available")
	// ErrInvalidDC reports an out-of-range DC ID.
	ErrInvalidDC = errors.New("controller: invalid DC")
	// ErrStoreUnavailable reports a call-state write the store did not take:
	// a transport failure, a REPLWAIT refusal or a fenced write. The
	// transition it carried did not happen, so the request may be retried.
	ErrStoreUnavailable = errors.New("controller: call-state store unavailable")
)

// Placer decides the planned DC for a call once its config is known.
// Implementations must be safe under the controller's lock (they are only
// called while it is held).
type Placer interface {
	// Place returns the DC the plan wants for this config in this slot
	// of day, given the call's current DC. planned is false when the
	// config is not covered by the plan (the unanticipated-config case).
	Place(cfg model.CallConfig, slotOfDay, current int) (dc int, planned bool)
	// PlaceAvoiding is Place restricted to DCs for which avoid returns
	// false: how the controller drains a failed DC onto the plan's backup
	// capacity.
	PlaceAvoiding(cfg model.CallConfig, slotOfDay, current int, avoid func(dc int) bool) (dc int, planned bool)
	// Release returns a previously placed call's slot to the plan.
	Release(cfg model.CallConfig, slotOfDay, dc int)
}

// Predictor forecasts a recurring call's configuration before participants
// join (§8). Implementations are consulted at call start for calls carrying
// a series ID; a confident prediction lets the controller place the call at
// its planned DC immediately, avoiding the migration at freeze time.
type Predictor interface {
	// PredictConfig returns the expected config of the series' next
	// instance, and whether a usable prediction exists.
	PredictConfig(seriesID uint64, at time.Time) (model.CallConfig, bool)
}

// Stats summarizes controller activity.
type Stats struct {
	// Started counts calls assigned on first join whose start was stored.
	Started int64
	// Frozen counts calls whose config became known.
	Frozen int64
	// Migrated counts calls moved to a different DC at freeze time.
	Migrated int64
	// Unplanned counts frozen calls whose config was not in the plan.
	Unplanned int64
	// Ended counts completed calls whose end was stored.
	Ended int64
	// Predicted counts calls placed from a series-config prediction at
	// start time (§8 extension).
	Predicted int64
	// FrozenRecurring / MigratedRecurring restrict the freeze and
	// migration counters to recurring (series) calls, where prediction
	// can help.
	FrozenRecurring   int64
	MigratedRecurring int64
	// Degraded counts call-state writes that failed, each of which failed
	// its request with ErrStoreUnavailable (fenced writes included).
	Degraded int64
	// JournalDepth and Dropped are always zero: the controller buffers no
	// write, so none waits and none is dropped. They stay because the
	// benchmark harness reads them.
	JournalDepth int64
	Dropped      int64
	// Fenced counts call-state writes the store rejected by lease fencing —
	// writes this controller issued after another controller took the lease.
	// Each failed its request.
	Fenced int64
	// FailedOver counts live calls drained off failed DCs by FailDC.
	FailedOver int64
}

// Accumulate adds o's counters into s — how a sharded node folds its
// per-shard controllers into one fleet view for /v1/stats.
func (s *Stats) Accumulate(o Stats) {
	s.Started += o.Started
	s.Frozen += o.Frozen
	s.Migrated += o.Migrated
	s.Unplanned += o.Unplanned
	s.Ended += o.Ended
	s.Predicted += o.Predicted
	s.FrozenRecurring += o.FrozenRecurring
	s.MigratedRecurring += o.MigratedRecurring
	s.Degraded += o.Degraded
	s.Fenced += o.Fenced
	s.FailedOver += o.FailedOver
}

// RecurringMigrationRate returns MigratedRecurring/FrozenRecurring.
func (s Stats) RecurringMigrationRate() float64 {
	if s.FrozenRecurring == 0 {
		return 0
	}
	return float64(s.MigratedRecurring) / float64(s.FrozenRecurring)
}

// MigrationRate returns Migrated/Frozen.
func (s Stats) MigrationRate() float64 {
	if s.Frozen == 0 {
		return 0
	}
	return float64(s.Migrated) / float64(s.Frozen)
}

// Config parameterizes a Controller.
type Config struct {
	// World supplies DC lookup for the first-joiner heuristic.
	World *geo.World
	// Placer supplies the planned placement; nil means "always keep the
	// initial assignment" (a pure locality controller).
	Placer Placer
	// Store, when non-nil, receives call-state writes (one HSET per
	// transition); a transition is answered only once its write landed.
	// Each worker goroutine must use its own Store client; the controller
	// serializes writes through one.
	Store *kvstore.Client
	// KeyPrefix namespaces every call-state key ("" for the unsharded
	// layout). A sharded deployment passes shard.KeyPrefix(i) so shard
	// state never collides in the shared store, letting one
	// process lead shard 2 while standby for shard 5.
	KeyPrefix string
	// Shard is the shard this controller serves, stamped on decision traces
	// and log lines. Meaningful only when KeyPrefix is set; unsharded
	// controllers report shard -1.
	Shard int
	// Freeze is A; zero means DefaultFreeze.
	Freeze time.Duration
	// Predictor, when non-nil, supplies config predictions for recurring
	// calls at start time (§8 extension).
	Predictor Predictor
	// Metrics, when non-nil, receives controller telemetry (build with
	// NewMetrics over an obs.Registry). Nil disables metric updates and
	// their clock reads entirely.
	Metrics *Metrics
	// Decisions, when non-nil, records every placement/migration/failover
	// decision into a bounded ring for /debug/trace.
	Decisions *obs.DecisionRing
	// Logger, when non-nil, receives structured events for the rare state
	// transitions worth a log line (a write fenced after leadership loss).
	// Use a logger built over span.NewLogHandler so the records carry the
	// active trace ID. Nil disables logging.
	Logger *slog.Logger
}

// Controller is the real-time MP selector. Safe for concurrent use.
type Controller struct {
	world     *geo.World
	placer    Placer
	store     *kvstore.Client
	freeze    time.Duration
	predictor Predictor
	keyPrefix string
	shard     int // -1 when unsharded

	// metrics is never nil (a zero-value Metrics when telemetry is off);
	// decisions may be nil. obsOn gates the wall-clock reads that only
	// telemetry needs, so the uninstrumented hot path stays clock-free.
	metrics   *Metrics
	decisions *obs.DecisionRing
	obsOn     bool
	logger    *slog.Logger // nil disables structured event logs

	// dcNames caches the decimal rendering of every DC ID so persisting a
	// placement does not strconv.Itoa on the hot path (immutable after New).
	dcNames []string

	mu        sync.Mutex
	calls     map[uint64]*callState // guarded by mu
	stats     Stats                 // guarded by mu
	failed    map[int]bool          // guarded by mu; DCs declared down via FailDC
	recoverOK func(id uint64) bool  // guarded by mu; nil admits all (see SetRecoverFilter)

	// storeMu guards the single-connection store client and the write
	// counters. It is strictly ordered after mu: persist() never holds mu,
	// and every transition releases mu before persisting. Keeping store I/O
	// off mu means a stalled store can never block call admission.
	storeMu      sync.Mutex
	failedWrites int64 // guarded by storeMu
	fenced       int64 // guarded by storeMu
}

type callState struct {
	dc      int
	slot    int
	series  uint64
	cfg     model.CallConfig
	planned bool
	frozen  bool
	// owed is what a frozen call's freeze still has to store: owedNone,
	// owedConfig, or owedConfigDC for a freeze that migrated the call. It
	// is set when the freeze's write failed, so a retried config writes
	// again instead of answering from memory.
	owed    uint8
	country geo.CountryCode // first joiner, kept for failover rerouting
}

// Values of callState.owed.
const (
	owedNone uint8 = iota
	owedConfig
	owedConfigDC
)

// New returns a controller.
func New(cfg Config) (*Controller, error) {
	if cfg.World == nil {
		return nil, fmt.Errorf("controller: World is required")
	}
	if cfg.Freeze == 0 {
		cfg.Freeze = DefaultFreeze
	}
	m := cfg.Metrics
	if m == nil {
		m = &Metrics{}
	}
	shard := -1
	if cfg.KeyPrefix != "" {
		shard = cfg.Shard
	}
	dcNames := make([]string, len(cfg.World.DCs()))
	for i := range dcNames {
		dcNames[i] = strconv.Itoa(i)
	}
	return &Controller{
		world:     cfg.World,
		placer:    cfg.Placer,
		store:     cfg.Store,
		freeze:    cfg.Freeze,
		predictor: cfg.Predictor,
		keyPrefix: cfg.KeyPrefix,
		shard:     shard,
		metrics:   m,
		decisions: cfg.Decisions,
		logger:    cfg.Logger,
		obsOn:     cfg.Metrics != nil || cfg.Decisions != nil,
		calls:     make(map[uint64]*callState),
		failed:    make(map[int]bool),
		dcNames:   dcNames,
	}, nil
}

// dcName renders a DC ID without allocating (cached for every DC the world
// knows; the fallback covers out-of-range IDs from replayed foreign state).
func (c *Controller) dcName(dc int) string {
	if dc >= 0 && dc < len(c.dcNames) {
		return c.dcNames[dc]
	}
	return strconv.Itoa(dc) //sblint:allowalloc(out-of-range fallback; never taken for world DCs)
}

// record stamps a decision with its timing and shard and appends it to the
// ring. No-op when tracing is off. The caller supplies the timing it already
// measured so the trace costs no extra clock reads.
func (c *Controller) record(d obs.Decision, start time.Time, dur time.Duration) {
	if c.decisions == nil {
		return
	}
	d.Time = start
	d.Duration = dur
	d.Shard = c.shard
	c.decisions.Record(d)
}

// Freeze returns the configured config-freeze delay A.
func (c *Controller) Freeze() time.Duration { return c.freeze }

// CallStarted assigns a new call to the DC closest to its first joiner
// (within the joiner's region, as the service does) and returns the DC ID.
// ctx carries the request's trace span when the caller is instrumented
// (context.Background() is fine otherwise).
//
// This is the per-placement hot path BenchmarkCorePlacement measures; the
// hotpathalloc analyzer keeps its transitive closure allocation-free apart
// from the per-call state insert and explicitly justified cold branches.
//
//sblint:hotpath
func (c *Controller) CallStarted(ctx context.Context, id uint64, firstJoiner geo.CountryCode, at time.Time) (int, error) {
	return c.CallStartedWithSeries(ctx, id, firstJoiner, 0, at)
}

// CallStartedWithSeries is CallStarted for a call known to belong to a
// recurring meeting series. When a Predictor is configured and yields a
// prediction, the call is placed for the predicted config immediately (§8),
// which avoids a migration at freeze time if the prediction holds.
//
// A start whose write the store does not take returns ErrStoreUnavailable
// and leaves nothing behind: the call is forgotten, so a retry is a fresh
// start, not a duplicate.
func (c *Controller) CallStartedWithSeries(ctx context.Context, id uint64, firstJoiner geo.CountryCode, seriesID uint64, at time.Time) (dcOut int, errOut error) {
	sp := span.FromContext(ctx).NewChild("controller.start")
	if sp != nil {
		sp.SetAttrUint("call", id)
		defer func() { //sblint:allowalloc(error-path safety net; reached only when tracing is active, and the happy path publishes via EndWithDuration so this defer no-ops)
			sp.SetError(errOut)
			sp.End()
		}()
		// Only the persist path reads the span back out of the context, so
		// the context wrapper is built solely when a store is attached.
		if c.store != nil {
			ctx = span.ContextWith(ctx, sp)
		}
	}
	// The span already read the clock at birth; reuse that instant as the
	// placement timer's start instead of reading it again.
	obsT := sp.StartTime()
	if obsT.IsZero() {
		obsT = c.obsStart()
	}
	dc := c.world.NearestDC(firstJoiner, true)
	if dc < 0 {
		dc = c.world.NearestDC(firstJoiner, false)
	}
	if dc < 0 {
		return -1, fmt.Errorf("%w: no DC for country %q", ErrNoDC, firstJoiner) //sblint:allowalloc(error path; placement failed)
	}
	predicted := false
	if seriesID != 0 && c.predictor != nil {
		if cfg, ok := c.predictor.PredictConfig(seriesID, at); ok && len(cfg.Spread) > 0 { //sblint:allowalloc(predictor is an injected interface; its cost is the caller's choice)
			if target := c.placeFor(cfg, at, dc); target >= 0 {
				dc = target
				predicted = true
			}
		}
	}
	c.mu.Lock()
	if _, dup := c.calls[id]; dup {
		c.mu.Unlock()
		return -1, fmt.Errorf("%w: %d", ErrDuplicateCall, id) //sblint:allowalloc(error path; duplicate call rejected)
	}
	// A failed DC must not admit new calls: reroute to the nearest
	// surviving one before the call is recorded.
	rerouted := false
	if c.failed[dc] {
		if alt := c.nearestSurvivingLocked(firstJoiner); alt >= 0 {
			dc = alt
			predicted = false
			rerouted = true
		} else {
			c.mu.Unlock()
			return -1, fmt.Errorf("%w: all DCs reachable from %q failed", ErrNoDC, firstJoiner) //sblint:allowalloc(error path; every DC failed)
		}
	}
	st := &callState{dc: dc, slot: model.SlotOfDay(at), series: seriesID, country: firstJoiner} //sblint:allowalloc(the one intended per-call allocation: call state)
	c.calls[id] = st
	c.stats.Started++
	if predicted {
		c.stats.Predicted++
	}
	c.mu.Unlock()
	dur, secs := sinceObs(obsT)
	if secs > 0 {
		c.observePlace(sp, secs)
		// The placement decision is complete: publish the span now with the
		// duration already measured for the histogram, instead of reading
		// the clock again in the deferred End (which becomes a no-op). The
		// persist below is traced by its own child span.
		sp.EndWithDuration(dur)
	}
	if c.decisions != nil {
		reason := "first-joiner"
		// Candidates are recorded only on the reroute path, where the
		// latency-ordered scan already ran; computing the full ordering
		// just for the trace would put a sort on the admission hot path.
		var candidates []int
		if predicted {
			reason = "predicted"
		} else if rerouted {
			reason = "reroute-failed-dc"
			candidates = c.world.DCsByLatency(firstJoiner)
		}
		c.record(obs.Decision{
			Kind:       "start",
			Call:       id,
			Candidates: candidates,
			Chosen:     dc,
			Prev:       -1,
			Planned:    predicted,
			Reason:     reason,
		}, obsT, dur)
	}
	if err := c.persist(ctx, id, "dc", c.dcName(dc)); err != nil {
		c.mu.Lock()
		if c.calls[id] == st {
			delete(c.calls, id)
			c.stats.Started--
			if predicted {
				c.stats.Predicted--
			}
		}
		c.mu.Unlock()
		return -1, err
	}
	c.metrics.Started.Inc()
	if predicted {
		c.metrics.Predicted.Inc()
	}
	c.metrics.ActiveCalls.Add(1)
	return dc, nil
}

// placeFor asks where a call of the given (predicted) config would be
// hosted, without debiting plan slots (the real debit happens at freeze).
func (c *Controller) placeFor(cfg model.CallConfig, at time.Time, current int) int {
	if c.placer != nil {
		if dc, ok := c.placer.Place(cfg, model.SlotOfDay(at), current); ok { //sblint:allowalloc(placer is an injected interface; its cost is the caller's choice)
			// Immediately return the slot: the freeze-time Place
			// will take it for real.
			c.placer.Release(cfg, model.SlotOfDay(at), dc) //sblint:allowalloc(placer is an injected interface; its cost is the caller's choice)
			return dc
		}
	}
	if maj, _ := cfg.Spread.Majority(); maj != "" {
		return c.world.NearestDC(maj, true)
	}
	return -1
}

// ConfigKnown freezes the call's config (A into the call), reconciles the
// call against the allocation plan, and returns the (possibly new) DC and
// whether the call migrated.
//
// The freeze is decided once. When its write fails ConfigKnown returns
// ErrStoreUnavailable and the call owes the write: a retried config writes
// it again and answers only once it landed.
func (c *Controller) ConfigKnown(ctx context.Context, id uint64, cfg model.CallConfig, at time.Time) (dc int, migrated bool, err error) {
	sp := span.FromContext(ctx).NewChild("controller.freeze")
	if sp != nil {
		sp.SetAttrUint("call", id)
		// Error and early returns never migrate, so the migrated attr is
		// stamped at the success exit below, before the early publish.
		defer func() {
			sp.SetError(err)
			sp.End()
		}()
		if c.store != nil {
			ctx = span.ContextWith(ctx, sp)
		}
	}
	obsT := sp.StartTime()
	if obsT.IsZero() {
		obsT = c.obsStart()
	}
	c.mu.Lock()
	st, ok := c.calls[id]
	if !ok {
		c.mu.Unlock()
		return -1, false, fmt.Errorf("%w: %d", ErrUnknownCall, id)
	}
	if st.frozen {
		owed, dc, key := st.owed, st.dc, ""
		if owed != owedNone {
			key = st.cfg.Key()
		}
		c.mu.Unlock()
		if owed == owedNone {
			return dc, false, nil
		}
		return c.storeFreeze(ctx, id, st, key, dc, owed == owedConfigDC, true)
	}
	st.frozen = true
	st.cfg = cfg
	st.slot = model.SlotOfDay(at)
	c.stats.Frozen++
	if st.series != 0 {
		c.stats.FrozenRecurring++
	}

	prev := st.dc
	reason := "keep"
	unplanned := false
	target := st.dc
	if c.placer != nil {
		planned, inPlan := c.placePreferringSurvivorsLocked(cfg, st.slot, st.dc)
		if inPlan {
			target = planned
			st.planned = true
			reason = "plan"
		} else {
			c.stats.Unplanned++
			unplanned = true
			reason = "unplanned-majority"
			// Unanticipated config: host at the closest DC to the
			// majority of participants (§5.4(b), last paragraph).
			if maj, _ := cfg.Spread.Majority(); maj != "" {
				if closest := c.world.NearestDC(maj, true); closest >= 0 {
					target = closest
				}
			}
		}
	}
	// Never migrate onto (or stay on) a DC that has been failed; fall back
	// to the nearest surviving DC for the call's population.
	if c.failed[target] {
		if st.planned {
			c.placer.Release(cfg, st.slot, target)
			st.planned = false
		}
		alt := -1
		if maj, _ := cfg.Spread.Majority(); maj != "" {
			alt = c.nearestSurvivingLocked(maj)
		}
		if alt < 0 {
			alt = c.nearestSurvivingLocked(st.country)
		}
		if alt >= 0 {
			target = alt
			reason = "reroute-failed-dc"
		} else {
			target = st.dc // nothing survives; keep the old record
		}
	}
	if target != st.dc {
		st.dc = target
		c.stats.Migrated++
		if st.series != 0 {
			c.stats.MigratedRecurring++
		}
		migrated = true
	}
	dc = st.dc
	planned := st.planned
	c.mu.Unlock()
	c.metrics.Frozen.Inc()
	if migrated {
		c.metrics.Migrated.Inc()
	}
	if unplanned {
		c.metrics.Unplanned.Inc()
	}
	dur, secs := sinceObs(obsT)
	if migrated {
		sp.SetAttr("migrated", "true")
	}
	if secs > 0 {
		c.observePlace(sp, secs)
		// Decision done: publish with the histogram's duration, one clock
		// read instead of two (the deferred End no-ops after this).
		sp.EndWithDuration(dur)
	}
	key := cfg.Key()
	if c.decisions != nil {
		c.record(obs.Decision{
			Kind:     "freeze",
			Call:     id,
			Config:   key,
			Chosen:   dc,
			Prev:     prev,
			Planned:  planned,
			Migrated: migrated,
			Reason:   reason,
		}, obsT, dur)
	}
	return c.storeFreeze(ctx, id, st, key, dc, migrated, false)
}

// storeFreeze writes a freeze's config, and its DC when the freeze migrated
// the call. A failed write marks the call as owing both, so the retried
// config writes them again; a retry that lands clears the debt.
func (c *Controller) storeFreeze(ctx context.Context, id uint64, st *callState, key string, dc int, migrated, retry bool) (int, bool, error) {
	err := c.persist(ctx, id, "config", key)
	if err == nil && migrated {
		err = c.persist(ctx, id, "dc", c.dcName(dc))
	}
	if err == nil && !retry {
		return dc, migrated, nil
	}
	owed := owedNone
	if err != nil {
		owed = owedConfig
		if migrated {
			owed = owedConfigDC
		}
	}
	c.mu.Lock()
	st.owed = owed
	c.mu.Unlock()
	if err != nil {
		return -1, false, err
	}
	return dc, migrated, nil
}

// CallEnded stores the call's end, then releases its state and returns its
// plan slot if any. The end is stored before the call leaves memory, so an
// end that returns ErrStoreUnavailable leaves the call live and its retry
// ends it.
func (c *Controller) CallEnded(ctx context.Context, id uint64) error {
	c.mu.Lock()
	st, ok := c.calls[id]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownCall, id)
	}
	if err := c.persist(ctx, id, "state", "ended"); err != nil {
		return err
	}
	c.mu.Lock()
	if c.calls[id] != st {
		// A concurrent end (or an eviction) took the call first.
		c.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownCall, id)
	}
	delete(c.calls, id)
	c.stats.Ended++
	if st.planned && c.placer != nil {
		c.placer.Release(st.cfg, st.slot, st.dc)
	}
	c.mu.Unlock()
	c.metrics.Ended.Inc()
	c.metrics.ActiveCalls.Add(-1)
	return nil
}

// ParticipantJoined records a later participant joining a live call. Joins
// only matter as state writes in this model — they do not change placement.
func (c *Controller) ParticipantJoined(ctx context.Context, id uint64, country geo.CountryCode, media model.MediaType) error {
	return c.persist(ctx, id, "join:"+string(country), media.String())
}

// ActiveCalls returns the number of in-flight calls.
func (c *Controller) ActiveCalls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.calls)
}

// Stats returns a snapshot of the counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	s := c.stats
	c.mu.Unlock()
	c.storeMu.Lock()
	s.Degraded = c.failedWrites
	s.Fenced = c.fenced
	c.storeMu.Unlock()
	return s
}

// CallKeyPrefix is the prefix every call-state key under a key namespace
// shares ("" is the unsharded layout): scanning it finds the namespace's
// calls.
func CallKeyPrefix(keyPrefix string) string { return keyPrefix + "call:" }

// CallKey is call id's state key under a key namespace:
// "<keyPrefix>call:<id>". Every reader and writer of call state spells the
// key through here.
func CallKey(keyPrefix string, id uint64) string {
	return keyPrefix + "call:" + strconv.FormatUint(id, 10) //sblint:allowalloc(store key; written over the wire, so it must materialize)
}

// persist writes one call-state transition to the store and reports whether
// it landed. A write the store does not take — a transport failure, a
// REPLWAIT refusal (applied on the primary but not confirmed on a standby)
// or a fenced write — returns an error wrapping ErrStoreUnavailable, and the
// caller fails its request with it, so a 2xx always means the store holds
// the transition. Every write is an idempotent HSET, so the client's retry
// of a refused one is safe.
//
// persist is a fencing entry point: every store mutation reachable from it
// must go through the client's fence-arming typed wrappers (enforced by the
// fenceflow analyzer), so a deposed leader's writes are rejected instead of
// landing over the successor's state.
//
// The write outlives ctx's cancellation: a request context ends when its
// client hangs up, and the store client cuts a cancelled command off
// mid-flight, which could leave the write applied but reported failed.
// ctx still carries the span.
//
//sblint:fencepath
func (c *Controller) persist(ctx context.Context, id uint64, field, value string) error {
	if c.store == nil {
		return nil
	}
	//sblint:allowalloc(context interface call; the stdlib contexts return a stored channel without allocating)
	if ctx.Done() != nil {
		ctx = context.WithoutCancel(ctx) //sblint:allowalloc(one detached context per store write of a cancellable request)
	}
	ctx, sp := span.Child(ctx, "controller.persist")
	if sp != nil {
		sp.SetAttr("field", field)
		defer sp.End()
	}
	key := CallKey(c.keyPrefix, id)
	obsT := c.obsStart()
	c.storeMu.Lock()
	err := c.store.HSetContext(ctx, key, field, value)
	fenced := err != nil && kvstore.IsFencedError(err)
	if err != nil {
		c.failedWrites++
	}
	if fenced {
		c.fenced++
	}
	c.storeMu.Unlock()
	if _, secs := sinceObs(obsT); secs > 0 {
		c.metrics.PersistSeconds.Observe(secs)
	}
	if err == nil {
		return nil
	}
	c.metrics.StoreWriteFailures.Inc()
	sp.SetError(err)
	if fenced {
		// Another controller holds a newer lease epoch: this write belongs
		// to a leadership this controller no longer has.
		c.metrics.FencedWrites.Inc()
		if c.logger != nil {
			c.logger.WarnContext(ctx, "call-state write fenced; leadership lost", //sblint:allowalloc(fenced-write log; fires only on leadership loss)
				"err", err, "key", key, "field", field)
		}
	}
	return fmt.Errorf("%w: %w", ErrStoreUnavailable, err) //sblint:allowalloc(error path; the store did not take the write)
}

// Shard returns the shard this controller serves (-1 when unsharded).
func (c *Controller) Shard() int { return c.shard }

// RecoverCalls rebuilds in-flight call state from the store: every persisted
// call under this controller's key prefix that has not ended is re-admitted
// at its recorded DC (frozen with its recorded config when one was
// persisted). A successor shard leader calls this after taking over so calls
// started under the previous leader keep their freeze and end transitions
// instead of 404ing. Recovered calls carry no plan accounting (planned=false
// — their slot debit died with the previous leader) and no first-joiner
// country, a documented drift the eval drill quantifies. Calls the
// controller already knows are left untouched. Returns how many calls were
// recovered.
func (c *Controller) RecoverCalls(ctx context.Context) (n int, err error) {
	if c.store == nil {
		return 0, nil
	}
	ctx, sp := span.Child(ctx, "controller.recover")
	if sp != nil {
		defer func() {
			sp.SetAttr("recovered", strconv.Itoa(n))
			sp.SetError(err)
			sp.End()
		}()
	}
	prefix := CallKeyPrefix(c.keyPrefix)
	recs := make(map[uint64]*callState)
	c.mu.Lock()
	admit := c.recoverOK
	c.mu.Unlock()
	c.storeMu.Lock()
	keys, err := c.store.KeysPrefixContext(ctx, prefix)
	if err != nil {
		c.storeMu.Unlock()
		return 0, err
	}
	for _, k := range keys {
		id, perr := strconv.ParseUint(k[len(prefix):], 10, 64)
		if perr != nil {
			continue // not a call-state key (e.g. a lease living under the prefix)
		}
		if admit != nil && !admit(id) {
			continue // ownership moved away during a reshard; retired key
		}
		h, herr := c.store.HGetAllContext(ctx, k)
		if herr != nil {
			c.storeMu.Unlock()
			return 0, herr
		}
		if st, ok := c.recoveredState(h); ok {
			recs[id] = st
		}
	}
	c.storeMu.Unlock()

	c.mu.Lock()
	for id, st := range recs {
		if _, dup := c.calls[id]; !dup {
			c.calls[id] = st
			n++
		}
	}
	c.mu.Unlock()
	if n > 0 {
		c.metrics.ActiveCalls.Add(float64(n))
	}
	return n, nil
}

// SetLease stamps every subsequent call-state write with the given lease
// epoch (the store's FENCE prefix), so writes from this controller are
// rejected the moment another controller is granted a newer lease. Called by
// the Elector on winning leadership.
func (c *Controller) SetLease(key string, epoch int64) {
	if c.store == nil {
		return
	}
	c.storeMu.Lock()
	c.store.SetFence(key, epoch)
	c.storeMu.Unlock()
}

// nearestSurvivingLocked returns the closest non-failed DC to code, or -1.
// Callers hold c.mu.
//
//sblint:holds mu
func (c *Controller) nearestSurvivingLocked(code geo.CountryCode) int {
	for _, dc := range c.world.DCsByLatency(code) {
		if !c.failed[dc] {
			return dc
		}
	}
	return -1
}

// placePreferringSurvivorsLocked is Place, but when DCs have been failed it
// steers the plan away from them. Callers hold c.mu.
//
//sblint:holds mu
func (c *Controller) placePreferringSurvivorsLocked(cfg model.CallConfig, slot, current int) (int, bool) {
	if len(c.failed) > 0 {
		return c.placer.PlaceAvoiding(cfg, slot, current, func(dc int) bool { return c.failed[dc] })
	}
	return c.placer.Place(cfg, slot, current)
}

// drainTargetLocked picks the DC a live call should move to when its host
// fails: the plan's backup capacity for a frozen call, else the nearest
// surviving DC for the call's population. Returns -1 when nothing survives.
// Callers hold c.mu.
//
//sblint:holds mu
func (c *Controller) drainTargetLocked(st *callState) int {
	if c.placer != nil && st.frozen {
		if st.planned {
			c.placer.Release(st.cfg, st.slot, st.dc)
			st.planned = false
		}
		if dc, inPlan := c.placer.PlaceAvoiding(st.cfg, st.slot, st.dc, func(dc int) bool { return c.failed[dc] }); inPlan && !c.failed[dc] {
			st.planned = true
			return dc
		}
	}
	// Latency fallback: the call's majority country, else its first joiner.
	if st.frozen {
		if maj, _ := st.cfg.Spread.Majority(); maj != "" {
			if dc := c.nearestSurvivingLocked(maj); dc >= 0 {
				return dc
			}
		}
	}
	return c.nearestSurvivingLocked(st.country)
}

// FailDC declares a DC down and drains its live calls onto surviving
// capacity, preferring the allocation plan's backup slots. It returns how
// many calls were moved. Calls with no surviving DC stay recorded on the
// failed DC (and are counted as moved=0, not dropped — they will reroute at
// freeze or end normally). A move whose write the store does not take goes
// back onto the failed DC and FailDC returns ErrStoreUnavailable; failing
// the DC again drains what is still on it.
func (c *Controller) FailDC(ctx context.Context, dc int) (int, error) {
	if dc < 0 || len(c.world.DCs()) <= dc {
		return 0, fmt.Errorf("%w: %d", ErrInvalidDC, dc)
	}
	ctx, sp := span.Child(ctx, "controller.faildc")
	if sp != nil {
		sp.SetAttr("dc", c.dcName(dc))
		defer sp.End()
	}
	obsT := c.obsStart()
	type move struct {
		id uint64
		dc int
	}
	var moves, shed []move
	c.mu.Lock()
	c.failed[dc] = true
	for id, st := range c.calls {
		if st.dc != dc {
			continue
		}
		if target := c.drainTargetLocked(st); target >= 0 && target != dc {
			st.dc = target
			moves = append(moves, move{id, target})
		}
	}
	c.mu.Unlock()
	// Persist outside c.mu: store I/O must not block call admission.
	var err error
	for _, m := range moves {
		c.record(obs.Decision{
			Kind:     "failover",
			Call:     m.id,
			Chosen:   m.dc,
			Prev:     dc,
			Migrated: true,
			Reason:   "drain-failed-dc",
		}, obsT, 0)
		if perr := c.persist(ctx, m.id, "dc", c.dcName(m.dc)); perr != nil {
			shed = append(shed, m)
			err = perr
		}
	}
	c.mu.Lock()
	for _, m := range shed {
		if st, ok := c.calls[m.id]; ok && st.dc == m.dc {
			if st.planned {
				c.placer.Release(st.cfg, st.slot, st.dc)
				st.planned = false
			}
			st.dc = dc
		}
	}
	moved := len(moves) - len(shed)
	c.stats.FailedOver += int64(moved)
	c.mu.Unlock()
	c.metrics.FailedOver.Add(uint64(moved))
	return moved, err
}

// RecoverDC marks a failed DC healthy again. Drained calls stay where they
// are; only new placements may use the DC.
func (c *Controller) RecoverDC(dc int) error {
	if dc < 0 || len(c.world.DCs()) <= dc {
		return fmt.Errorf("%w: %d", ErrInvalidDC, dc)
	}
	c.mu.Lock()
	delete(c.failed, dc)
	c.mu.Unlock()
	return nil
}

// FailedDCs returns the currently failed DC IDs, sorted.
func (c *Controller) FailedDCs() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, len(c.failed))
	for dc := range c.failed {
		out = append(out, dc)
	}
	sort.Ints(out)
	return out
}

// PlanPlacer tracks remaining per-DC slots of an allocation plan
// (Alloc[t][c][x]) and serves Place/Release with §5.4's semantics: prefer
// the current DC when the plan still has room there, otherwise the
// lowest-ACL DC with room, otherwise the DC with the most headroom.
type PlanPlacer struct {
	mu    sync.Mutex
	slots []map[string][]float64 // guarded by mu; [planSlot][configKey] -> remaining per DC
	nT    int
	acl   map[string][]float64 // configKey -> per-DC ACL (immutable after NewPlanPlacer)
}

// NewPlanPlacer indexes an allocation plan. configs must match alloc's
// second dimension; aclOf returns the per-DC ACL used to order preferences.
func NewPlanPlacer(configs []model.CallConfig, alloc [][][]float64, aclOf func(cfg model.CallConfig, dc int) float64, nDCs int) *PlanPlacer {
	p := &PlanPlacer{nT: len(alloc), acl: make(map[string][]float64)}
	p.slots = make([]map[string][]float64, len(alloc))
	for t := range alloc {
		p.slots[t] = make(map[string][]float64)
		for c, cfg := range configs {
			row := make([]float64, len(alloc[t][c]))
			copy(row, alloc[t][c])
			var any bool
			for _, v := range row {
				if v > 0 {
					any = true
					break
				}
			}
			if any {
				p.slots[t][cfg.Key()] = row
			}
		}
	}
	for _, cfg := range configs {
		key := cfg.Key()
		if _, done := p.acl[key]; done {
			continue
		}
		a := make([]float64, nDCs)
		for x := 0; x < nDCs; x++ {
			a[x] = aclOf(cfg, x)
		}
		p.acl[key] = a
	}
	return p
}

// planSlot maps a slot of day onto the plan's (possibly coarsened) slots.
func (p *PlanPlacer) planSlot(slotOfDay int) int {
	if p.nT == 0 {
		return 0
	}
	s := slotOfDay * p.nT / model.SlotsPerDay
	if s >= p.nT {
		s = p.nT - 1
	}
	return s
}

// Place implements Placer.
func (p *PlanPlacer) Place(cfg model.CallConfig, slotOfDay, current int) (int, bool) {
	return p.place(cfg, slotOfDay, current, nil)
}

// PlaceAvoiding implements Placer: Place restricted to DCs for which avoid
// returns false, used to drain failed DCs onto backup capacity.
func (p *PlanPlacer) PlaceAvoiding(cfg model.CallConfig, slotOfDay, current int, avoid func(dc int) bool) (int, bool) {
	return p.place(cfg, slotOfDay, current, avoid)
}

func (p *PlanPlacer) place(cfg model.CallConfig, slotOfDay, current int, avoid func(dc int) bool) (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// The key is built on the stack: a map index by string(key) does not
	// allocate.
	var kb [64]byte
	key := cfg.AppendKey(kb[:0])
	row, ok := p.slots[p.planSlot(slotOfDay)][string(key)]
	if !ok {
		return current, false
	}
	skip := func(x int) bool { return avoid != nil && avoid(x) }
	// Keep the call where it is if the plan has room there.
	if current >= 0 && current < len(row) && row[current] >= 1 && !skip(current) {
		row[current]--
		return current, true
	}
	// Otherwise the lowest-ACL DC with remaining room.
	acl := p.acl[string(key)]
	best := -1
	for x, rem := range row {
		if rem >= 1 && !skip(x) && (best < 0 || acl[x] < acl[best]) {
			best = x
		}
	}
	if best >= 0 {
		row[best]--
		return best, true
	}
	// Plan exhausted for this config in this slot: fall back to the DC
	// with the largest fractional remainder, keeping the tally honest.
	bestRem := 0.0
	for x, rem := range row {
		if rem > bestRem && !skip(x) {
			best, bestRem = x, rem
		}
	}
	if best >= 0 {
		row[best] = 0
		return best, true
	}
	return current, false
}

// Release implements Placer.
func (p *PlanPlacer) Release(cfg model.CallConfig, slotOfDay, dc int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var kb [64]byte
	if row, ok := p.slots[p.planSlot(slotOfDay)][string(cfg.AppendKey(kb[:0]))]; ok && dc >= 0 && dc < len(row) {
		row[dc]++
	}
}

// MinACLPlacer places every config at its minimum-ACL DC — the
// locality-first policy expressed as a Placer, used for the §6.4 migration
// comparison.
type MinACLPlacer struct {
	ACLOf func(cfg model.CallConfig, dc int) float64
	NDCs  int
}

// Place implements Placer.
func (p *MinACLPlacer) Place(cfg model.CallConfig, _ int, _ int) (int, bool) {
	return p.PlaceAvoiding(cfg, 0, 0, nil)
}

// PlaceAvoiding implements Placer.
func (p *MinACLPlacer) PlaceAvoiding(cfg model.CallConfig, _ int, _ int, avoid func(dc int) bool) (int, bool) {
	best, bestACL := -1, 0.0
	for x := 0; x < p.NDCs; x++ {
		if avoid != nil && avoid(x) {
			continue
		}
		if a := p.ACLOf(cfg, x); best < 0 || a < bestACL {
			best, bestACL = x, a
		}
	}
	return best, best >= 0
}

// Release implements Placer (no accounting needed).
func (p *MinACLPlacer) Release(model.CallConfig, int, int) {}
