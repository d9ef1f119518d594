package shard

import (
	"context"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/kvstore"
	"switchboard/internal/obs/span"
)

// Config parameterizes a Manager.
type Config struct {
	// Ring maps conference IDs onto shards at boot. Required; every node in
	// the fleet must use an identical boot ring. A live reshard supersedes it
	// fleet-wide via the stored ring epoch (see WatchStore).
	Ring *Ring
	// ID is this process's lease owner identity. Use the node's advertised
	// HTTP address: peers surface it as the redirect/forward target for
	// shards this node leads. Required.
	ID string
	// Controllers holds one controller per boot shard, each persisting under
	// KeyPrefix(i) with Config.Shard = i. Required, len == Ring.Shards().
	Controllers []*controller.Controller
	// ElectorStore dials a dedicated store client for shard i's elector.
	// Elections must not share the data path's clients: probes have to go
	// through when a shard's write path is saturated. Required.
	ElectorStore func(shard int) (*kvstore.Client, error)
	// NewController builds the controller for a shard added by live
	// resharding, persisting under KeyPrefix(i) with Config.Shard = i. nil
	// means this node cannot grow its shard set and will keep serving its
	// boot ring even if the stored epoch names more shards.
	NewController func(shard int) (*controller.Controller, error)
	// WatchStore dials the manager's own store client for ring-epoch
	// watching. nil disables epoch watching: the node serves its boot ring
	// forever and takes no part in live resharding.
	WatchStore func() (*kvstore.Client, error)
	// Prefer lists the shards this node is the preferred owner of: their
	// electors race immediately at Start, while every other shard's elector
	// waits TakeoverDelay first. A fleet whose preferences partition the
	// shards gets a deterministic steady-state ownership map; failover is
	// unaffected (after the delay every elector races every renew interval).
	Prefer []int
	// TTL is each shard's lease duration (see controller.ElectorConfig);
	// zero means kvstore.DefaultLeaseTTL.
	TTL time.Duration
	// TakeoverDelay is how long a non-preferred elector waits before its
	// first attempt: the head start a shard's preferred owner gets. Zero
	// means one TTL.
	TakeoverDelay time.Duration
	Metrics       *Metrics
	Logger        *slog.Logger
	Tracer        *span.Tracer
}

// routeState is the immutable routing view derived from the last observed
// ring epoch, swapped atomically so the request path reads it without locks.
// A stable fleet carries one ring; mid-reshard views add the target ring
// (pre-cutover) or the previous ring (during cutover, for double reads).
type routeState struct {
	epoch int64
	phase string
	ring  *Ring // authoritative ring for writes
	next  *Ring // target ring during prepare/copy/journal-handoff; else nil
	prev  *Ring // pre-cutover ring during cutover (double-read fallback); else nil
}

// RouteDecision is how one conference ID routes under the current ring
// epoch. At most one of Held/DoubleRead is set.
type RouteDecision struct {
	// Shard must serve the request (its leader, wherever that is).
	Shard int
	// Held means the write is paused by the journal-handoff barrier: the
	// key is moving and its old owner is draining. Callers answer 503 with a
	// short Retry-After — the write is unacked, so nothing is lost.
	Held bool
	// DoubleRead means the key moved in the cutover now serving: if Shard's
	// controller does not know the call, its state may still sit under
	// OldShard's prefix (controller.RecoverCall with that prefix).
	DoubleRead bool
	// OldShard is the pre-cutover owner; valid only when DoubleRead.
	OldShard int
}

// decide routes one conference ID under this view.
func (rs *routeState) decide(conf uint64) RouteDecision {
	d := RouteDecision{Shard: rs.ring.Lookup(conf), OldShard: -1}
	switch rs.phase {
	case PhaseHandoff:
		if rs.next != nil && rs.next.Lookup(conf) != d.Shard {
			d.Held = true
		}
	case PhaseCutover:
		if rs.prev != nil {
			if old := rs.prev.Lookup(conf); old != d.Shard {
				d.DoubleRead = true
				d.OldShard = old
			}
		}
	}
	return d
}

// tracked reports whether a write admitted under this view must be counted
// in-flight: pre-handoff phases admit writes to moving keys, and the handoff
// barrier later waits for those to drain before acking.
func (rs *routeState) tracked(conf uint64, d RouteDecision) bool {
	if rs.next == nil || (rs.phase != PhasePrepare && rs.phase != PhaseCopy) {
		return false
	}
	return rs.next.Lookup(conf) != d.Shard
}

// Manager runs one leadership race per shard and tracks which shards this
// process currently leads, growing its shard set live when the stored ring
// epoch names a wider ring. Safe for concurrent use.
type Manager struct {
	cfg Config

	route atomic.Pointer[routeState]

	// watchMu serializes every use of the watch client: the kvstore client
	// is single-connection and not safe for concurrent commands, and
	// pollEpoch runs from both the watch loop and concurrent lead() hooks.
	watchMu   sync.Mutex
	watch     *kvstore.Client // guarded by watchMu
	watchStop chan struct{}
	watchDone chan struct{}

	mu            sync.Mutex
	ctrls         []*controller.Controller // guarded by mu; grows on reshard
	electors      []*controller.Elector    // guarded by mu; grows on reshard
	stores        []*kvstore.Client        // guarded by mu; grows on reshard
	owned         map[int]bool             // guarded by mu; shards this process leads
	started       bool                     // guarded by mu
	stopped       bool                     // guarded by mu
	timers        []*time.Timer            // guarded by mu; pending delayed elector starts
	running       map[int]struct{}         // guarded by mu; electors whose Run loop is live
	movedInflight map[int]int              // guarded by mu; in-flight moved-key writes per shard
	acked         map[int]int64            // guarded by mu; last handoff ack epoch per source shard
	progress      *ReshardState            // guarded by mu; last observed coordinator checkpoint
}

// NewManager validates cfg and builds the per-shard electors (none running
// yet; call Start).
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Ring == nil {
		return nil, errConfig("Ring is required")
	}
	if cfg.ID == "" {
		return nil, errConfig("ID is required")
	}
	if len(cfg.Controllers) != cfg.Ring.Shards() {
		return nil, errConfig("need exactly one controller per shard")
	}
	if cfg.ElectorStore == nil {
		return nil, errConfig("ElectorStore is required")
	}
	if cfg.TTL <= 0 {
		cfg.TTL = kvstore.DefaultLeaseTTL
	}
	if cfg.TakeoverDelay <= 0 {
		cfg.TakeoverDelay = cfg.TTL
	}
	m := &Manager{
		cfg:           cfg,
		owned:         make(map[int]bool),
		running:       make(map[int]struct{}),
		movedInflight: make(map[int]int),
		acked:         make(map[int]int64),
	}
	m.route.Store(&routeState{epoch: 1, phase: PhaseStable, ring: cfg.Ring})
	m.cfg.Metrics.ringEpochGauge().Set(1)
	for i := 0; i < cfg.Ring.Shards(); i++ {
		if err := m.addShardLocked(i, cfg.Controllers[i]); err != nil {
			for _, s := range m.stores {
				_ = s.Close()
			}
			return nil, err
		}
	}
	return m, nil
}

// addShardLocked registers shard i's controller, elector store, and elector.
// Called with mu held except from NewManager (no concurrency yet).
//
//sblint:holds mu
func (m *Manager) addShardLocked(i int, ctrl *controller.Controller) error {
	store, err := m.cfg.ElectorStore(i)
	if err != nil {
		return err
	}
	shard := i
	ctrl.SetRecoverFilter(func(id uint64) bool {
		return m.route.Load().ring.Lookup(id) == shard
	})
	m.ctrls = append(m.ctrls, ctrl)
	m.stores = append(m.stores, store)
	m.electors = append(m.electors, controller.NewElector(controller.ElectorConfig{
		Store:   store,
		Key:     LeaseKey(shard),
		ID:      m.cfg.ID,
		TTL:     m.cfg.TTL,
		OnLead:  func(epoch int64) { m.lead(shard, epoch) },
		OnLose:  func() { m.lose(shard) },
		Metrics: m.cfg.Metrics.electorMetrics(shard),
		Logger:  m.cfg.Logger,
		Tracer:  m.cfg.Tracer,
	}))
	return nil
}

type errConfig string

func (e errConfig) Error() string { return "shard: " + string(e) }

// Start launches the leadership races: preferred shards immediately, the rest
// after TakeoverDelay (so a booting fleet settles onto its preference map
// instead of whoever's scheduler won the first millisecond). With a
// WatchStore it also starts the ring-epoch watcher, first syncing once so a
// node booting into a mid-flight reshard joins at the fleet's ring, not its
// stale boot ring.
func (m *Manager) Start() {
	m.mu.Lock()
	if m.started || m.stopped {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()

	if m.cfg.WatchStore != nil {
		if c, err := m.cfg.WatchStore(); err != nil {
			if m.cfg.Logger != nil {
				m.cfg.Logger.Warn("ring-epoch watch disabled: store dial failed", "err", err)
			}
		} else {
			m.watchMu.Lock()
			m.watch = c
			m.watchMu.Unlock()
			m.watchStop = make(chan struct{})
			m.watchDone = make(chan struct{})
			m.pollEpoch()
			go m.watchLoop()
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return
	}
	preferred := make(map[int]bool, len(m.cfg.Prefer))
	for _, s := range m.cfg.Prefer {
		if s >= 0 && s < len(m.electors) {
			preferred[s] = true
		}
	}
	for i := range m.electors {
		if preferred[i] {
			m.runElectorLocked(i)
			continue
		}
		shard := i
		m.timers = append(m.timers, time.AfterFunc(m.cfg.TakeoverDelay, func() {
			m.mu.Lock()
			defer m.mu.Unlock()
			if m.stopped {
				return
			}
			m.runElectorLocked(shard)
		}))
	}
}

// runElectorLocked launches shard i's lease loop once. Callers hold mu.
//
//sblint:holds mu
func (m *Manager) runElectorLocked(i int) {
	if _, live := m.running[i]; live {
		return
	}
	m.running[i] = struct{}{}
	go m.electors[i].Run()
}

// lead is the per-shard OnLead hook: sync the ring epoch (a successor must
// know whether a handoff or cutover is in flight before serving a single
// write), arm the controller's fence for this shard's lease epoch, and
// rebuild in-flight call state the previous leader persisted
// (controller.RecoverCalls), so calls started under the previous leader keep
// their freeze and end transitions. Calls still in memory from an earlier
// reign of this node (lose keeps them) are evicted first: a successor may
// have ended or moved them since, and until lead returns the node serves
// nothing for the shard, so the store is the one authority.
func (m *Manager) lead(shard int, epoch int64) {
	m.pollEpoch()
	ctrl := m.Controller(shard)
	ctrl.SetLease(LeaseKey(shard), epoch)
	ctrl.EvictCalls(func(uint64) bool { return true })
	if n, err := ctrl.RecoverCalls(context.Background()); err != nil {
		if m.cfg.Logger != nil {
			m.cfg.Logger.Warn("shard call-state recovery failed", "shard", shard, "err", err)
		}
	} else if n > 0 && m.cfg.Logger != nil {
		m.cfg.Logger.Info("shard call state recovered", "shard", shard, "calls", n)
	}
	m.mu.Lock()
	m.owned[shard] = true
	delete(m.acked, shard) // a fresh reign must ack handoff at its own epoch
	n := len(m.owned)
	m.mu.Unlock()
	m.cfg.Metrics.ownedGauge().Set(float64(n))
}

// lose is the per-shard OnLose hook. The controller's fence is deliberately
// LEFT ARMED at the deposed epoch: a write this node still issues for the
// shard belongs to the lost leadership, so the store rejects it (fenced,
// counted in Stats, answered 503) instead of landing it over the successor's
// state. Re-winning the shard re-arms the fence at the new epoch via lead,
// which also swaps these calls for the store's.
func (m *Manager) lose(shard int) {
	m.mu.Lock()
	delete(m.owned, shard)
	delete(m.acked, shard)
	n := len(m.owned)
	m.mu.Unlock()
	m.cfg.Metrics.ownedGauge().Set(float64(n))
}

// Ring returns the ring currently authoritative for writes (the boot ring
// until a stored epoch supersedes it).
func (m *Manager) Ring() *Ring { return m.route.Load().ring }

// RingEpoch returns the serving ring's epoch (1 for the boot ring).
func (m *Manager) RingEpoch() int64 { return m.route.Load().epoch }

// Phase returns the reshard phase this node last observed (PhaseStable when
// no reshard is in flight).
func (m *Manager) Phase() string { return m.route.Load().phase }

// Reshard returns the last observed coordinator checkpoint for progress
// reporting; ok is false when no reshard is in flight.
func (m *Manager) Reshard() (st ReshardState, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.progress == nil {
		return ReshardState{}, false
	}
	return *m.progress, true
}

// Metrics returns the manager's telemetry bundle (may be nil).
func (m *Manager) Metrics() *Metrics { return m.cfg.Metrics }

// ID returns this process's lease owner identity.
func (m *Manager) ID() string { return m.cfg.ID }

// TTL returns the shard lease TTL (the honest Retry-After for a routing 503:
// ownership moves within one TTL).
func (m *Manager) TTL() time.Duration { return m.cfg.TTL }

// Owns reports whether this process currently leads the shard.
func (m *Manager) Owns(shard int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.owned[shard]
}

// Owned returns the shards this process currently leads, sorted.
func (m *Manager) Owned() []int {
	m.mu.Lock()
	out := make([]int, 0, len(m.owned))
	for s := range m.owned {
		out = append(out, s)
	}
	m.mu.Unlock()
	sort.Ints(out)
	return out
}

// Controller returns shard i's controller (led or not), nil when out of
// range.
func (m *Manager) Controller(shard int) *controller.Controller {
	m.mu.Lock()
	defer m.mu.Unlock()
	if shard < 0 || shard >= len(m.ctrls) {
		return nil
	}
	return m.ctrls[shard]
}

// Controllers returns a snapshot of every shard controller, indexed by shard.
func (m *Manager) Controllers() []*controller.Controller {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*controller.Controller, len(m.ctrls))
	copy(out, m.ctrls)
	return out
}

// BeginWrite resolves the shard that must serve a call-state write under the
// current ring epoch. While a reshard is copying, admitted writes to moving
// keys are tracked in flight — release (non-nil only then) must be called
// once the write is done, and the journal-handoff barrier waits for the
// count to drain before acking, so "drained" provably covers every admitted
// write. Re-deciding after registering closes the race with a concurrent
// phase flip: either the write registered before the flip (the barrier waits
// for it) or it observes the flip and is held.
func (m *Manager) BeginWrite(conf uint64) (RouteDecision, func()) {
	for {
		rs := m.route.Load()
		d := rs.decide(conf)
		if !rs.tracked(conf, d) {
			return d, nil
		}
		shard := d.Shard
		m.mu.Lock()
		m.movedInflight[shard]++
		m.mu.Unlock()
		if m.route.Load() == rs {
			return d, func() {
				m.mu.Lock()
				m.movedInflight[shard]--
				m.mu.Unlock()
			}
		}
		// The route flipped between deciding and registering; undo and retry
		// against the new view.
		m.mu.Lock()
		m.movedInflight[shard]--
		m.mu.Unlock()
	}
}

// Serving returns the controller that serves conf under d here, nil when
// this node does not lead d.Shard. In the cutover double-read window it first
// pulls a call the owner does not know forward from the pre-cutover owner's
// prefix (best effort: a call found nowhere stays unknown).
func (m *Manager) Serving(ctx context.Context, conf uint64, d RouteDecision) *controller.Controller {
	if !m.Owns(d.Shard) {
		return nil
	}
	ctrl := m.Controller(d.Shard)
	if d.DoubleRead && !ctrl.Knows(conf) {
		_, _ = ctrl.RecoverCall(ctx, conf, KeyPrefix(d.OldShard))
	}
	return ctrl
}

// Epoch returns the fencing epoch of shard's lease as last observed by this
// node's elector (0 before any election lands). Monotonic per shard: every
// leadership change bumps it, so dashboards can tell a stable leader from one
// that is churning.
func (m *Manager) Epoch(shard int) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if shard < 0 || shard >= len(m.electors) {
		return 0
	}
	return m.electors[shard].Epoch()
}

// OwnerHint returns the last observed leader of a shard this process does not
// lead ("" when unknown or led locally) — the redirect target for the HTTP
// router.
func (m *Manager) OwnerHint(shard int) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if shard < 0 || shard >= len(m.electors) {
		return ""
	}
	return m.electors[shard].LeaderHint()
}

// Stop performs an orderly shutdown with live shard handoff: it resigns the
// lease of every shard this process leads, so a successor takes over within
// a renew interval instead of waiting out the TTL; the successor's OnLead
// rebuilds call state from the store, which holds every write this node
// answered 2xx. Elector store clients are closed on the way out.
func (m *Manager) Stop() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	for _, t := range m.timers {
		t.Stop()
	}
	handoffs := len(m.owned)
	running := make([]int, 0, len(m.running))
	for i := range m.running {
		running = append(running, i)
	}
	electors := make([]*controller.Elector, len(m.electors))
	copy(electors, m.electors)
	stores := make([]*kvstore.Client, len(m.stores))
	copy(stores, m.stores)
	watchStop := m.watchStop
	m.mu.Unlock()

	if watchStop != nil {
		close(watchStop)
		<-m.watchDone
		m.watchMu.Lock()
		_ = m.watch.Close()
		m.watchMu.Unlock()
	}

	if m.cfg.Metrics != nil {
		m.cfg.Metrics.Handoffs.Add(uint64(handoffs))
	}
	for _, i := range running {
		electors[i].Stop()
	}
	for _, i := range running {
		<-electors[i].Done()
	}
	for _, s := range stores {
		_ = s.Close()
	}
}
