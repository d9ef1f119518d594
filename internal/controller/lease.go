// Lease-based controller leadership. Controllers race SETLEASE on a
// shared store key; the winner leads and renews within the TTL, the
// losers run hot standbys and watch the lease so they can take over the
// moment it lapses. Leadership changes bump the lease
// epoch, which the leader stamps onto every call-state write (see
// Controller.SetLease), so a deposed leader is fenced out of the store even
// if it keeps running.

package controller

import (
	"context"
	"log/slog"
	"sync"
	"time"

	"switchboard/internal/kvstore"
	"switchboard/internal/obs"
	"switchboard/internal/obs/span"
)

// ElectorConfig parameterizes an Elector.
type ElectorConfig struct {
	// Store is the elector's own kvstore client. It must not be shared with
	// the controller's write path: election probes must still go through
	// when the data path is saturated, and the elector mutates no fence
	// state on it.
	Store *kvstore.Client
	// Key is the lease key (shard.LeaseKey(i), or the reshard
	// coordinator's). Required.
	Key string
	// ID identifies this controller as the lease owner (host:port, pod
	// name...). Required.
	ID string
	// TTL is the lease duration; zero means kvstore.DefaultLeaseTTL. The
	// elector attempts once per renew interval, kvstore.TimingFor(TTL).Renew,
	// and each attempt ends within it.
	TTL time.Duration
	// OnLead runs once per leadership acquisition with the granted epoch
	// (typically Controller.SetLease plus a call-state recovery). Called from
	// the elector goroutine.
	OnLead func(epoch int64)
	// OnLose runs once per leadership loss (lease observed under another
	// owner, or renewals failing past a TTL) and once on an orderly resign
	// at Stop. Called from the elector goroutine.
	OnLose  func()
	Metrics *ElectorMetrics
	Logger  *slog.Logger
	// Tracer, when non-nil, emits one span per lease acquire/renew attempt.
	Tracer *span.Tracer
}

// ElectorMetrics is the election telemetry bundle; nil-safe like the rest of
// the obs counters.
type ElectorMetrics struct {
	Leader    *obs.Gauge // 1 while this controller holds the lease
	Epoch     *obs.Gauge // current lease epoch while leading
	Renewals  *obs.Counter
	Losses    *obs.Counter
	Takeovers *obs.Counter
}

// Elector runs the lease loop for one controller. Start it with Run (in a
// goroutine); observe it with IsLeader/Epoch/LeaderHint.
type Elector struct {
	cfg   ElectorConfig
	renew time.Duration

	mu      sync.Mutex
	leading bool      // guarded by mu
	epoch   int64     // guarded by mu; valid while leading
	hint    string    // guarded by mu; last observed holder when following
	lastOK  time.Time // guarded by mu; last successful store exchange while leading

	stopOnce sync.Once
	stopCh   chan struct{}
	done     chan struct{}
}

// NewElector validates cfg and returns an Elector (not yet running).
func NewElector(cfg ElectorConfig) *Elector {
	if cfg.TTL <= 0 {
		cfg.TTL = kvstore.DefaultLeaseTTL
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &ElectorMetrics{}
	}
	return &Elector{cfg: cfg, renew: kvstore.TimingFor(cfg.TTL).Renew, stopCh: make(chan struct{}), done: make(chan struct{})}
}

// Run drives the lease loop until Stop: an immediate acquisition attempt,
// then one attempt per renew interval. A follower's attempt doubles as its
// takeover watch — SETLEASE succeeds the moment the leader's grant lapses.
func (e *Elector) Run() {
	defer close(e.done)
	e.attempt()
	t := time.NewTicker(e.renew)
	defer t.Stop()
	for {
		select {
		case <-e.stopCh:
			e.resign()
			return
		case <-t.C:
			e.attempt()
		}
	}
}

// attempt makes one acquire-or-renew pass and reconciles the local
// leadership state with the outcome.
func (e *Elector) attempt() {
	e.mu.Lock()
	wasLeading := e.leading
	e.mu.Unlock()

	name := "lease.acquire"
	if wasLeading {
		name = "lease.renew"
	}
	ctx := context.Background()
	var sp *span.Span
	if e.cfg.Tracer != nil {
		ctx, sp = e.cfg.Tracer.Start(ctx, name)
	}
	ctx, cancel := context.WithTimeout(ctx, e.renew)
	epoch, err := e.cfg.Store.SetLeaseContext(ctx, e.cfg.Key, e.cfg.ID, e.cfg.TTL)
	cancel()

	switch {
	case err == nil:
		e.cfg.Metrics.Renewals.Inc()
		e.won(epoch, wasLeading)
	case kvstore.IsLeaseHeldError(err):
		// Definitive: someone else leads. Follow them.
		e.follow(kvstore.LeaseHolder(err), wasLeading, "lease held")
	default:
		// Transport trouble (or a standby mid-promotion). A leader keeps
		// leading on the grace of its last grant: only when the store has
		// been unreachable for a whole TTL — so the grant may have lapsed
		// and another controller may hold the lease — does it step down.
		if sp != nil {
			sp.SetError(err)
		}
		e.mu.Lock()
		graceOver := e.leading && time.Since(e.lastOK) >= e.cfg.TTL
		e.mu.Unlock()
		if graceOver {
			e.follow("", true, "renewals failing past TTL")
		}
	}
	if sp != nil {
		sp.End()
	}
}

// won records a successful grant. A fresh acquisition (not a renewal) fires
// OnLead and, when the epoch shows a previous reign, counts a takeover.
func (e *Elector) won(epoch int64, wasLeading bool) {
	e.mu.Lock()
	e.leading = true
	e.epoch = epoch
	e.hint = ""
	e.lastOK = time.Now()
	e.mu.Unlock()
	e.cfg.Metrics.Leader.Set(1)
	e.cfg.Metrics.Epoch.Set(float64(epoch))
	if wasLeading {
		return
	}
	if epoch > 1 {
		e.cfg.Metrics.Takeovers.Inc()
	}
	if e.cfg.Logger != nil {
		e.cfg.Logger.Info("leadership acquired", "key", e.cfg.Key, "id", e.cfg.ID, "epoch", epoch)
	}
	if e.cfg.OnLead != nil {
		e.cfg.OnLead(epoch)
	}
}

// follow records not-leading. A transition out of leadership fires OnLose.
func (e *Elector) follow(holder string, wasLeading bool, why string) {
	e.mu.Lock()
	e.leading = false
	e.epoch = 0
	if holder != "" {
		e.hint = holder
	}
	e.mu.Unlock()
	e.cfg.Metrics.Leader.Set(0)
	e.cfg.Metrics.Epoch.Set(0)
	if !wasLeading {
		return
	}
	e.cfg.Metrics.Losses.Inc()
	if e.cfg.Logger != nil {
		e.cfg.Logger.Warn("leadership lost", "key", e.cfg.Key, "id", e.cfg.ID,
			"holder", holder, "reason", why)
	}
	if e.cfg.OnLose != nil {
		e.cfg.OnLose()
	}
}

// resign releases the lease on an orderly stop, so a peer takes over in one
// renew interval instead of waiting out the TTL. Best-effort: if the store
// is unreachable the lease simply lapses. A resign is not a loss: it logs at
// INFO and leaves the Losses counter alone, but still runs OnLose.
func (e *Elector) resign() {
	if !e.IsLeader() {
		return
	}
	_ = e.cfg.Store.DelLease(e.cfg.Key, e.cfg.ID)
	e.follow("", false, "") // clears the state and gauges, counts no loss
	if e.cfg.Logger != nil {
		e.cfg.Logger.Info("leadership resigned", "key", e.cfg.Key, "id", e.cfg.ID)
	}
	if e.cfg.OnLose != nil {
		e.cfg.OnLose()
	}
}

// Stop ends the lease loop, resigning leadership if held. It does not wait;
// receive from Done for that.
func (e *Elector) Stop() {
	e.stopOnce.Do(func() { close(e.stopCh) })
}

// Done is closed when Run has returned.
func (e *Elector) Done() <-chan struct{} { return e.done }

// IsLeader reports whether this controller currently holds the lease.
func (e *Elector) IsLeader() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.leading
}

// Epoch returns the current lease epoch (0 when not leading).
func (e *Elector) Epoch() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.leading {
		return 0
	}
	return e.epoch
}

// LeaderHint returns the last observed lease holder while following ("" when
// leading or unknown), for Retry-After redirects on the HTTP surface.
func (e *Elector) LeaderHint() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.leading {
		return ""
	}
	return e.hint
}
