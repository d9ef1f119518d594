package eval

import (
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/faults"
)

// ChaosResult reports the fault-injection drill: the same event stream
// replayed twice — once against a healthy store, once through the chaos
// proxy, which injects latency and severs the store a third of the way into
// the stream for ChaosCutAttempts attempts.
type ChaosResult struct {
	// Calls and Events describe the replayed stream.
	Calls, Events int
	// CleanEventsPerSec and ChaosEventsPerSec are the controller's
	// sustained rates in the two runs.
	CleanEventsPerSec, ChaosEventsPerSec float64
	// CleanMigrated and ChaosMigrated compare placement decisions; faults
	// must not change where calls are hosted, so these should be equal.
	CleanMigrated, ChaosMigrated int64
	// MaxStall is the longest any single controller operation took during
	// the chaos run — bounded by the client's deadlines, not the outage.
	MaxStall time.Duration
	// Shed counts the chaos run's attempts the controller refused with
	// ErrStoreUnavailable; the drill re-sent each until it committed.
	Shed int
	// LostTransitions counts calls whose final state never reached the
	// store (must be 0: every event committed before the next was sent).
	LostTransitions int
	// Seed reproduces the injected fault schedule.
	Seed int64
}

// ChaosCutAttempts is how many attempts the chaos drill's store cut lasts:
// about one 300 ms lease TTL of shed attempts, counted in attempts rather
// than events because no event gets past the cut.
const ChaosCutAttempts = 300

// Chaos replays the evaluation window's events through the fault-injection
// proxy (injected latency plus a full store cut a third of the way into the
// stream) and audits that shedding lost nothing.
func Chaos(env *Env, seed int64) (*ChaosResult, error) {
	d, err := newDrill(env, "Chaos")
	if err != nil {
		return nil, err
	}
	defer d.close()
	res := &ChaosResult{Calls: len(d.recs), Events: len(d.events), Seed: seed}

	newCtrl := func(addr string) (*controller.Controller, error) {
		opts := fleet.Client(seed)
		opts.MaxRetries = -1
		client, err := d.dial(opts, addr)
		if err != nil {
			return nil, err
		}
		return d.controller(client, 0, "")
	}

	// Clean run.
	_, addr, err := d.store()
	if err != nil {
		return nil, err
	}
	ctrl, err := newCtrl(addr)
	if err != nil {
		return nil, err
	}
	if res.CleanEventsPerSec, _, err = d.replay(nil, to(ctrl), func(controller.Event, time.Duration) {}); err != nil {
		return nil, err
	}
	res.CleanMigrated = ctrl.Stats().Migrated

	// Chaos run: same stream through the proxy, with injected latency on
	// top of a store cut.
	_, addr2, err := d.store()
	if err != nil {
		return nil, err
	}
	inj := faults.NewInjector(seed, faults.Rule{Kind: faults.Latency, Prob: 0.02, Delay: time.Millisecond})
	proxy, err := faults.NewProxy(addr2, inj)
	if err != nil {
		return nil, err
	}
	d.onClose(func() { _ = proxy.Close() })
	ctrl2, err := newCtrl(proxy.Addr())
	if err != nil {
		return nil, err
	}
	cutAt := len(d.events) / 3
	res.ChaosEventsPerSec, res.Shed, err = d.replay(func(attempt int) {
		if attempt == cutAt {
			proxy.Cut()
		}
		if attempt == cutAt+ChaosCutAttempts {
			proxy.Restore()
		}
	}, to(ctrl2), func(_ controller.Event, took time.Duration) {
		res.MaxStall = max(res.MaxStall, took)
	})
	if err != nil {
		return nil, err
	}
	res.ChaosMigrated = ctrl2.Stats().Migrated

	// Audit: the store never lost data (only connectivity), so every call
	// must have reached its terminal state.
	if res.LostTransitions, err = d.lost(addr2, unsharded); err != nil {
		return nil, err
	}
	env.countRun("chaos")
	if env.Obs != nil {
		env.Obs.Counter("sb_eval_chaos_shed_total",
			"Call events shed (and re-sent) across chaos drills.").Add(uint64(res.Shed))
		env.Obs.Counter("sb_eval_chaos_lost_total",
			"Call transitions lost across chaos drills (must stay 0).").Add(uint64(res.LostTransitions))
	}
	return res, nil
}
