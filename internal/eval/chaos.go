package eval

import (
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/faults"
)

// ChaosResult reports the fault-injection drill: the same event stream
// replayed twice — once against a healthy store, once through the chaos
// proxy, which injects latency and severs the store for the middle third of
// the stream.
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
	// Degraded / Replayed / Dropped are the chaos run's journal counters.
	Degraded, Replayed, Dropped int64
	// LostTransitions counts calls whose final state never reached the
	// store (must be 0: the journal replays everything on reconnect).
	LostTransitions int
	// Seed reproduces the injected fault schedule.
	Seed int64
}

// Chaos replays the evaluation window's events through the fault-injection
// proxy (injected latency plus a full store partition for the middle third
// of the stream) and audits that graceful degradation lost nothing.
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
		return d.controller(client, fleet, 0, "")
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
	if res.CleanEventsPerSec, err = d.replay(nil, to(ctrl), func(controller.Event, time.Duration) {}); err != nil {
		return nil, err
	}
	res.CleanMigrated = ctrl.Stats().Migrated

	// Chaos run: same stream through the proxy, with injected latency on
	// top of a store partition for the middle third of the stream.
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
	cutAt, restoreAt := len(d.events)/3, 2*len(d.events)/3
	res.ChaosEventsPerSec, err = d.replay(func(i int) {
		if i == cutAt {
			proxy.Cut()
		}
		if i == restoreAt {
			proxy.Restore()
		}
	}, to(ctrl2), func(_ controller.Event, took time.Duration) {
		res.MaxStall = max(res.MaxStall, took)
	})
	if err != nil {
		return nil, err
	}
	res.ChaosMigrated = ctrl2.Stats().Migrated

	// Heal and drain the journal.
	if err := d.drainJournal(ctrl2); err != nil {
		return nil, err
	}
	st := ctrl2.Stats()
	res.Degraded, res.Replayed, res.Dropped = st.Degraded, st.Replayed, st.Dropped

	// Audit: the store never lost data (only connectivity), so every call
	// must have reached its terminal state.
	if res.LostTransitions, err = d.lost(addr2, unsharded); err != nil {
		return nil, err
	}
	env.countRun("chaos")
	if env.Obs != nil {
		env.Obs.Counter("sb_eval_chaos_replayed_total",
			"Journaled writes replayed across chaos drills.").Add(uint64(res.Replayed))
		env.Obs.Counter("sb_eval_chaos_dropped_total",
			"Journaled writes dropped across chaos drills.").Add(uint64(res.Dropped))
		env.Obs.Counter("sb_eval_chaos_lost_total",
			"Call transitions lost across chaos drills (must stay 0).").Add(uint64(res.LostTransitions))
	}
	return res, nil
}
