package eval

import (
	"context"
	"fmt"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/kvstore"
	"switchboard/internal/shard"
)

// ReshardResult reports the live shard-split drill: the evaluation window's
// events replayed against a 3-shard fleet that is split to 4 shards online,
// a third of the way through the stream, with the stream still flowing.
type ReshardResult struct {
	// Calls and Events describe the replayed stream; the ring grows from
	// FromShards to ToShards mid-stream.
	Calls, Events        int
	FromShards, ToShards int
	// EventsPerSec is the sustained rate across the whole run, split
	// included.
	EventsPerSec float64
	// SplitDuration is the coordinator's wall-clock time from start to the
	// fleet landing stable on the target ring.
	SplitDuration time.Duration
	// HeldWrites counts operations that hit the journal-handoff write hold
	// on a migrating key and had to wait; MaxHeldStall is the longest such
	// wait. Bounded by the handoff barrier, not the copy.
	HeldWrites   int
	MaxHeldStall time.Duration
	// MaxStall is the longest any single non-held operation took during the
	// split.
	MaxStall time.Duration
	// LostTransitions counts calls whose terminal state never reached the
	// store under their POST-SPLIT owner's key prefix (must be 0).
	LostTransitions int
	// FinalEpoch is the ring epoch after the split (boot epoch + 1).
	FinalEpoch int64
	// Seed reproduces the drill's client jitter.
	Seed int64
}

// reshardDrillTo is the target ring width; the drill grows drillShards →
// reshardDrillTo so exactly one shard's worth of keys (~1/4) migrates.
const reshardDrillTo = 4

// ReshardDrill replays the evaluation window's events against a single-node
// 3-shard fleet and splits the ring to 4 shards online, a third of the way
// into the stream. Unlike ShardDrill — which kills a leader and measures
// failover — this drill keeps every node healthy and measures the cost of
// growth itself: the stream routes every op through BeginWrite, so it feels
// the journal-handoff write holds on migrating keys and the cutover
// double-read window exactly as the HTTP data plane does. The audit then
// requires every call's terminal state under its post-split owner's prefix:
// the split may slow writes (boundedly), but may not lose one.
func ReshardDrill(env *Env, seed int64) (*ReshardResult, error) {
	d, err := newDrill(env, "ReshardDrill")
	if err != nil {
		return nil, err
	}
	defer d.close()
	res := &ReshardResult{
		Calls: len(d.recs), Events: len(d.events),
		FromShards: drillShards, ToShards: reshardDrillTo, Seed: seed,
	}

	_, addr, err := d.store()
	if err != nil {
		return nil, err
	}
	ring, err := shard.NewRing(drillShards, 64)
	if err != nil {
		return nil, err
	}
	newCtrl := func(i int) (*controller.Controller, error) { return d.shardController(addr, seed, i) }
	ctrls := make([]*controller.Controller, drillShards)
	for i := range ctrls {
		if ctrls[i], err = newCtrl(i); err != nil {
			return nil, err
		}
	}
	m, err := d.manager(shard.Config{
		Ring:        ring,
		ID:          "reshard-drill",
		Controllers: ctrls,
		ElectorStore: func(i int) (*kvstore.Client, error) {
			return kvstore.DialOptions(addr, fleet.Client(seed+100+int64(i)))
		},
		NewController: newCtrl,
		WatchStore: func() (*kvstore.Client, error) {
			return kvstore.DialOptions(addr, fleet.Client(seed+200))
		},
		Prefer: []int{0, 1, 2},
		TTL:    fleet.TTL,
	})
	if err != nil {
		return nil, err
	}
	if err := d.waitUntil(10*time.Second, "fleet settled", func() bool {
		return m.Owns(0) && m.Owns(1) && m.Owns(2)
	}); err != nil {
		return nil, err
	}

	co, err := shard.NewCoordinator(shard.CoordinatorConfig{
		Dial: func() (*kvstore.Client, error) {
			return kvstore.DialOptions(addr, fleet.Client(seed+300))
		},
		ID:         "reshard-drill-co",
		BootShards: drillShards,
		BootVNodes: 64,
		TTL:        fleet.TTL,
	})
	if err != nil {
		return nil, err
	}
	d.onClose(func() { _ = co.Close() })
	coCtx, coCancel := context.WithTimeout(context.Background(), 60*time.Second)
	d.onClose(coCancel)

	// The split launches a third of the way into the stream and runs
	// concurrently with it; splitDone carries the coordinator's verdict.
	// Every op routes exactly as the HTTP data plane does: BeginWrite, wait
	// out a handoff hold, recover through the double-read window at cutover.
	cutAt := len(d.events) / 3
	splitDone := make(chan error, 1)
	var splitStart time.Time
	held := false
	res.EventsPerSec, _, err = d.replay(func(i int) {
		if i == cutAt {
			splitStart = time.Now() //sblint:allow nondeterminism -- split duration reference point
			go func() {
				_, err := co.Run(coCtx, reshardDrillTo)
				splitDone <- err
			}()
		}
	}, func(e controller.Event) (*controller.Controller, func(), error) {
		var rd shard.RouteDecision
		var release func()
		held = false
		if err := d.waitUntil(10*time.Second, "write hold lifted", func() bool {
			rd, release = m.BeginWrite(e.CallID)
			held = held || rd.Held
			return !rd.Held
		}); err != nil {
			return nil, nil, err
		}
		ctrl := m.Serving(context.Background(), e.CallID, rd)
		if ctrl == nil {
			return nil, release, fmt.Errorf("no live controller for shard %d", rd.Shard)
		}
		return ctrl, release, nil
	}, func(_ controller.Event, took time.Duration) {
		if held {
			res.HeldWrites++
			res.MaxHeldStall = max(res.MaxHeldStall, took)
		} else {
			res.MaxStall = max(res.MaxStall, took)
		}
	})
	if err != nil {
		return nil, err
	}

	if err := <-splitDone; err != nil {
		return nil, fmt.Errorf("eval: split failed: %w", err)
	}
	if err := d.waitUntil(10*time.Second, "fleet converged on the target ring", func() bool {
		return m.Phase() == shard.PhaseStable && m.Ring().Shards() == reshardDrillTo
	}); err != nil {
		return nil, err
	}
	res.SplitDuration = time.Since(splitStart) //sblint:allow nondeterminism -- split duration measurement
	res.FinalEpoch = m.RingEpoch()

	// Audit against the post-split ring: every call's terminal state under
	// its NEW owner's prefix. A lost moved key — copied but retired before
	// the copy landed, or stranded under the source prefix — shows up here.
	ringTo, err := shard.NewRing(reshardDrillTo, 64)
	if err != nil {
		return nil, err
	}
	if res.LostTransitions, err = d.lost(addr, func(id uint64) string { return shard.KeyPrefix(ringTo.Lookup(id)) }); err != nil {
		return nil, err
	}

	env.countRun("reshard")
	if env.Obs != nil {
		env.Obs.Counter("sb_eval_reshard_lost_total",
			"Call transitions lost across reshard drills (must stay 0).").Add(uint64(res.LostTransitions))
	}
	return res, nil
}
