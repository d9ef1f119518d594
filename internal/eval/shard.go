package eval

import (
	"fmt"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/faults"
	"switchboard/internal/kvstore"
	"switchboard/internal/shard"
)

// ShardResult reports the sharded-control-plane drill: the evaluation
// window's events replayed against a 3-shard fleet whose majority owner is
// hard-killed a third of the way through the stream. The survivor must take
// over the dead node's shards, the untouched shard must keep serving
// throughout, and no call transition may be lost.
type ShardResult struct {
	// Calls and Events describe the replayed stream; Shards is the ring
	// width.
	Calls, Events, Shards int
	// EventsPerSec is the sustained rate across the whole run, takeover
	// stall included.
	EventsPerSec float64
	// PromotionLatency is how long the survivor took to own both of the
	// dead node's shards after the kill.
	PromotionLatency time.Duration
	// MaxStall is the longest any single operation on a failed-over shard
	// took — bounded by lease TTL + takeover delay, not by the kill.
	MaxStall time.Duration
	// UntouchedMaxStall is the longest stall on the shard whose leader
	// survived; the kill must not perturb it.
	UntouchedMaxStall time.Duration
	// LostTransitions counts calls whose terminal state never reached the
	// store under their shard's key prefix (must be 0: every op was acked
	// by a live shard leader against a healthy store).
	LostTransitions int
	// Seed reproduces the drill's client jitter.
	Seed int64
}

// drillShards is the ring width: small enough that two nodes cover it, wide
// enough that one node's death strands a majority of the key space.
const drillShards = 3

// ShardDrill replays the evaluation window's events against a 3-shard fleet
// of two nodes — node A preferred owner of shards 0 and 1, node B of shard 2
// — and hard-kills node A (its store and elector paths both severed, like a
// process crash) a third of the way in. Unlike PartitionDrill — one lease,
// one failover — this drill exercises independent per-shard leases: B's
// electors race the two orphaned leases after the takeover delay, recover
// in-flight call state under each shard's key prefix, and the stream resumes,
// while shard 2 serves throughout.
func ShardDrill(env *Env, seed int64) (*ShardResult, error) {
	d, err := newDrill(env, "ShardDrill")
	if err != nil {
		return nil, err
	}
	defer d.close()
	res := &ShardResult{Calls: len(d.recs), Events: len(d.events), Shards: drillShards, Seed: seed}

	_, addr, err := d.store()
	if err != nil {
		return nil, err
	}
	// Node A reaches the store only through the chaos proxy; Cut() is its
	// kill switch. Node B dials direct — it survives.
	proxy, err := faults.NewProxy(addr, nil)
	if err != nil {
		return nil, err
	}
	d.onClose(func() { _ = proxy.Close() })
	ring, err := shard.NewRing(drillShards, 64)
	if err != nil {
		return nil, err
	}
	newNode := func(via, id string, prefer []int, seed int64) (*shard.Manager, error) {
		ctrls := make([]*controller.Controller, drillShards)
		for i := range ctrls {
			if ctrls[i], err = d.shardController(via, seed, i); err != nil {
				return nil, err
			}
		}
		return d.manager(shard.Config{
			Ring:        ring,
			ID:          id,
			Controllers: ctrls,
			ElectorStore: func(i int) (*kvstore.Client, error) {
				return kvstore.DialOptions(via, fleet.Client(seed+100+int64(i)))
			},
			Prefer: prefer,
			TTL:    fleet.TTL,
		})
	}
	a, err := newNode(proxy.Addr(), "drill-a", []int{0, 1}, seed)
	if err != nil {
		return nil, err
	}
	b, err := newNode(addr, "drill-b", []int{2}, seed+1000)
	if err != nil {
		return nil, err
	}

	// The fleet settles onto its preference map before the stream starts.
	if err := d.waitUntil(10*time.Second, "fleet settled on its preference map", func() bool {
		return a.Owns(0) && a.Owns(1) && b.Owns(2)
	}); err != nil {
		return nil, err
	}

	// Replay, killing node A a third of the way in. Each op routes to the
	// live leader of the call's shard, waiting out the takeover window when
	// the leader just died. After the kill node A is never consulted: like a
	// load balancer dropping a dead backend, so no op can be acked into a
	// journal that dies with it.
	cutAt := len(d.events) / 3
	killed := false
	var cutTime time.Time
	var promoted <-chan time.Time
	res.EventsPerSec, err = d.replay(func(i int) {
		if i == cutAt {
			killed = true
			proxy.Cut()
			cutTime = time.Now() //sblint:allow nondeterminism -- takeover latency reference point
			promoted = d.when(func() bool { return b.Owns(0) && b.Owns(1) })
		}
	}, func(e controller.Event) (*controller.Controller, func(), error) {
		sh := ring.Lookup(e.CallID)
		var ctrl *controller.Controller
		err := d.waitUntil(10*time.Second, "a live shard leader", func() bool {
			switch {
			case !killed && a.Owns(sh):
				ctrl = a.Controller(sh)
			case b.Owns(sh):
				ctrl = b.Controller(sh)
			}
			return ctrl != nil
		})
		return ctrl, nil, err
	}, func(e controller.Event, took time.Duration) {
		if ring.Lookup(e.CallID) == 2 {
			res.UntouchedMaxStall = max(res.UntouchedMaxStall, took)
		} else {
			res.MaxStall = max(res.MaxStall, took)
		}
	})
	if err != nil {
		return nil, err
	}

	select {
	case at := <-promoted:
		res.PromotionLatency = at.Sub(cutTime)
	case <-time.After(5 * time.Second):
		return nil, fmt.Errorf("eval: survivor never took over the dead node's shards")
	}

	// Audit: every call's terminal state must be in the store under its
	// shard's key prefix — written by whichever node led the shard when the
	// op ran.
	if res.LostTransitions, err = d.lost(addr, func(id uint64) string { return shard.KeyPrefix(ring.Lookup(id)) }); err != nil {
		return nil, err
	}

	env.countRun("shard")
	if env.Obs != nil {
		env.Obs.Counter("sb_eval_shard_lost_total",
			"Call transitions lost across shard drills (must stay 0).").Add(uint64(res.LostTransitions))
	}
	return res, nil
}
