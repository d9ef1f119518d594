package eval

import (
	"fmt"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/faults"
	"switchboard/internal/kvstore"
	"switchboard/internal/kvstore/replica"
)

// PartitionResult reports the HA failover drill: the evaluation window's
// events replayed against a primary/standby kvstore pair whose primary is
// partitioned away (silently — connections stay open, bytes vanish) a third
// of the way through the stream. The standby must promote itself, the
// controller's failover client must chase it, and no call transition may be
// lost.
type PartitionResult struct {
	// Calls and Events describe the replayed stream.
	Calls, Events int
	// EventsPerSec is the sustained rate across the whole run, promotion
	// stall included.
	EventsPerSec float64
	// PromotionLatency is how long the standby took to detect the silent
	// primary and promote itself after the partition was injected.
	PromotionLatency time.Duration
	// MaxStall is the longest any single controller operation took —
	// bounded by the client's deadlines, not by the partition.
	MaxStall time.Duration
	// ReplicatedSeq is the promoted standby's replication log position; it
	// covers every write acked before the partition.
	ReplicatedSeq uint64
	// Degraded / Replayed / Dropped are the controller's journal counters:
	// writes that failed during the failover window are journaled and
	// drained against the promoted standby.
	Degraded, Replayed, Dropped int64
	// LostTransitions counts calls whose terminal state never reached the
	// promoted standby (must be 0: acked writes were replicated, failed
	// writes were journaled).
	LostTransitions int
	// Seed reproduces the drill's client jitter.
	Seed int64
}

// partitionTiming is the partition drill's store pair and client timing: a
// 750 ms lease TTL gives the standby a 500 ms failover timeout.
var partitionTiming = kvstore.TimingFor(750 * time.Millisecond)

// PartitionDrill replays the evaluation window's events against a replicated
// store pair and partitions the primary mid-stream. Unlike Chaos — which
// severs a single store and leans on the journal alone — this drill has a hot
// standby: acked writes survive on the replica, the standby promotes within
// its failover timeout, and the client follows it, so the journal only has to
// cover the promotion window.
func PartitionDrill(env *Env, seed int64) (*PartitionResult, error) {
	d, err := newDrill(env, "PartitionDrill")
	if err != nil {
		return nil, err
	}
	defer d.close()
	res := &PartitionResult{Calls: len(d.recs), Events: len(d.events), Seed: seed}

	// Primary behind the chaos proxy, so the partition hits replication
	// stream and client traffic alike.
	psrv, paddr, err := d.store()
	if err != nil {
		return nil, err
	}
	primaryOpts, standbyOpts := replica.OptionsFor(partitionTiming)
	replica.NewPrimary(psrv, 0, primaryOpts)
	proxy, err := faults.NewProxy(paddr, nil)
	if err != nil {
		return nil, err
	}
	d.onClose(func() { _ = proxy.Close() })

	// Hot standby syncing through the proxy; it must see the same silence
	// the clients do.
	ssrv, saddr, err := d.store()
	if err != nil {
		return nil, err
	}
	promoted := make(chan *replica.Primary, 1)
	var promotedAt time.Time // written before the promoted send, read after the receive
	standbyOpts.OnPromote = func(p *replica.Primary) {
		promotedAt = time.Now() //sblint:allow nondeterminism -- promotion timestamp
		promoted <- p
	}
	standby := replica.NewStandby(ssrv, proxy.Addr(), standbyOpts)
	go standby.Run()
	d.onClose(standby.Stop)

	client, err := d.dial(partitionTiming.Client(seed), proxy.Addr(), saddr)
	if err != nil {
		return nil, err
	}
	ctrl, err := d.controller(client, partitionTiming, 0, "")
	if err != nil {
		return nil, err
	}

	// Replay, partitioning the primary a third of the way in.
	cutAt := len(d.events) / 3
	var partitionedAt time.Time
	res.EventsPerSec, err = d.replay(func(i int) {
		if i == cutAt {
			proxy.Partition()
			partitionedAt = time.Now() //sblint:allow nondeterminism -- promotion latency reference point
		}
	}, to(ctrl), func(_ controller.Event, took time.Duration) {
		res.MaxStall = max(res.MaxStall, took)
	})
	if err != nil {
		return nil, err
	}

	// The standby must have promoted itself during the stream.
	select {
	case p := <-promoted:
		res.PromotionLatency, res.ReplicatedSeq = promotedAt.Sub(partitionedAt), p.LastSeq()
	case <-time.After(5 * time.Second):
		return nil, fmt.Errorf("eval: standby never promoted after the partition")
	}

	// Drain whatever the failover window journaled against the promoted
	// standby.
	if err := d.drainJournal(ctrl); err != nil {
		return nil, err
	}
	st := ctrl.Stats()
	res.Degraded, res.Replayed, res.Dropped = st.Degraded, st.Replayed, st.Dropped

	// Audit against the promoted standby: every call must have reached its
	// terminal state — replicated before the partition or replayed after.
	if res.LostTransitions, err = d.lost(saddr, unsharded); err != nil {
		return nil, err
	}

	env.countRun("partition")
	if env.Obs != nil {
		env.Obs.Counter("sb_eval_partition_replayed_total",
			"Journaled writes replayed across partition drills.").Add(uint64(res.Replayed))
		env.Obs.Counter("sb_eval_partition_lost_total",
			"Call transitions lost across partition drills (must stay 0).").Add(uint64(res.LostTransitions))
	}
	return res, nil
}
