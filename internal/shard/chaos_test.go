package shard

import (
	"context"
	"testing"
	"time"

	"strconv"

	"switchboard/internal/faults"
	"switchboard/internal/kvstore"
)

// chaosShard is the shard failover e2e. Topology: one store; node A reaches
// it through two faults.Proxy hops (one for its controllers' data path, one
// for its electors) so the test can fail A's network and later heal only the
// data path; node B dials direct. A prefers shards {0,1}, B prefers {2}.
//
// The drill: fault A (kill or partition), then assert
//   - B promotes to A's shards within the deadline,
//   - shard 2 keeps serving placements through B during the whole transition,
//   - every write acked before the fault is still in the store (audited with
//     a fresh direct client),
//   - B recovered A's in-flight call state (ending a pre-fault call works),
//   - a write A journaled while deposed is fenced on replay, not landed over
//     the successor's state.
//
// Healing only the data path keeps A's electors dark, so A provably cannot
// have re-won the shard when its stale-epoch replay goes through — the fence
// verdict is deterministic, not a race against A's next campaign.
func chaosShard(t *testing.T, partition bool) {
	storeAddr := startStore(t)
	dataProxy, err := faults.NewProxy(storeAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dataProxy.Close() })
	elecProxy, err := faults.NewProxy(storeAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = elecProxy.Close() })

	ring, err := NewRing(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewManager(Config{
		Ring:        ring,
		ID:          "node-a",
		Controllers: newShardCtrls(t, dataProxy.Addr(), 3, 1),
		ElectorStore: func(i int) (*kvstore.Client, error) {
			return kvstore.DialOptions(elecProxy.Addr(), fastOpts(101+int64(i)))
		},
		Prefer: []int{0, 1},
		TTL:    testTTL,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		a.Stop(ctx)
		cancel()
	})
	b := newManager(t, storeAddr, "node-b", 3, []int{2}, 50)

	a.Start()
	b.Start()
	await(t, "steady-state ownership (a: 0,1; b: 2)", 8*time.Second, func() bool {
		return a.Owns(0) && a.Owns(1) && b.Owns(2)
	})

	// confOn deals out fresh conference IDs landing on a given shard.
	next := uint64(0)
	confOn := func(sh int) uint64 {
		for {
			next++
			if ring.Lookup(next) == sh {
				return next
			}
		}
	}
	ctx := context.Background()
	now := time.Now()

	// Acked writes before the fault: three calls per shard through each
	// shard's owner. Every one of these must survive the failover.
	acked := make(map[int][]uint64)
	for sh := 0; sh < 3; sh++ {
		owner := a
		if sh == 2 {
			owner = b
		}
		for i := 0; i < 3; i++ {
			id := confOn(sh)
			if _, err := owner.Controller(sh).CallStarted(ctx, id, "JP", now); err != nil {
				t.Fatalf("pre-fault CallStarted(shard %d, conf %d): %v", sh, id, err)
			}
			acked[sh] = append(acked[sh], id)
		}
	}

	// Fault node A's network, both paths.
	if partition {
		dataProxy.Partition()
		elecProxy.Partition()
	} else {
		dataProxy.Cut()
		elecProxy.Cut()
	}

	// A, not yet aware it is deposed, accepts one more call on shard 0. The
	// store is unreachable so the write lands in the journal — the fencing
	// assertion below proves it can never reach the store under A's epoch.
	fencedCall := confOn(0)
	if _, err := a.Controller(0).CallStarted(ctx, fencedCall, "US", now); err != nil {
		t.Fatalf("CallStarted during fault should journal, got %v", err)
	}
	if a.Controller(0).JournalDepth() == 0 {
		t.Fatal("fault-time write did not journal")
	}

	// B must take over A's shards — and the untouched shard 2 must keep
	// placing calls through B at every poll on the way there.
	deadline := time.Now().Add(8 * time.Second)
	for !(b.Owns(0) && b.Owns(1)) {
		if time.Now().After(deadline) {
			t.Fatalf("node-b did not promote within deadline; owns %v", b.Owned())
		}
		id := confOn(2)
		if _, err := b.Controller(2).CallStarted(ctx, id, "DE", now); err != nil {
			t.Fatalf("surviving shard 2 refused a placement mid-failover: %v", err)
		}
		acked[2] = append(acked[2], id)
		time.Sleep(20 * time.Millisecond)
	}
	await(t, "node-a to notice it is deposed", 8*time.Second, func() bool {
		return len(a.Owned()) == 0
	})

	// Zero acked-write loss: audit every acked call with a fresh client
	// dialed straight at the store.
	audit := dialFast(t, storeAddr, 999)
	defer audit.Close()
	for sh, ids := range acked {
		for _, id := range ids {
			key := KeyPrefix(sh) + "call:" + strconv.FormatUint(id, 10)
			if dc, err := audit.HGet(key, "dc"); err != nil || dc == "" {
				t.Fatalf("acked write lost: %s dc=%q err=%v", key, dc, err)
			}
		}
	}

	// Continuity: B's recovery rebuilt A's in-flight calls, so ending a call
	// started under A succeeds on B instead of ErrUnknownCall.
	if err := b.Controller(0).CallEnded(ctx, acked[0][0]); err != nil {
		t.Fatalf("successor does not know pre-fault call: %v", err)
	}

	// Heal the data path only (electors stay dark: A cannot re-campaign).
	// A's journal replay now reaches the store carrying the deposed epoch and
	// must be fenced, leaving no trace of fencedCall.
	if partition {
		dataProxy.Heal()
	} else {
		dataProxy.Restore()
	}
	await(t, "stale-epoch journal replay to be fenced", 8*time.Second, func() bool {
		_, _ = a.Controller(0).ReplayJournal(ctx)
		return a.Controller(0).Stats().Fenced >= 1
	})
	if dc, err := audit.HGet(KeyPrefix(0)+"call:"+strconv.FormatUint(fencedCall, 10), "dc"); err == nil && dc != "" {
		t.Fatalf("fenced write landed in the store: dc=%q", dc)
	}
}

func TestShardChaosKill(t *testing.T) {
	chaosShard(t, false)
}

func TestShardChaosPartition(t *testing.T) {
	chaosShard(t, true)
}
