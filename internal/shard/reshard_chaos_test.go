package shard

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/faults"
	"switchboard/internal/kvstore"
)

// newReshardManager assembles a reshard-capable node: per-shard controllers
// and electors dialing through dataAddr/elecAddr (possibly chaos proxies),
// plus the epoch watcher and live-growth factory that make it a reshard
// participant.
func newReshardManager(t *testing.T, dataAddr, elecAddr, id string, shards int, prefer []int, seed int64) *Manager {
	t.Helper()
	ring, err := NewRing(shards, 16)
	if err != nil {
		t.Fatal(err)
	}
	newCtrl := func(i int) (*controller.Controller, error) {
		store, err := kvstore.DialOptions(dataAddr, fastOpts(seed+int64(i)))
		if err != nil {
			return nil, err
		}
		c, err := controller.New(controller.Config{
			World:     world,
			Store:     store,
			KeyPrefix: KeyPrefix(i),
			Shard:     i,
		})
		if err != nil {
			_ = store.Close()
			return nil, err
		}
		return c, nil
	}
	ctrls := make([]*controller.Controller, shards)
	for i := range ctrls {
		if ctrls[i], err = newCtrl(i); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewManager(Config{
		Ring:        ring,
		ID:          id,
		Controllers: ctrls,
		ElectorStore: func(i int) (*kvstore.Client, error) {
			return kvstore.DialOptions(elecAddr, fastOpts(seed+100+int64(i)))
		},
		NewController: newCtrl,
		WatchStore: func() (*kvstore.Client, error) {
			return kvstore.DialOptions(dataAddr, fastOpts(seed+200))
		},
		Prefer: prefer,
		TTL:    testTTL,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	return m
}

// newTestCoordinator builds a coordinator with its own direct store clients
// and drill-speed pacing.
func newTestCoordinator(t *testing.T, storeAddr, id string, seed int64, hook func(phase, step string)) *Coordinator {
	t.Helper()
	co, err := NewCoordinator(CoordinatorConfig{
		Dial: func() (*kvstore.Client, error) {
			return kvstore.DialOptions(storeAddr, fastOpts(seed))
		},
		ID:         id,
		BootShards: 3,
		BootVNodes: 16,
		TTL:        testTTL,
		StepHook:   hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = co.Close() })
	return co
}

// chaosReshard is the live shard-split e2e. Topology: one store; node A
// reaches it through two faults.Proxy hops (data path and electors) so the
// test can fail A's network and later heal only the data path; node B dials
// direct. A prefers {0,1}, B prefers {2}; the fleet boots on a 3-shard ring
// and is split to 4 while serving.
//
// The drill, all under -race:
//   - seed acked calls on every source shard, classified moved/unmoved
//     against the 3→4 ring diff;
//   - start coordinator C1; at the first copied key, fail node A (kill or
//     partition — A leads shards 0 and 1, both mid-migration); two keys
//     later, crash C1 (context cancel) with the copy half done;
//   - assert B takes over A's shards while the untouched keys of shard 2
//     keep placing at every poll;
//   - start coordinator C2, which must take over the lapsed reshard lease,
//     resume from C1's checkpoint, and drive the split to completion;
//   - assert the fleet converges to epoch 2 / 4 shards / stable, every acked
//     placement survives under its post-split owner (audited with a fresh
//     direct client), moved source copies are retired, and a call started
//     pre-split can be ended on its new owner;
//   - assert a start sent to A while it is cut off fails and leaves nothing
//     behind, then heal A's data path only (electors stay dark, so A
//     provably has not re-won anything) and assert the start's retry is
//     FENCED and fails too, leaving no trace in the store.
func chaosReshard(t *testing.T, partition bool) {
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

	a := newReshardManager(t, dataProxy.Addr(), elecProxy.Addr(), "node-a", 3, []int{0, 1}, 1)
	b := newReshardManager(t, storeAddr, storeAddr, "node-b", 3, []int{2}, 50)
	a.Start()
	b.Start()
	await(t, "steady-state ownership (a: 0,1; b: 2)", 8*time.Second, func() bool {
		return a.Owns(0) && a.Owns(1) && b.Owns(2)
	})

	ring3, _ := NewRing(3, 16)
	ring4, _ := NewRing(4, 16)
	// confOn deals fresh conference IDs by source shard and whether the 3→4
	// split moves them (grow-only rings move keys onto shard 3 exclusively).
	next := uint64(0)
	confOn := func(sh int, moved bool) uint64 {
		for {
			next++
			if ring3.Lookup(next) != sh {
				continue
			}
			if m := ring4.Lookup(next) != sh; m == moved {
				return next
			}
		}
	}
	ctx := context.Background()
	now := time.Now()

	// Acked calls before the split: per source shard, two that will move to
	// shard 3 and two that stay. Every one must survive the reshard.
	type call struct {
		id        uint64
		from, own int // source shard, post-split owner
	}
	var acked []call
	for sh := 0; sh < 3; sh++ {
		owner := a
		if sh == 2 {
			owner = b
		}
		for _, moved := range []bool{true, true, false, false} {
			id := confOn(sh, moved)
			own := ring4.Lookup(id)
			if _, err := owner.Controller(sh).CallStarted(ctx, id, "JP", now); err != nil {
				t.Fatalf("pre-split CallStarted(shard %d, conf %d): %v", sh, id, err)
			}
			acked = append(acked, call{id: id, from: sh, own: own})
		}
	}

	// Coordinator C1: at the first copied key, fail node A — the leader of
	// two migrating shards dies mid-copy. Two keys later, C1 itself crashes.
	ctx1, crashC1 := context.WithCancel(context.Background())
	defer crashC1()
	var killOnce, crashOnce sync.Once
	var copies atomic.Int32
	c1 := newTestCoordinator(t, storeAddr, "coord-1", 500, func(phase, step string) {
		if phase != PhaseCopy || len(step) < 7 || step[:7] != "copied:" {
			return
		}
		switch copies.Add(1) {
		case 1:
			killOnce.Do(func() {
				if partition {
					dataProxy.Partition()
					elecProxy.Partition()
				} else {
					dataProxy.Cut()
					elecProxy.Cut()
				}
			})
		case 3:
			crashOnce.Do(crashC1)
		}
	})
	c1done := make(chan error, 1)
	go func() {
		_, err := c1.Run(ctx1, 4)
		c1done <- err
	}()

	// A, cut off and not yet aware it is deposed, is sent one more call on
	// an unmoved shard-0 key. The store is unreachable, so the start fails
	// and A forgets the call; the fencing assertion at the end proves its
	// retry can never land either.
	await(t, "coordinator C1 to start copying", 8*time.Second, func() bool { return copies.Load() >= 1 })
	fencedCall := confOn(0, false)
	startDeposed(t, a.Controller(0), fencedCall)

	// B must take over A's shards — and shard 2's untouched keys must keep
	// placing through B at every poll on the way there.
	deadline := time.Now().Add(8 * time.Second)
	for !(b.Owns(0) && b.Owns(1)) {
		if time.Now().After(deadline) {
			t.Fatalf("node-b did not promote within deadline; owns %v", b.Owned())
		}
		id := confOn(2, false)
		if _, err := b.Controller(2).CallStarted(ctx, id, "DE", now); err != nil {
			t.Fatalf("untouched shard 2 refused a placement mid-reshard-failover: %v", err)
		}
		acked = append(acked, call{id: id, from: 2, own: 2})
		time.Sleep(20 * time.Millisecond)
	}
	if err := <-c1done; err == nil {
		t.Fatal("crashed coordinator C1 reported success")
	}

	// Coordinator C2 on a different node identity: takes over the lapsed
	// reshard lease (fence bump), resumes from C1's checkpoint, and finishes.
	c2 := newTestCoordinator(t, storeAddr, "coord-2", 600, nil)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	st, err := c2.Run(ctx2, 4)
	if err != nil {
		t.Fatalf("resumed coordinator failed: %v (phase %s)", err, st.Phase)
	}

	// Convergence: the surviving node serves the 4-shard ring at epoch 2,
	// stable, owning everything.
	await(t, "node-b to converge on epoch 2 / 4 shards / stable", 10*time.Second, func() bool {
		return b.RingEpoch() == 2 && b.Phase() == PhaseStable && b.Ring().Shards() == 4 &&
			b.Owns(0) && b.Owns(1) && b.Owns(2) && b.Owns(3)
	})

	// Zero acked-write loss: every acked call lives under its post-split
	// owner's prefix, audited with a fresh client dialed straight at the
	// store; moved source copies are retired.
	audit := dialFast(t, storeAddr, 999)
	defer audit.Close()
	for _, c := range acked {
		key := KeyPrefix(c.own) + "call:" + strconv.FormatUint(c.id, 10)
		if dc, err := audit.HGet(key, "dc"); err != nil || dc == "" {
			t.Fatalf("acked write lost after split: %s dc=%q err=%v", key, dc, err)
		}
		if c.own != c.from {
			old := KeyPrefix(c.from) + "call:" + strconv.FormatUint(c.id, 10)
			if h, err := audit.HGetAll(old); err == nil && len(h) > 0 {
				t.Fatalf("moved key not retired from source prefix: %s", old)
			}
		}
	}

	// Continuity across the split: a call started pre-split on shard 0 that
	// moved to shard 3 can be ended on its new owner.
	for _, c := range acked {
		if c.from == 0 && c.own == 3 {
			if err := b.Controller(3).CallEnded(ctx, c.id); err != nil {
				t.Fatalf("new owner does not know migrated call %d: %v", c.id, err)
			}
			break
		}
	}

	// Heal the data path only (electors stay dark: A cannot re-campaign).
	// The client's retry of the start now reaches the store carrying the
	// deposed epoch and must be fenced, leaving no trace of fencedCall.
	if partition {
		dataProxy.Heal()
	} else {
		dataProxy.Restore()
	}
	retryDeposed(t, a.Controller(0), fencedCall)
	if dc, err := audit.HGet(KeyPrefix(0)+"call:"+strconv.FormatUint(fencedCall, 10), "dc"); err == nil && dc != "" {
		t.Fatalf("fenced write landed in the store: dc=%q", dc)
	}
}

func TestReshardChaosKill(t *testing.T) {
	chaosReshard(t, false)
}

func TestReshardChaosPartition(t *testing.T) {
	chaosReshard(t, true)
}
