package shard

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/geo"
	"switchboard/internal/kvstore"
)

var world = geo.DefaultWorld()

// Chaos-grade timing: lease TTL well above the client I/O deadline (the
// renew interval is TTL/3), everything far under the test deadlines so the
// suite stays solid under -race on a loaded CI box.
const testTTL = 400 * time.Millisecond

func startStore(t *testing.T) string {
	t.Helper()
	srv := kvstore.NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })
	return l.Addr().String()
}

func fastOpts(seed int64) kvstore.Options {
	return kvstore.Options{
		DialTimeout: 300 * time.Millisecond,
		IOTimeout:   200 * time.Millisecond,
		MaxRetries:  1,
		BackoffMin:  10 * time.Millisecond,
		BackoffMax:  100 * time.Millisecond,
		Seed:        seed,
	}
}

func dialFast(t *testing.T, addr string, seed int64) *kvstore.Client {
	t.Helper()
	c, err := kvstore.DialOptions(addr, fastOpts(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// newShardCtrls builds one controller per shard, each with its own store
// client dialed through addr (a node's store path, possibly a chaos proxy).
func newShardCtrls(t *testing.T, addr string, shards int, seed int64) []*controller.Controller {
	t.Helper()
	ctrls := make([]*controller.Controller, shards)
	for i := range ctrls {
		store := dialFast(t, addr, seed+int64(i))
		t.Cleanup(func() { _ = store.Close() })
		c, err := controller.New(controller.Config{
			World:     world,
			Store:     store,
			KeyPrefix: KeyPrefix(i),
			Shard:     i,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctrls[i] = c
	}
	return ctrls
}

// newManager assembles a node: per-shard controllers and electors all dialing
// the store through addr.
func newManager(t *testing.T, addr, id string, shards int, prefer []int, seed int64) *Manager {
	t.Helper()
	ring, err := NewRing(shards, 16)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{
		Ring:        ring,
		ID:          id,
		Controllers: newShardCtrls(t, addr, shards, seed),
		ElectorStore: func(i int) (*kvstore.Client, error) {
			return kvstore.DialOptions(addr, fastOpts(seed+100+int64(i)))
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

func await(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestManagerValidates(t *testing.T) {
	ring, _ := NewRing(2, 8)
	dial := func(int) (*kvstore.Client, error) { return nil, fmt.Errorf("unused") }
	cases := []Config{
		{ID: "a", ElectorStore: dial},
		{Ring: ring, ElectorStore: dial},
		{Ring: ring, ID: "a"},
		{Ring: ring, ID: "a", ElectorStore: dial, Controllers: make([]*controller.Controller, 1)},
	}
	for i, cfg := range cases {
		if _, err := NewManager(cfg); err == nil {
			t.Errorf("case %d: NewManager accepted invalid config", i)
		}
	}
}

// TestSingleNodeOwnsAll: alone in the fleet, a node ends up leading every
// shard (preferred ones immediately, the rest after the takeover delay).
func TestSingleNodeOwnsAll(t *testing.T) {
	addr := startStore(t)
	m := newManager(t, addr, "node-a", 3, []int{0, 1, 2}, 1)
	m.Start()
	await(t, "node to own all shards", 5*time.Second, func() bool {
		return len(m.Owned()) == 3
	})
	for conf := uint64(0); conf < 100; conf++ {
		d := m.Route(conf)
		if ctrl := m.Serving(context.Background(), conf, d); ctrl == nil || ctrl.Shard() != d.Shard {
			t.Fatalf("Serving(%d) on shard %d = %v, want the owned shard's controller", conf, d.Shard, ctrl)
		}
	}
}

// TestServing pins the cutover routing rule: an unowned shard serves
// nothing here, and a double-read pulls a call the new owner does not know
// forward from its pre-cutover owner's prefix.
func TestServing(t *testing.T) {
	addr := startStore(t)
	m := newManager(t, addr, "node-a", 2, []int{0, 1}, 1)
	cutover := RouteDecision{Shard: 1, DoubleRead: true, OldShard: 0}
	const id = 7
	if ctrl := m.Serving(context.Background(), id, cutover); ctrl != nil {
		t.Fatal("Serving returned a controller for a shard this node does not lead")
	}
	m.Start()
	await(t, "node to own both shards", 5*time.Second, func() bool { return len(m.Owned()) == 2 })

	w := dialFast(t, addr, 50)
	defer func() { _ = w.Close() }()
	if err := w.HSet(controller.CallKey(KeyPrefix(0), id), "dc", "0"); err != nil {
		t.Fatal(err)
	}
	ctrl := m.Serving(context.Background(), id, cutover)
	if ctrl != m.Controller(1) {
		t.Fatalf("Serving picked %v, want shard 1's controller", ctrl)
	}
	if !ctrl.Knows(id) {
		t.Fatal("double-read did not recover the call from the old owner's prefix")
	}
	if dc, err := w.HGet(controller.CallKey(KeyPrefix(1), id), "dc"); err != nil || dc != "0" {
		t.Fatalf("call state not copied forward: dc=%q err=%v", dc, err)
	}
}

// TestPreferredOwnershipSplit pins the deterministic boot: with disjoint
// preferences and a takeover delay, each node settles on exactly its
// preferred shards.
func TestPreferredOwnershipSplit(t *testing.T) {
	addr := startStore(t)
	a := newManager(t, addr, "node-a", 2, []int{0}, 1)
	b := newManager(t, addr, "node-b", 2, []int{1}, 50)
	a.Start()
	b.Start()
	await(t, "preference split", 5*time.Second, func() bool {
		return a.Owns(0) && b.Owns(1)
	})
	// Steady state holds: the non-preferred electors are racing by now (the
	// takeover delay is one TTL) and must keep losing to the live owners.
	time.Sleep(2 * testTTL)
	if !a.Owns(0) || a.Owns(1) || !b.Owns(1) || b.Owns(0) {
		t.Fatalf("ownership drifted: a=%v b=%v", a.Owned(), b.Owned())
	}
	// Each node can name the other shard's leader for routing.
	await(t, "cross hints", 2*time.Second, func() bool {
		return a.OwnerHint(1) == "node-b" && b.OwnerHint(0) == "node-a"
	})
}

// TestOrderlyHandoff: stopping a node resigns its shard leases, and a
// standing-by peer promotes within roughly a renew interval — far faster
// than waiting out the TTL.
func TestOrderlyHandoff(t *testing.T) {
	addr := startStore(t)
	a := newManager(t, addr, "node-a", 2, []int{0, 1}, 1)
	b := newManager(t, addr, "node-b", 2, nil, 50)
	a.Start()
	b.Start()
	await(t, "node-a to own both shards", 5*time.Second, func() bool {
		return len(a.Owned()) == 2
	})
	// Seed a live call on shard 0 through its owner so the successor has
	// state to recover.
	ctrl0 := a.Controller(0)
	confOnShard := func(sh int) uint64 {
		for conf := uint64(1); ; conf++ {
			if a.Ring().Lookup(conf) == sh {
				return conf
			}
		}
	}
	call := confOnShard(0)
	if _, err := ctrl0.CallStarted(context.Background(), call, "JP", time.Now()); err != nil {
		t.Fatal(err)
	}

	a.Stop()
	await(t, "node-b to take over after handoff", 5*time.Second, func() bool {
		return len(b.Owned()) == 2
	})
	// The successor recovered the in-flight call from the store: ending it
	// succeeds instead of ErrUnknownCall.
	if err := b.Controller(0).CallEnded(context.Background(), call); err != nil {
		t.Fatalf("recovered call not known to successor: %v", err)
	}
}
