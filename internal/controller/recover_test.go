package controller

import (
	"context"
	"net"
	"testing"
	"time"

	"switchboard/internal/geo"
	"switchboard/internal/kvstore"
	"switchboard/internal/model"
)

func startRecoverStore(t *testing.T) string {
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

func dialRecover(t *testing.T, addr string) *kvstore.Client {
	t.Helper()
	c, err := kvstore.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestRecoverCalls pins the successor-takeover contract: a fresh controller
// on the same key prefix rebuilds exactly the in-flight calls — ended calls,
// lease keys under the prefix, foreign-shard keys, and calls it already
// knows are all left out.
func TestRecoverCalls(t *testing.T) {
	addr := startRecoverStore(t)
	const prefix = "shard/0/"
	mk := func() *Controller {
		c, err := New(Config{World: world, Store: dialRecover(t, addr), KeyPrefix: prefix, Shard: 0})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ctx := context.Background()
	now := time.Now()

	prev := mk()
	if _, err := prev.CallStarted(ctx, 1, "JP", now); err != nil {
		t.Fatal(err)
	}
	if _, err := prev.CallStarted(ctx, 2, "JP", now); err != nil {
		t.Fatal(err)
	}
	cfg := cfgOf(model.Audio, map[geo.CountryCode]int{"JP": 3})
	if _, _, err := prev.ConfigKnown(ctx, 2, cfg, now); err != nil {
		t.Fatal(err)
	}
	if _, err := prev.CallStarted(ctx, 3, "JP", now); err != nil {
		t.Fatal(err)
	}
	if err := prev.CallEnded(ctx, 3); err != nil {
		t.Fatal(err)
	}
	// Neighbors under and next to the prefix that recovery must skip: the
	// shard's own lease key and another shard's call state.
	seed := dialRecover(t, addr)
	if err := seed.SetContext(ctx, prefix+"leader", "node-a"); err != nil {
		t.Fatal(err)
	}
	if err := seed.HSet("shard/1/call:99", "dc", "0"); err != nil {
		t.Fatal(err)
	}

	next := mk()
	// Pre-existing knowledge wins: the successor already placed call 1 (say,
	// a start it served before the recovery ran) and recovery must not
	// clobber it.
	if _, err := next.CallStarted(ctx, 1, "JP", now); err != nil {
		t.Fatal(err)
	}
	n, err := next.RecoverCalls(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d calls, want 1 (only call 2)", n)
	}
	// The recovered call keeps its lifecycle: it can be ended.
	if err := next.CallEnded(ctx, 2); err != nil {
		t.Fatalf("recovered call unusable: %v", err)
	}
	// The ended and foreign calls were not resurrected.
	if err := next.CallEnded(ctx, 3); err == nil {
		t.Fatal("ended call was resurrected by recovery")
	}
	if err := next.CallEnded(ctx, 99); err == nil {
		t.Fatal("foreign shard's call leaked into recovery")
	}
	// Recovery is idempotent once the state is known.
	if n, err = next.RecoverCalls(ctx); err != nil || n != 0 {
		t.Fatalf("second recovery = (%d, %v), want (0, nil)", n, err)
	}
}

// TestRecoverCallsKeepsFreeze: a call recovered with a persisted config is
// still frozen — re-announcing a different config must not migrate it.
func TestRecoverCallsKeepsFreeze(t *testing.T) {
	addr := startRecoverStore(t)
	mk := func() *Controller {
		c, err := New(Config{World: world, Store: dialRecover(t, addr), KeyPrefix: "shard/0/", Shard: 0})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ctx := context.Background()
	now := time.Now()
	prev := mk()
	dcBefore, err := prev.CallStarted(ctx, 7, "JP", now)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := prev.ConfigKnown(ctx, 7, cfgOf(model.Audio, map[geo.CountryCode]int{"JP": 2}), now); err != nil {
		t.Fatal(err)
	}

	next := mk()
	if _, err := next.RecoverCalls(ctx); err != nil {
		t.Fatal(err)
	}
	dcAfter, migrated, err := next.ConfigKnown(ctx, 7, cfgOf(model.Video, map[geo.CountryCode]int{"US": 40}), now)
	if err != nil {
		t.Fatal(err)
	}
	if migrated || dcAfter != dcBefore {
		t.Fatalf("recovered call migrated (dc %d -> %d): freeze lost in recovery", dcBefore, dcAfter)
	}
}

func TestRecoverCallsNoStore(t *testing.T) {
	c := newController(t, nil)
	if n, err := c.RecoverCalls(context.Background()); n != 0 || err != nil {
		t.Fatalf("RecoverCalls without store = (%d, %v), want (0, nil)", n, err)
	}
}
