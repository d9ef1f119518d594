package kvstore

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestLeaseAcquireRenewRelease pins the epoch discipline: epochs bump only on
// ownership change, never on renewal, and survive release so fencing tokens
// stay monotonic across leader turnover.
func TestLeaseAcquireRenewRelease(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr)

	e1, err := c.SetLease("leader", "ctrl-A", 10*time.Second)
	if err != nil || e1 != 1 {
		t.Fatalf("acquire = %d, %v (want epoch 1)", e1, err)
	}
	// Renewal by the holder keeps the epoch: the lease is the same reign.
	e2, err := c.SetLease("leader", "ctrl-A", 10*time.Second)
	if err != nil || e2 != e1 {
		t.Fatalf("renew = %d, %v (want %d)", e2, err, e1)
	}
	owner, epoch, remaining, err := c.GetLeaseContext(context.Background(), "leader")
	if err != nil || owner != "ctrl-A" || epoch != 1 {
		t.Fatalf("GetLease = %q/%d, %v", owner, epoch, err)
	}
	if remaining <= 0 || remaining > 10*time.Second {
		t.Fatalf("remaining = %v", remaining)
	}
	// Release, then a new owner: the epoch must move forward.
	if err := c.DelLease("leader", "ctrl-A"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.GetLeaseContext(context.Background(), "leader"); err != ErrNil {
		t.Fatalf("released lease GetLease err = %v, want ErrNil", err)
	}
	e3, err := c.SetLease("leader", "ctrl-B", 10*time.Second)
	if err != nil || e3 != 2 {
		t.Fatalf("takeover = %d, %v (want epoch 2)", e3, err)
	}
}

// TestLeaseHeldAndExpiry: a held lease refuses other owners with a parseable
// LEASEHELD error, and lapses on its own once the TTL passes.
func TestLeaseHeldAndExpiry(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr)

	if _, err := c.SetLease("leader", "ctrl-A", 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	_, err := c.SetLease("leader", "ctrl-B", time.Second)
	if err == nil || !IsLeaseHeldError(err) {
		t.Fatalf("contended acquire: got %v, want LEASEHELD", err)
	}
	if h := LeaseHolder(err); h != "ctrl-A" {
		t.Fatalf("LeaseHolder = %q", h)
	}
	// DelLease by a non-holder is a no-op.
	if err := c.DelLease("leader", "ctrl-B"); err != nil {
		t.Fatal(err)
	}
	if owner, _, _, _ := c.GetLeaseContext(context.Background(), "leader"); owner != "ctrl-A" {
		t.Fatalf("non-holder release took the lease: owner %q", owner)
	}
	time.Sleep(60 * time.Millisecond)
	e, err := c.SetLease("leader", "ctrl-B", time.Second)
	if err != nil || e != 2 {
		t.Fatalf("post-expiry acquire = %d, %v (want epoch 2)", e, err)
	}
}

// TestFenceEpochs: fenced writes are admitted only while the writer's epoch
// is the key's newest grant; anything else — no lease, superseded epoch, or
// an epoch from the future — is rejected before touching the store.
func TestFenceEpochs(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr)

	// Fencing against a key with no lease history fails closed.
	c.SetFence("leader", 1)
	if err := c.Set("k", "v"); err == nil || !IsFencedError(err) {
		t.Fatalf("no-lease fenced write: got %v, want FENCED", err)
	}
	c.ClearFence()

	e1, err := c.SetLease("leader", "ctrl-A", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.SetFence("leader", e1)
	if err := c.Set("k", "v1"); err != nil {
		t.Fatalf("current-epoch fenced write: %v", err)
	}
	// Reads are never fenced, whatever the client's fence state.
	if v, err := c.Get("k"); err != nil || v != "v1" {
		t.Fatalf("fenced-client read = %q, %v", v, err)
	}

	// Ownership changes; the old epoch's writes must now bounce.
	c.ClearFence()
	if err := c.DelLease("leader", "ctrl-A"); err != nil {
		t.Fatal(err)
	}
	e2, err := c.SetLease("leader", "ctrl-B", 10*time.Second)
	if err != nil || e2 != e1+1 {
		t.Fatalf("takeover epoch = %d, %v", e2, err)
	}
	c.SetFence("leader", e1)
	if err := c.Set("k", "stale"); err == nil || !IsFencedError(err) {
		t.Fatalf("stale-epoch write: got %v, want FENCED", err)
	}
	c.SetFence("leader", e2)
	if err := c.Set("k", "v2"); err != nil {
		t.Fatalf("new-epoch write: %v", err)
	}
	if v, _ := c.Get("k"); v != "v2" {
		t.Fatalf("k = %q after fencing dance, want v2", v)
	}
}

// TestMovedRedirectLoopTerminates: a gate that always answers MOVED (pointing
// at the same server) must not spin the client forever — the hop cap turns a
// redirect loop into a server error after a bounded number of chases.
func TestMovedRedirectLoopTerminates(t *testing.T) {
	s, addr := startServer(t)
	s.SetGate(func(cmd string) string {
		if Mutates(cmd) {
			return "MOVED " + addr
		}
		return ""
	})
	c, m := dialMetered(t, addr)
	err := c.Set("k", "v")
	if !errors.Is(err, ErrRedirectLoop) {
		t.Fatalf("redirect loop: got %v, want ErrRedirectLoop", err)
	}
	if got := m.Redirects.Value(); got != maxMovedHops {
		t.Fatalf("redirects = %d, want the cap %d", got, maxMovedHops)
	}
	// Reads pass the gate untouched.
	if err := c.PingContext(context.Background()); err != nil {
		t.Fatal(err)
	}
}
