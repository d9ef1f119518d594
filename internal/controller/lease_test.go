package controller

import (
	"context"
	"errors"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"switchboard/internal/faults"
	"switchboard/internal/kvstore"
	"switchboard/internal/obs"
)

// testLeaseKey is the lease the tests' controllers race on.
const testLeaseKey = "test/leader"

// testElectorMetrics registers an elector bundle on a throwaway registry.
func testElectorMetrics() *ElectorMetrics {
	reg := obs.NewRegistry()
	return &ElectorMetrics{
		Leader:    reg.Gauge("test_leader", "leading"),
		Epoch:     reg.Gauge("test_leader_epoch", "epoch"),
		Renewals:  reg.Counter("test_lease_renewals_total", "renewals"),
		Losses:    reg.Counter("test_lease_losses_total", "losses"),
		Takeovers: reg.Counter("test_lease_takeovers_total", "takeovers"),
	}
}

func dialStore(t *testing.T, addr string) *kvstore.Client {
	t.Helper()
	c, err := kvstore.DialOptions(addr, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func startElector(t *testing.T, e *Elector) {
	t.Helper()
	go e.Run()
	t.Cleanup(func() {
		e.Stop()
		<-e.Done()
	})
}

func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestElectorHandoffAndFencing drives the full leadership story: A leads and
// its fenced writes land; B follows with a hint pointing at A; A resigns and
// B takes over with a bumped epoch; A's fence stays armed at its deposed
// epoch, so its stale writes are fenced out of the store, fail with
// ErrStoreUnavailable and surface in its Stats rather than corrupting B's
// state.
func TestElectorHandoffAndFencing(t *testing.T) {
	srv, l := startStore(t)
	defer srv.Close()
	addr := l.Addr().String()

	newCtrl := func() *Controller {
		c, err := New(Config{World: world, Store: dialStore(t, addr)})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ctrlA, ctrlB := newCtrl(), newCtrl()
	var lossesA atomic.Int32
	newElector := func(id string, ctrl *Controller, onLose func()) *Elector {
		return NewElector(ElectorConfig{
			Store: dialStore(t, addr),
			Key:   testLeaseKey,
			ID:    id,
			TTL:   300 * time.Millisecond,
			OnLead: func(epoch int64) {
				ctrl.SetLease(testLeaseKey, epoch)
			},
			OnLose: onLose,
		})
	}
	elA := newElector("ctrl-A", ctrlA, func() { lossesA.Add(1) })
	startElector(t, elA)
	await(t, "A leading", elA.IsLeader)
	if elA.Epoch() != 1 {
		t.Fatalf("first leadership epoch = %d, want 1", elA.Epoch())
	}

	elB := newElector("ctrl-B", ctrlB, nil)
	startElector(t, elB)
	await(t, "B observing A", func() bool { return elB.LeaderHint() == "ctrl-A" })
	if elB.IsLeader() {
		t.Fatal("B must follow while A's lease is live")
	}

	// A's writes carry epoch 1 and land.
	if _, err := ctrlA.CallStarted(context.Background(), 1, "JP", time.Now()); err != nil {
		t.Fatal(err)
	}
	rdr := dialStore(t, addr)
	if dc, err := rdr.HGet("call:1", "dc"); err != nil || dc == "" {
		t.Fatalf("leader write missing: %q, %v", dc, err)
	}

	// Orderly handoff: A resigns, B must take over within a renew interval
	// or two (not a full TTL) and the epoch must move.
	elA.Stop()
	<-elA.Done()
	await(t, "B taking over", elB.IsLeader)
	if elB.Epoch() != 2 {
		t.Fatalf("takeover epoch = %d, want 2", elB.Epoch())
	}
	if n := lossesA.Load(); n != 1 {
		t.Fatalf("A's OnLose ran %d times, want 1", n)
	}

	// A kept its controller running, its fence still armed at epoch 1 (OnLose
	// leaves it, as shard.Manager does): its later writes are stale.
	if _, err := ctrlA.CallStarted(context.Background(), 2, "JP", time.Now()); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("deposed leader's start = %v, want ErrStoreUnavailable", err)
	}
	if ctrlA.Knows(2) {
		t.Fatal("deposed leader kept a start the store fenced")
	}
	if _, err := rdr.HGet("call:2", "dc"); err != kvstore.ErrNil {
		t.Fatalf("stale leader's write visible in store: %v", err)
	}
	if got := ctrlA.Stats().Fenced; got != 1 {
		t.Fatalf("A fenced writes = %d, want 1", got)
	}
	// B's fenced writes (epoch 2, armed by OnLead) land fine.
	if _, err := ctrlB.CallStarted(context.Background(), 3, "JP", time.Now()); err != nil {
		t.Fatal(err)
	}
	if dc, err := rdr.HGet("call:3", "dc"); err != nil || dc == "" {
		t.Fatalf("new leader write missing: %q, %v", dc, err)
	}
}

// TestElectorRenewalKeepsEpoch pins that a healthy leader's renewals never
// bump the epoch — followers' fencing tokens stay comparable across renews.
func TestElectorRenewalKeepsEpoch(t *testing.T) {
	srv, l := startStore(t)
	defer srv.Close()
	m := testElectorMetrics()
	el := NewElector(ElectorConfig{
		Store:   dialStore(t, l.Addr().String()),
		Key:     testLeaseKey,
		ID:      "ctrl-A",
		TTL:     150 * time.Millisecond,
		Metrics: m,
	})
	startElector(t, el)
	await(t, "leading", el.IsLeader)
	await(t, "several renewals", func() bool { return m.Renewals.Value() >= 4 })
	if el.Epoch() != 1 {
		t.Fatalf("epoch after renewals = %d, want 1", el.Epoch())
	}
	if !el.IsLeader() {
		t.Fatal("leadership flapped across renewals")
	}
}

// TestElectorStepsDownWhenStoreUnreachable: a leader that cannot renew for a
// whole TTL must stop claiming leadership (its grant may have lapsed and
// another controller may hold the lease).
func TestElectorStepsDownWhenStoreUnreachable(t *testing.T) {
	srv, l := startStore(t)
	defer srv.Close()
	proxy, err := faults.NewProxy(l.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	lost := make(chan struct{}, 1)
	el := NewElector(ElectorConfig{
		Store:  dialStore(t, proxy.Addr()),
		Key:    testLeaseKey,
		ID:     "ctrl-A",
		TTL:    200 * time.Millisecond,
		OnLose: func() { lost <- struct{}{} },
	})
	startElector(t, el)
	await(t, "leading", el.IsLeader)
	proxy.Cut()
	await(t, "stepping down", func() bool { return !el.IsLeader() })
	select {
	case <-lost:
	default:
		t.Fatal("OnLose did not fire on step-down")
	}
	// The store comes back with the lease lapsed: the elector re-acquires.
	proxy.Restore()
	await(t, "re-acquiring", el.IsLeader)
	if el.Epoch() != 1 {
		// Same owner re-acquiring after a lapse keeps the epoch (ownership
		// did not change), which is exactly why fencing keys off epochs and
		// not grant counts.
		t.Fatalf("re-acquired epoch = %d, want 1", el.Epoch())
	}
}

// partitionedElector returns an elector (not running) on a store behind a
// fault proxy, over a client whose own deadlines would let one call block
// for ~15 s: three attempts of a 5 s I/O timeout.
func partitionedElector(t *testing.T, ttl time.Duration, onLose func()) (*Elector, *faults.Proxy) {
	t.Helper()
	srv, l := startStore(t)
	t.Cleanup(func() { _ = srv.Close() })
	proxy, err := faults.NewProxy(l.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = proxy.Close() })
	store, err := kvstore.DialOptions(proxy.Addr(), kvstore.Options{IOTimeout: 5 * time.Second, MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = store.Close() })
	return NewElector(ElectorConfig{Store: store, Key: testLeaseKey, ID: "ctrl-A", TTL: ttl, OnLose: onLose}), proxy
}

// TestElectorRenewalBoundedOnPartition: a lease renewal against a silently
// partitioned store returns within the renew interval, whatever the client's
// own I/O timeout, and a leader whose store partitions steps down within
// TTL + Renew of its last successful renewal.
func TestElectorRenewalBoundedOnPartition(t *testing.T) {
	const ttl = 300 * time.Millisecond
	const slack = 50 * time.Millisecond

	el, proxy := partitionedElector(t, ttl, nil)
	el.attempt()
	if !el.IsLeader() {
		t.Fatal("no lease acquired on a healthy store")
	}
	proxy.Partition()
	start := time.Now()
	el.attempt()
	if took := time.Since(start); took > el.renew+slack {
		t.Errorf("renewal on a partitioned store took %v, want <= renew %v + %v", took, el.renew, slack)
	}

	lost := make(chan time.Time, 1)
	el, proxy = partitionedElector(t, ttl, func() { lost <- time.Now() })
	startElector(t, el)
	await(t, "leading", el.IsLeader)
	proxy.Partition()
	select {
	case lostAt := <-lost:
		el.mu.Lock()
		lastOK := el.lastOK
		el.mu.Unlock()
		if d := lostAt.Sub(lastOK); d > ttl+el.renew+slack {
			t.Errorf("leader stepped down %v after its last renewal, want <= TTL %v + renew %v + %v", d, ttl, el.renew, slack)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("leader on a partitioned store never stepped down")
	}
}

// TestElectorResignIsNotALoss: an orderly Stop resigns the lease without
// counting a leadership loss, while still clearing the leader gauge and
// running OnLose exactly once.
func TestElectorResignIsNotALoss(t *testing.T) {
	srv, l := startStore(t)
	defer srv.Close()
	m := testElectorMetrics()
	var losses atomic.Int32
	el := NewElector(ElectorConfig{
		Store:   dialStore(t, l.Addr().String()),
		Key:     testLeaseKey,
		ID:      "ctrl-A",
		TTL:     300 * time.Millisecond,
		OnLose:  func() { losses.Add(1) },
		Metrics: m,
	})
	go el.Run()
	await(t, "leading", el.IsLeader)
	el.Stop()
	<-el.Done()
	if el.IsLeader() {
		t.Fatal("still leading after Stop")
	}
	if got := m.Losses.Value(); got != 0 {
		t.Fatalf("losses after an orderly stop = %v, want 0", got)
	}
	if got := m.Leader.Value(); got != 0 {
		t.Fatalf("leader gauge after an orderly stop = %v, want 0", got)
	}
	if n := losses.Load(); n != 1 {
		t.Fatalf("OnLose ran %d times on resign, want 1", n)
	}
	owner, _, _, err := dialStore(t, l.Addr().String()).GetLeaseContext(context.Background(), testLeaseKey)
	if owner != "" || (err != nil && err != kvstore.ErrNil) {
		t.Fatalf("lease after resign: owner %q, %v; want released", owner, err)
	}
}

// TestRetryAfterLostReplyIdempotent: a write the store applied but whose
// reply never arrived (the reply path is blackholed, as when a REPLWAIT or an
// ack is lost) fails its request, and the client's retry rewrites the same
// fields. The store converges on one copy of the call's state.
func TestRetryAfterLostReplyIdempotent(t *testing.T) {
	srv, l := startStore(t)
	defer srv.Close()
	proxy, err := faults.NewProxy(l.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	ctrl, err := New(Config{World: world, Store: dialStore(t, proxy.Addr())})
	if err != nil {
		t.Fatal(err)
	}
	rdr := dialStore(t, l.Addr().String())
	ctx := context.Background()

	// Requests reach the store; replies do not.
	proxy.PartitionDirs(false, true)
	if _, err := ctrl.CallStarted(ctx, 1, "JP", time.Now()); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("start with its reply lost = %v, want ErrStoreUnavailable", err)
	}
	await(t, "the unacknowledged write to apply", func() bool {
		dc, err := rdr.HGet("call:1", "dc")
		return err == nil && dc != ""
	})
	if ctrl.Knows(1) || ctrl.Stats().Started != 0 {
		t.Fatal("a start that answered an error is still counted in memory")
	}

	proxy.Heal()
	var dc int
	await(t, "the retried start to commit", func() bool {
		var err error
		dc, err = ctrl.CallStarted(ctx, 1, "JP", time.Now())
		if err != nil && !errors.Is(err, ErrStoreUnavailable) {
			t.Fatal(err)
		}
		return err == nil
	})
	fields, err := rdr.HGetAll("call:1")
	if err != nil || len(fields) != 1 || fields["dc"] != strconv.Itoa(dc) {
		t.Fatalf("call:1 = %v (%v), want exactly dc=%d", fields, err, dc)
	}
	if st := ctrl.Stats(); st.Started != 1 || ctrl.ActiveCalls() != 1 {
		t.Fatalf("started %d, active %d after the retry; want 1, 1", st.Started, ctrl.ActiveCalls())
	}
}

// TestFencedWritesFailRequests: once leadership moves, every write of the
// deposed controller is fenced by the store, fails with ErrStoreUnavailable
// and leaves nothing behind, in the store or in memory.
func TestFencedWritesFailRequests(t *testing.T) {
	srv, l := startStore(t)
	defer srv.Close()
	ctrl, err := New(Config{World: world, Store: dialStore(t, l.Addr().String())})
	if err != nil {
		t.Fatal(err)
	}
	admin := dialStore(t, l.Addr().String())
	ctx := context.Background()
	epoch, err := admin.SetLeaseContext(ctx, testLeaseKey, "ctrl-A", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.SetLease(testLeaseKey, epoch)

	// Leadership moves.
	if err := admin.DelLease(testLeaseKey, "ctrl-A"); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.SetLeaseContext(ctx, testLeaseKey, "ctrl-B", 10*time.Second); err != nil {
		t.Fatal(err)
	}

	const calls = 5
	for i := uint64(1); i <= calls; i++ {
		if _, err := ctrl.CallStarted(ctx, i, "JP", time.Now()); !errors.Is(err, ErrStoreUnavailable) || !kvstore.IsFencedError(err) {
			t.Fatalf("deposed start %d = %v, want a fenced ErrStoreUnavailable", i, err)
		}
	}
	st := ctrl.Stats()
	if st.Fenced != calls || st.Degraded != calls || st.Started != 0 || ctrl.ActiveCalls() != 0 {
		t.Fatalf("fenced %d, failed writes %d, started %d, active %d; want %d, %d, 0, 0",
			st.Fenced, st.Degraded, st.Started, ctrl.ActiveCalls(), calls, calls)
	}
	for i := uint64(1); i <= calls; i++ {
		key := "call:" + strconv.FormatUint(i, 10)
		if _, err := admin.HGet(key, "dc"); err != kvstore.ErrNil {
			t.Fatalf("fenced write %s landed in the store: %v", key, err)
		}
	}
}
