package controller

import (
	"context"
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
// epoch, so its stale writes are fenced out of the store and surface in its
// Stats rather than corrupting B's state.
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
				_, _ = ctrl.ReplayJournal(context.Background())
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
	if _, err := ctrlA.CallStarted(context.Background(), 2, "JP", time.Now()); err != nil {
		t.Fatal(err)
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

// TestJournalReplayIdempotent duplicates every journaled entry before the
// drain: the journal is at-least-once by design (a REPLWAIT write may already
// be applied), so replaying duplicates must converge to the same store state
// and a second drain must be a no-op.
func TestJournalReplayIdempotent(t *testing.T) {
	srv, l := startStore(t)
	defer srv.Close()
	proxy, err := faults.NewProxy(l.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	ctrl, err := New(Config{
		World:         world,
		Store:         dialStore(t, proxy.Addr()),
		ProbeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	proxy.Cut()
	const calls = 20
	for i := uint64(1); i <= calls; i++ {
		if _, err := ctrl.CallStarted(context.Background(), i, "JP", time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	await(t, "journaling", func() bool { return ctrl.JournalDepth() == calls })

	// Duplicate the whole journal, as if every entry had been retried.
	ctrl.storeMu.Lock()
	ctrl.journal = append(ctrl.journal, ctrl.journal...)
	ctrl.storeMu.Unlock()

	proxy.Restore()
	if n := drainJournal(t, ctrl); n != 2*calls {
		t.Fatalf("replayed %d entries, want %d", n, 2*calls)
	}
	rdr := dialStore(t, l.Addr().String())
	for i := uint64(1); i <= calls; i++ {
		key := "call:" + strconv.FormatUint(i, 10)
		if dc, err := rdr.HGet(key, "dc"); err != nil || dc == "" {
			t.Fatalf("%s dc = %q, %v after duplicated replay", key, dc, err)
		}
		if fields, err := rdr.HGetAll(key); err != nil || len(fields) != 1 {
			t.Fatalf("%s has %d fields (%v), want exactly 1", key, len(fields), err)
		}
	}
	if ctrl.Degraded() {
		t.Fatal("still degraded after a clean drain")
	}
	if n, err := ctrl.ReplayJournal(context.Background()); n != 0 || err != nil {
		t.Fatalf("second drain = %d, %v; want a no-op", n, err)
	}
}

// TestJournalDrainDropsFencedEntries: writes journaled before a leadership
// loss must not land on the new leader's state when the store comes back —
// the drain drops them as fenced and keeps draining.
func TestJournalDrainDropsFencedEntries(t *testing.T) {
	srv, l := startStore(t)
	defer srv.Close()
	proxy, err := faults.NewProxy(l.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	ctrl, err := New(Config{
		World:         world,
		Store:         dialStore(t, proxy.Addr()),
		ProbeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	admin := dialStore(t, l.Addr().String())
	epoch, err := admin.SetLease(testLeaseKey, "ctrl-A", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.SetLease(testLeaseKey, epoch)

	proxy.Cut()
	const calls = 5
	for i := uint64(1); i <= calls; i++ {
		if _, err := ctrl.CallStarted(context.Background(), i, "JP", time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	await(t, "journaling", func() bool { return ctrl.JournalDepth() == calls })

	// Leadership moves while the store is unreachable.
	if err := admin.DelLease(testLeaseKey, "ctrl-A"); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.SetLease(testLeaseKey, "ctrl-B", 10*time.Second); err != nil {
		t.Fatal(err)
	}

	proxy.Restore()
	if n := drainJournal(t, ctrl); n != 0 {
		t.Fatalf("drain replayed %d fenced entries, want 0", n)
	}
	st := ctrl.Stats()
	if st.Fenced != calls {
		t.Fatalf("fenced = %d, want %d", st.Fenced, calls)
	}
	if st.JournalDepth != 0 {
		t.Fatalf("journal depth = %d after drain", st.JournalDepth)
	}
	for i := uint64(1); i <= calls; i++ {
		key := "call:" + strconv.FormatUint(i, 10)
		if _, err := admin.HGet(key, "dc"); err != kvstore.ErrNil {
			t.Fatalf("fenced entry %s landed in the store: %v", key, err)
		}
	}
}
