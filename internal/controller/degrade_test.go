package controller

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"switchboard/internal/faults"
	"switchboard/internal/geo"
	"switchboard/internal/kvstore"
	"switchboard/internal/model"
	"switchboard/internal/trace"
)

// fastOptions keeps chaos tests quick: tight deadlines, no automatic
// retries (a shed write fails its caller, who retries).
func fastOptions() kvstore.Options {
	return kvstore.Options{
		DialTimeout: 250 * time.Millisecond,
		IOTimeout:   250 * time.Millisecond,
		MaxRetries:  -1,
		BackoffMin:  10 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	}
}

func startStore(t *testing.T) (*kvstore.Server, net.Listener) {
	t.Helper()
	srv := kvstore.NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	return srv, l
}

// retryShed re-sends op, as a client honouring Retry-After would, while it
// fails with ErrStoreUnavailable; any other error, or five seconds of
// shedding, fails the test.
func retryShed(t *testing.T, what string, op func() error) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := op()
		switch {
		case err == nil:
			return
		case !errors.Is(err, ErrStoreUnavailable):
			t.Fatalf("%s: %v", what, err)
		case time.Now().After(deadline):
			t.Fatalf("%s still shed after 5s: %v", what, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosShedAndRetry is the acceptance drill: the kvstore is cut off
// mid-replay (via the chaos proxy, so its contents survive) while concurrent
// controller workers keep processing events. No worker blocks past the
// client's deadline, every event the cut refuses fails with
// ErrStoreUnavailable and is re-sent until it commits, and once the store is
// back every call's end is in it: zero lost transitions.
func TestChaosShedAndRetry(t *testing.T) {
	srv, l := startStore(t)
	defer srv.Close()
	proxy, err := faults.NewProxy(l.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	client, err := kvstore.DialOptions(proxy.Addr(), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctrl, err := New(Config{World: world, Store: client})
	if err != nil {
		t.Fatal(err)
	}

	tcfg := trace.DefaultConfig()
	tcfg.Days = 1
	tcfg.CallsPerDay = 300
	g, err := trace.NewGenerator(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := g.GenerateAll()
	events := BuildEvents(recs, DefaultFreeze)

	// Cut the store a third of the way in; restore it 200 attempts later.
	// The cut is counted in attempts, since no event gets past it.
	cutAt, restoreAt := int64(len(events)/3), int64(len(events)/3+200)
	var attempts atomic.Int64
	var cutOnce, restoreOnce sync.Once

	const workers = 4
	queues := make([][]Event, workers)
	for _, e := range events {
		w := int(e.CallID % workers)
		queues[w] = append(queues[w], e)
	}
	var maxStall int64 // nanoseconds, updated via CAS
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, e := range queues[i] {
				for {
					n := attempts.Add(1)
					if n == cutAt {
						cutOnce.Do(proxy.Cut)
					}
					if n == restoreAt {
						restoreOnce.Do(proxy.Restore)
					}
					begin := time.Now()
					err := ctrl.Apply(context.Background(), e)
					stall := int64(time.Since(begin))
					for {
						cur := atomic.LoadInt64(&maxStall)
						if stall <= cur || atomic.CompareAndSwapInt64(&maxStall, cur, stall) {
							break
						}
					}
					if errors.Is(err, ErrStoreUnavailable) {
						time.Sleep(time.Millisecond)
						continue
					}
					if err != nil {
						errCh <- err
						return
					}
					break
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// No worker may block past the client's deadlines: one op pays at most
	// a dial plus an I/O timeout (2×250ms) plus queueing behind one such
	// op on the store mutex; 2s is a generous multiple of that.
	if stall := time.Duration(atomic.LoadInt64(&maxStall)); stall > 2*time.Second {
		t.Errorf("a controller op stalled %v during the outage, want bounded by deadlines", stall)
	}

	st := ctrl.Stats()
	if st.Degraded < 1 {
		t.Error("no call-state write failed during the cut")
	}
	if want := int64(len(recs)); st.Started != want || st.Ended != want {
		t.Errorf("started %d, ended %d; want %d each (only committed transitions count)", st.Started, st.Ended, want)
	}
	if ctrl.ActiveCalls() != 0 {
		t.Errorf("%d calls leaked", ctrl.ActiveCalls())
	}

	// Zero lost transitions: the store (which never lost data — only
	// connectivity) must show every call ended, with a DC recorded.
	reader, err := kvstore.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	for _, r := range recs {
		key := "call:" + itoa64(r.ID)
		if v, err := reader.HGet(key, "state"); err != nil || v != "ended" {
			t.Fatalf("call %d state = %q, %v; a transition was lost", r.ID, v, err)
		}
		if v, err := reader.HGet(key, "dc"); err != nil || v == "" {
			t.Fatalf("call %d has no persisted dc (%v)", r.ID, err)
		}
	}
}

func itoa64(n uint64) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// TestDegradedServerKillRestart kills the store process analogue
// (Server.Close) mid-stream and restarts a fresh one on the same address.
// Across the gap every transition fails and leaves the controller as it was: a start is
// forgotten, a config stays owed (asking again does not answer from
// memory), an end leaves the call live. Re-sent once the store is back, each
// one lands in the new instance.
func TestDegradedServerKillRestart(t *testing.T) {
	srv, l := startStore(t)
	addr := l.Addr().String()

	client, err := kvstore.DialOptions(addr, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctrl, err := New(Config{World: world, Store: client})
	if err != nil {
		t.Fatal(err)
	}

	ctx, now := context.Background(), time.Now()
	for _, id := range []uint64{1, 3} {
		if _, err := ctrl.CallStarted(ctx, id, "JP", now); err != nil {
			t.Fatal(err)
		}
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := ctrl.CallStarted(ctx, 2, "DE", now); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("start during the outage = %v, want ErrStoreUnavailable", err)
	}
	if ctrl.Knows(2) || ctrl.ActiveCalls() != 2 {
		t.Fatalf("a shed start left state behind: knows=%v active=%d", ctrl.Knows(2), ctrl.ActiveCalls())
	}
	cfg := cfgOf(model.Audio, map[geo.CountryCode]int{"JP": 2})
	for i := 0; i < 2; i++ {
		if _, _, err := ctrl.ConfigKnown(ctx, 1, cfg, now); !errors.Is(err, ErrStoreUnavailable) {
			t.Fatalf("config #%d during the outage = %v, want ErrStoreUnavailable", i+1, err)
		}
	}
	if err := ctrl.CallEnded(ctx, 3); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("end during the outage = %v, want ErrStoreUnavailable", err)
	}
	if !ctrl.Knows(3) {
		t.Fatal("a shed end took the call out of memory")
	}
	if st := ctrl.Stats(); st.Started != 2 || st.Ended != 0 {
		t.Fatalf("started %d, ended %d during the outage; want 2, 0", st.Started, st.Ended)
	}

	// Restart on the same address.
	srv2 := kvstore.NewServer()
	var l2 net.Listener
	for i := 0; ; i++ {
		l2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 50 {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	go srv2.Serve(l2)
	defer srv2.Close()

	retryShed(t, "start 2", func() error {
		_, err := ctrl.CallStarted(ctx, 2, "DE", now)
		return err
	})
	retryShed(t, "config 1", func() error {
		_, _, err := ctrl.ConfigKnown(ctx, 1, cfg, now)
		return err
	})
	retryShed(t, "end 3", func() error { return ctrl.CallEnded(ctx, 3) })
	if st := ctrl.Stats(); st.Started != 3 || st.Ended != 1 || ctrl.ActiveCalls() != 2 {
		t.Errorf("after the retries: started %d, ended %d, active %d; want 3, 1, 2", st.Started, st.Ended, ctrl.ActiveCalls())
	}

	reader, err := kvstore.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	if v, err := reader.HGet("call:2", "dc"); err != nil || v == "" {
		t.Errorf("retried start missing after restart: %q, %v", v, err)
	}
	if v, err := reader.HGet("call:1", "config"); err != nil || v != cfg.Key() {
		t.Errorf("retried config missing after restart: %q, %v", v, err)
	}
	if v, err := reader.HGet("call:3", "state"); err != nil || v != "ended" {
		t.Errorf("retried end missing after restart: %q, %v", v, err)
	}
}

// TestFailDCShedMovesBack: a drain move whose write the store does not take
// goes back onto the failed DC, FailDC reports ErrStoreUnavailable, and
// failing the DC again once the store is back drains and stores the move.
func TestFailDCShedMovesBack(t *testing.T) {
	srv, l := startStore(t)
	defer srv.Close()
	proxy, err := faults.NewProxy(l.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	client, err := kvstore.DialOptions(proxy.Addr(), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctrl, err := New(Config{World: world, Store: client})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dc0, err := ctrl.CallStarted(ctx, 1, "JP", time.Now())
	if err != nil {
		t.Fatal(err)
	}

	proxy.Cut()
	if moved, err := ctrl.FailDC(ctx, dc0); moved != 0 || !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("FailDC with the store cut = %d, %v; want 0, ErrStoreUnavailable", moved, err)
	}
	ctrl.mu.Lock()
	onFailed := ctrl.calls[1].dc == dc0
	ctrl.mu.Unlock()
	if !onFailed || ctrl.Stats().FailedOver != 0 {
		t.Fatalf("a shed drain move stayed applied: on failed DC=%v, failed over %d", onFailed, ctrl.Stats().FailedOver)
	}

	proxy.Restore()
	var moved int
	retryShed(t, "FailDC", func() error {
		n, err := ctrl.FailDC(ctx, dc0)
		moved += n
		return err
	})
	ctrl.mu.Lock()
	now := ctrl.calls[1].dc
	ctrl.mu.Unlock()
	if moved != 1 || now == dc0 || ctrl.Stats().FailedOver != 1 {
		t.Fatalf("retried FailDC moved %d (call on %d, failed DC %d, failed over %d); want 1 move off it", moved, now, dc0, ctrl.Stats().FailedOver)
	}
	reader, err := kvstore.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	if v, err := reader.HGet("call:1", "dc"); err != nil || v != itoa64(uint64(now)) {
		t.Errorf("stored dc %q (%v), want the drain target %d", v, err, now)
	}
}

// TestFailDCDrains is the second acceptance drill: failing a DC drains its
// live calls onto surviving DCs within the plan's provisioned backup
// capacity, refuses new placements there, and RecoverDC restores it.
func TestFailDCDrains(t *testing.T) {
	var tokyo, hk int
	for _, dc := range world.DCs() {
		switch dc.Name {
		case "tokyo":
			tokyo = dc.ID
		case "hong-kong":
			hk = dc.ID
		}
	}
	cfg := cfgOf(model.Audio, map[geo.CountryCode]int{"JP": 2})
	// One plan slot: primary capacity at tokyo, backup at hong-kong.
	alloc := [][][]float64{{make([]float64, len(world.DCs()))}}
	alloc[0][0][tokyo] = 2
	alloc[0][0][hk] = 2
	placer := NewPlanPlacer([]model.CallConfig{cfg}, alloc, aclOf, len(world.DCs()))
	ctrl := newController(t, placer)
	now := time.Now()

	// Two frozen calls hosted at tokyo per the plan, one unfrozen call.
	for id := uint64(1); id <= 2; id++ {
		if dc, err := ctrl.CallStarted(context.Background(), id, "JP", now); err != nil || dc != tokyo {
			t.Fatalf("call %d started at %d, %v", id, dc, err)
		}
		if dc, _, err := ctrl.ConfigKnown(context.Background(), id, cfg, now); err != nil || dc != tokyo {
			t.Fatalf("call %d frozen at %d, %v", id, dc, err)
		}
	}
	if _, err := ctrl.CallStarted(context.Background(), 3, "JP", now); err != nil {
		t.Fatal(err)
	}

	if _, err := ctrl.FailDC(context.Background(), -1); !errors.Is(err, ErrInvalidDC) {
		t.Errorf("FailDC(-1) = %v, want ErrInvalidDC", err)
	}

	moved, err := ctrl.FailDC(context.Background(), tokyo)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 3 {
		t.Errorf("FailDC moved %d calls, want 3", moved)
	}
	if st := ctrl.Stats(); st.FailedOver != 3 {
		t.Errorf("FailedOver = %d, want 3", st.FailedOver)
	}
	ctrl.mu.Lock()
	for id := uint64(1); id <= 3; id++ {
		if dc := ctrl.calls[id].dc; dc == tokyo {
			ctrl.mu.Unlock()
			t.Fatalf("call %d still on failed DC", id)
		}
	}
	// The two planned calls must land on the plan's backup capacity.
	for id := uint64(1); id <= 2; id++ {
		if dc := ctrl.calls[id].dc; dc != hk {
			ctrl.mu.Unlock()
			t.Fatalf("planned call %d drained to %d, want backup hong-kong (%d)", id, dc, hk)
		}
		if !ctrl.calls[id].planned {
			ctrl.mu.Unlock()
			t.Fatalf("drained call %d lost its plan slot", id)
		}
	}
	ctrl.mu.Unlock()
	if got := ctrl.FailedDCs(); len(got) != 1 || got[0] != tokyo {
		t.Errorf("FailedDCs = %v", got)
	}

	// New JP calls avoid the failed DC...
	if dc, err := ctrl.CallStarted(context.Background(), 10, "JP", now); err != nil || dc == tokyo {
		t.Errorf("new call placed at %d (%v), want a surviving DC", dc, err)
	}
	// ...and freeze-time migration never targets it either.
	if dc, _, err := ctrl.ConfigKnown(context.Background(), 10, cfg, now); err != nil || dc == tokyo {
		t.Errorf("frozen call placed at %d (%v), want a surviving DC", dc, err)
	}

	if err := ctrl.RecoverDC(tokyo); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.FailedDCs(); len(got) != 0 {
		t.Errorf("FailedDCs after recover = %v", got)
	}
	if dc, err := ctrl.CallStarted(context.Background(), 11, "JP", now); err != nil || dc != tokyo {
		t.Errorf("post-recover call at %d (%v), want tokyo", dc, err)
	}
}

// TestFailDCLatencyFallback drains calls when the placer has no backup
// capacity: the nearest surviving DC for the call's population wins.
func TestFailDCLatencyFallback(t *testing.T) {
	ctrl := newController(t, nil) // no placer at all
	now := time.Now()
	dc0, err := ctrl.CallStarted(context.Background(), 1, "JP", now)
	if err != nil {
		t.Fatal(err)
	}
	moved, err := ctrl.FailDC(context.Background(), dc0)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 {
		t.Fatalf("moved = %d, want 1", moved)
	}
	ctrl.mu.Lock()
	got := ctrl.calls[1].dc
	ctrl.mu.Unlock()
	want := -1
	for _, dc := range world.DCsByLatency("JP") {
		if dc != dc0 {
			want = dc
			break
		}
	}
	if got != want || got == dc0 {
		t.Errorf("drained to %d, want nearest survivor %d", got, want)
	}
}

// TestPersistOutlivesRequestCancel: a request whose client hangs up while
// its call-state write is in flight must not cut the write off. The write
// lands and the start succeeds.
func TestPersistOutlivesRequestCancel(t *testing.T) {
	srv, l := startStore(t)
	defer srv.Close()
	// Each store reply crosses the proxy 100 ms late, so the HSET is still
	// in flight when the request is cancelled at 20 ms.
	const delay = 100 * time.Millisecond
	inj := faults.NewInjector(3, faults.Rule{Kind: faults.Latency, Prob: 1, Delay: delay})
	proxy, err := faults.NewProxy(l.Addr().String(), inj)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	opts := fastOptions()
	opts.IOTimeout = time.Second
	client, err := kvstore.DialOptions(proxy.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctrl, err := New(Config{World: world, Store: client})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	if _, err := ctrl.CallStarted(ctx, 1, "JP", start); err != nil {
		t.Fatal(err)
	}
	if n := ctrl.Stats().Degraded; n != 0 {
		t.Fatalf("after a cancelled request: %d failed writes, want 0", n)
	}
	if took := time.Since(start); took < delay {
		t.Fatalf("CallStarted returned after %v, before the store reply could arrive", took)
	}
	if v, err := client.HGet(CallKey("", 1), "dc"); err != nil || v == "" {
		t.Fatalf("call state after a cancelled request: %q, %v", v, err)
	}
}
