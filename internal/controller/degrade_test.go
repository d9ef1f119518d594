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
// retries (the controller's journal is the retry mechanism).
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

// drainJournal retries ReplayJournal until the store accepts the backlog.
func drainJournal(t *testing.T, c *Controller) int {
	t.Helper()
	total := 0
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, err := c.ReplayJournal(context.Background())
		total += n
		if err == nil {
			return total
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal did not drain: %v (flushed %d)", err, total)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosJournalAndReplay is the acceptance drill: the kvstore is
// partitioned away mid-replay (via the chaos proxy, so its contents
// survive), concurrent controller workers keep processing events without
// blocking past the client's deadline, the missed writes are journaled, and
// after the partition heals the journal replays with zero lost transitions.
func TestChaosJournalAndReplay(t *testing.T) {
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

	ctrl, err := New(Config{
		World:         world,
		Store:         client,
		ProbeInterval: 10 * time.Millisecond,
	})
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

	// Partition the store away for the middle third of the event stream.
	cutAt, restoreAt := len(events)/3, 2*len(events)/3
	var processed atomic.Int64
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
				n := processed.Add(1)
				if n == int64(cutAt) {
					cutOnce.Do(proxy.Cut)
				}
				if n == int64(restoreAt) {
					restoreOnce.Do(proxy.Restore)
				}
				begin := time.Now()
				if err := ctrl.Apply(context.Background(), e); err != nil {
					errCh <- err
					return
				}
				stall := int64(time.Since(begin))
				for {
					cur := atomic.LoadInt64(&maxStall)
					if stall <= cur || atomic.CompareAndSwapInt64(&maxStall, cur, stall) {
						break
					}
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

	drainJournal(t, ctrl)
	st := ctrl.Stats()
	if st.Degraded < 1 {
		t.Error("controller never recorded a degraded interval")
	}
	if st.Replayed == 0 {
		t.Error("no journaled writes were replayed")
	}
	if st.Dropped != 0 {
		t.Errorf("%d journaled writes dropped, want 0", st.Dropped)
	}
	if st.JournalDepth != 0 || ctrl.Degraded() {
		t.Errorf("after replay: depth=%d degraded=%v, want drained and healthy", st.JournalDepth, ctrl.Degraded())
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

// TestDegradedServerKillRestart actually kills the store process analogue
// (Server.Close) mid-stream and restarts a fresh one on the same address:
// the controller journals across the gap and drains into the new instance.
func TestDegradedServerKillRestart(t *testing.T) {
	srv, l := startStore(t)
	addr := l.Addr().String()

	client, err := kvstore.DialOptions(addr, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctrl, err := New(Config{World: world, Store: client, ProbeInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	now := time.Now()
	if _, err := ctrl.CallStarted(context.Background(), 1, "JP", now); err != nil {
		t.Fatal(err)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Writes during the outage must not error call admission and must land
	// in the journal.
	if _, err := ctrl.CallStarted(context.Background(), 2, "DE", now); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.CallEnded(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if !ctrl.Degraded() || ctrl.JournalDepth() == 0 {
		t.Fatalf("degraded=%v depth=%d, want journaling", ctrl.Degraded(), ctrl.JournalDepth())
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

	flushed := drainJournal(t, ctrl)
	if flushed == 0 {
		t.Error("replay flushed nothing")
	}
	if ctrl.Degraded() || ctrl.JournalDepth() != 0 {
		t.Errorf("degraded=%v depth=%d after restart", ctrl.Degraded(), ctrl.JournalDepth())
	}
	reader, err := kvstore.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	if v, err := reader.HGet("call:2", "state"); err != nil || v != "ended" {
		t.Errorf("journaled transition missing after restart: %q, %v", v, err)
	}
}

// TestJournalCapDropsOldest pins the bounded-journal semantics: beyond the
// cap the oldest writes are dropped and counted.
func TestJournalCapDropsOldest(t *testing.T) {
	srv, l := startStore(t)
	client, err := kvstore.DialOptions(l.Addr().String(), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctrl, err := New(Config{
		World:         world,
		Store:         client,
		JournalCap:    2,
		ProbeInterval: time.Hour, // never probe during the test
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		ctrl.persist(context.Background(), uint64(i), "f", "v")
	}
	st := ctrl.Stats()
	if st.JournalDepth != 2 || st.Dropped != 2 {
		t.Errorf("depth=%d dropped=%d, want 2/2", st.JournalDepth, st.Dropped)
	}
	// The survivors are the newest entries.
	ctrl.storeMu.Lock()
	last := ctrl.journal[len(ctrl.journal)-1]
	ctrl.storeMu.Unlock()
	if last.key != "call:3" {
		t.Errorf("newest journal entry = %q, want call:3", last.key)
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
// lands, and the controller stays out of degraded mode.
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
	ctrl, err := New(Config{World: world, Store: client, ProbeInterval: time.Hour})
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
	if ctrl.Degraded() || ctrl.JournalDepth() != 0 {
		t.Fatalf("after a cancelled request: degraded=%v depth=%d, want a healthy store path", ctrl.Degraded(), ctrl.JournalDepth())
	}
	if took := time.Since(start); took < delay {
		t.Fatalf("CallStarted returned after %v, before the store reply could arrive", took)
	}
	if v, err := client.HGet(CallKey("", 1), "dc"); err != nil || v == "" {
		t.Fatalf("call state after a cancelled request: %q, %v", v, err)
	}
}
