package eval

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"switchboard/internal/geo"
	"switchboard/internal/kvstore"
	"switchboard/internal/model"
)

// TestLiveDrillsRejectEmptyStream: every live drill fails at once on an eval
// window with no calls, instead of passing vacuously or waiting forever for
// a fault point the stream never reaches.
func TestLiveDrillsRejectEmptyStream(t *testing.T) {
	env := &Env{World: geo.DefaultWorld(), EvalRecords: []*model.CallRecord{}}
	for name, run := range map[string]func() error{
		"Chaos":          func() error { _, err := Chaos(env, 1); return err },
		"PartitionDrill": func() error { _, err := PartitionDrill(env, 1); return err },
		"ShardDrill":     func() error { _, err := ShardDrill(env, 1); return err },
		"ReshardDrill":   func() error { _, err := ReshardDrill(env, 1); return err },
	} {
		done := make(chan error, 1)
		go func() { done <- run() }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s accepted an empty stream", name)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s blocked on an empty stream", name)
		}
	}
}

// drillOver is a live drill over one-leg calls with the given IDs.
func drillOver(t *testing.T, ids ...uint64) *drill {
	t.Helper()
	start := time.Date(2023, 1, 2, 9, 0, 0, 0, time.UTC)
	var recs []*model.CallRecord
	for _, id := range ids {
		recs = append(recs, &model.CallRecord{
			ID: id, Start: start, Duration: 10 * time.Minute,
			Legs: []model.LegRecord{{Country: "US"}},
		})
	}
	d, err := newDrill(&Env{World: geo.DefaultWorld(), EvalRecords: recs}, "test")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestLiveDrillAudit: a call missing from the store is a lost transition; a
// store the auditor cannot read fails the audit instead.
func TestLiveDrillAudit(t *testing.T) {
	d := drillOver(t, 1, 2)
	defer d.close()
	_, addr, err := d.store()
	if err != nil {
		t.Fatal(err)
	}
	w, err := d.dial(kvstore.Options{}, addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.HSet("call:1", "state", "ended"); err != nil {
		t.Fatal(err)
	}
	if n, err := d.lost(addr, unsharded); err != nil || n != 1 {
		t.Fatalf("lost = %d, %v; want 1 (call 2 missing), nil", n, err)
	}
	if err := w.HSet("shard/1/call:2", "state", "ended"); err != nil {
		t.Fatal(err)
	}
	if n, err := d.lost(addr, func(id uint64) string {
		if id == 2 {
			return "shard/1/"
		}
		return ""
	}); err != nil || n != 0 {
		t.Fatalf("lost under per-call prefixes = %d, %v; want 0, nil", n, err)
	}

	// A closed store: the dial fails.
	srv, closedAddr, err := d.store()
	if err != nil {
		t.Fatal(err)
	}
	_ = srv.Close()
	if n, err := d.lost(closedAddr, unsharded); err == nil {
		t.Fatalf("audit of a closed store = %d lost, want an error", n)
	}

	// A store that accepts connections and hangs up: the dial succeeds and
	// every read fails.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			_ = c.Close()
		}
	}()
	if n, err := d.lost(l.Addr().String(), unsharded); err == nil {
		t.Fatalf("audit of a store that hangs up = %d lost, want an error", n)
	}
}

// TestLiveDrillWatcherStopsOnClose: a watcher whose condition never holds stops
// polling once the drill closes instead of spinning for the process's life.
func TestLiveDrillWatcherStopsOnClose(t *testing.T) {
	d := drillOver(t, 1)
	var polls atomic.Int64
	at := d.when(func() bool { polls.Add(1); return false })
	if err := d.waitUntil(2*time.Second, "watcher polling", func() bool { return polls.Load() >= 2 }); err != nil {
		t.Fatal(err)
	}
	d.close()
	n := polls.Load()
	time.Sleep(50 * time.Millisecond)
	if got := polls.Load(); got != n {
		t.Fatalf("watcher polled %d more times after close", got-n)
	}
	select {
	case ts := <-at:
		t.Fatalf("never-true watcher fired at %v", ts)
	default:
	}
}
