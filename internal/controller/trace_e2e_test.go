package controller

import (
	"context"
	"testing"
	"time"

	"switchboard/internal/faults"
	"switchboard/internal/kvstore"
	"switchboard/internal/obs/span"
)

// TestTraceThroughChaosProxy is the tracing acceptance drill: a placement
// whose store traffic crosses the chaos proxy (injected latency, then one
// connection kill) must yield one coherent trace — root → controller.start →
// controller.persist → kv.HSET — where the post-kill attempt appears as its
// own kv leg carrying retry=true and parented on the same persist span, and
// both placements' call state is in the store.
func TestTraceThroughChaosProxy(t *testing.T) {
	srv, l := startStore(t)
	defer srv.Close()

	// Every store byte pays 1ms of injected latency, so kv legs have real
	// width in the trace.
	const injected = time.Millisecond
	inj := faults.NewInjector(7, faults.Rule{Kind: faults.Latency, Prob: 1, Delay: injected})
	proxy, err := faults.NewProxy(l.Addr().String(), inj)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	opts := fastOptions()
	opts.MaxRetries = 2 // the kill below must surface as a retry leg, not an error
	client, err := kvstore.DialOptions(proxy.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctrl, err := New(Config{World: world, Store: client})
	if err != nil {
		t.Fatal(err)
	}

	ring := span.NewRing(64)
	tracer := span.NewTracer(42, ring)

	// First placement: healthy path, no retry legs expected.
	ctx, root := tracer.Start(context.Background(), "test.place")
	now := time.Now()
	if _, err := ctrl.CallStarted(ctx, 1, "JP", now); err != nil {
		t.Fatal(err)
	}
	root.End()

	// Kill the live proxy connection, then let new dials through: the next
	// placement's first HSET attempt dies on the severed conn and the retry
	// (fresh dial through the restored proxy) succeeds.
	proxy.Cut()
	proxy.Restore()

	ctx2, root2 := tracer.Start(context.Background(), "test.place.retry")
	if _, err := ctrl.CallStarted(ctx2, 2, "JP", now); err != nil {
		t.Fatal(err)
	}
	root2.End()

	spans := ring.Trace(root2.TraceID())
	byID := map[span.ID]span.Record{}
	for _, r := range spans {
		byID[r.Span] = r
	}
	find := func(name string, retry bool) (span.Record, bool) {
		for _, r := range spans {
			if r.Name == name && (r.Attrs.Get("retry") == "true") == retry {
				return r, true
			}
		}
		return span.Record{}, false
	}

	failed, ok := find("kv.HSET", false)
	if !ok {
		t.Fatalf("trace has no first kv.HSET attempt: %+v", spans)
	}
	if failed.Status != "error" {
		t.Errorf("first attempt status = %q, want error (severed conn)", failed.Status)
	}
	retryLeg, ok := find("kv.HSET", true)
	if !ok {
		t.Fatalf("trace has no retry=true kv leg: %+v", spans)
	}
	if retryLeg.Status == "error" {
		t.Errorf("retry leg failed: %+v", retryLeg)
	}

	// Both attempts hang off the same persist span, which chains to the
	// root through controller.start.
	persist, ok := byID[retryLeg.Parent]
	if !ok || persist.Name != "controller.persist" {
		t.Fatalf("retry leg parent = %+v, want controller.persist", persist)
	}
	if failed.Parent != persist.Span {
		t.Errorf("attempts have different parents: %s vs %s", failed.Parent, retryLeg.Parent)
	}
	start, ok := byID[persist.Parent]
	if !ok || start.Name != "controller.start" {
		t.Fatalf("persist parent = %+v, want controller.start", start)
	}
	if start.Parent != root2.SpanID() {
		t.Errorf("controller.start parent = %s, want root %s", start.Parent, root2.SpanID())
	}

	// The retry leg crossed the latency-injecting proxy twice (redial +
	// command), so it cannot be faster than one injected delay.
	if retryLeg.Duration < injected {
		t.Errorf("retry leg took %v, want >= %v (injected latency missing)", retryLeg.Duration, injected)
	}

	// Both placements' writes landed in the store — the first before the
	// kill, the second across the proxy and the redial.
	direct, err := kvstore.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	for _, id := range []uint64{1, 2} {
		key := CallKey("", id)
		if fields, err := direct.HGetAll(key); err != nil || fields["dc"] == "" {
			t.Errorf("store has no placement for %s: %v, %v", key, fields, err)
		}
	}
}
