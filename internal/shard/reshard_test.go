package shard

import (
	"context"
	"errors"
	"testing"
	"time"

	"switchboard/internal/faults"
	"switchboard/internal/kvstore"
)

// TestLeaseReadsStopAtDeadline partitions the store behind a faults.Proxy
// at a 1s lease TTL, where one lease read waits out a ~254ms store-call
// budget, and checks that the coordinator's lease polls return within 50ms
// of their context's 100ms deadline instead of finishing that budget first.
func TestLeaseReadsStopAtDeadline(t *testing.T) {
	const ttl, deadline, slack = time.Second, 100 * time.Millisecond, 50 * time.Millisecond
	proxy, err := faults.NewProxy(startStore(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = proxy.Close() })
	co, err := NewCoordinator(CoordinatorConfig{
		Dial: func() (*kvstore.Client, error) {
			return kvstore.DialOptions(proxy.Addr(), kvstore.TimingFor(ttl).Client(1))
		},
		ID:         "coord",
		BootShards: 2,
		BootVNodes: 16,
		TTL:        ttl,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = co.Close() })
	proxy.Partition()

	for _, tc := range []struct {
		name string
		poll func(ctx context.Context) error
	}{
		{"waitLeader", func(ctx context.Context) error { return co.waitLeader(ctx, 0) }},
		{"waitAcks", func(ctx context.Context) error {
			_, err := co.waitAcks(ctx, &ReshardState{From: 2})
			return err
		}},
		{"LeaseHolder", func(ctx context.Context) error {
			if h := co.LeaseHolder(ctx); h != "" {
				t.Errorf("LeaseHolder = %q through a partition", h)
			}
			<-ctx.Done()
			return ctx.Err()
		}},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		start := time.Now()
		err := tc.poll(ctx)
		late := time.Since(start) - deadline
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s = %v, want the deadline's error", tc.name, err)
		}
		if late > slack {
			t.Errorf("%s returned %v after its deadline, want within %v", tc.name, late.Round(time.Millisecond), slack)
		}
	}
}

// TestLeaseReadStopsOnCancel: a cancel without a deadline interrupts the
// store read in flight. Through a partition at a 1s lease TTL, one read
// would otherwise wait out the ~100ms kv I/O timeout after the cancel.
func TestLeaseReadStopsOnCancel(t *testing.T) {
	const ttl, cancelAt, bound = time.Second, 20 * time.Millisecond, 50 * time.Millisecond
	proxy, err := faults.NewProxy(startStore(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = proxy.Close() })
	co, err := NewCoordinator(CoordinatorConfig{
		Dial: func() (*kvstore.Client, error) {
			return kvstore.DialOptions(proxy.Addr(), kvstore.TimingFor(ttl).Client(1))
		},
		ID:         "coord",
		BootShards: 2,
		BootVNodes: 16,
		TTL:        ttl,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = co.Close() })
	proxy.Partition()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(cancelAt, cancel)
	start := time.Now()
	err = co.waitLeader(ctx, 0)
	took := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("waitLeader = %v, want the cancel's error", err)
	}
	if took > bound {
		t.Errorf("waitLeader returned %v after its start, want within %v of a cancel at %v", took.Round(time.Millisecond), bound, cancelAt)
	}
}
