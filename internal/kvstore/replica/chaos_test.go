package replica

import (
	"context"
	"fmt"
	"testing"
	"time"

	"switchboard/internal/faults"
	"switchboard/internal/kvstore"
	"switchboard/internal/obs"
)

// The failover e2e (the PR's acceptance bar): under a placement-like write
// load, the primary is killed or partitioned; the standby must promote, the
// client must fail over within clientDeadline, no acked write may be lost,
// and a fenced stale leader's post-takeover writes must be rejected.
//
// Timings are deliberately generous multiples of each other (heartbeat 25ms
// < read timeout 150ms < failover 500ms << deadlines in seconds) so the test
// is about ordering, not scheduler luck, and passes under -race.

const clientDeadline = 5 * time.Second

func TestChaosFailoverKill(t *testing.T)      { chaosFailover(t, false) }
func TestChaosFailoverPartition(t *testing.T) { chaosFailover(t, true) }

func chaosFailover(t *testing.T, partition bool) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	psrv, upstream := bootServer(t)
	paddr := upstream
	var proxy *faults.Proxy
	if partition {
		var err error
		proxy, err = faults.NewProxy(upstream, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = proxy.Close() })
		paddr = proxy.Addr()
	}
	NewPrimary(psrv, 0, PrimaryOptions{
		Heartbeat:  25 * time.Millisecond,
		AckTimeout: 500 * time.Millisecond,
		Metrics:    m,
	})
	ssrv, saddr := bootServer(t)
	promotedAt := make(chan time.Time, 1)
	sb := NewStandby(ssrv, paddr, StandbyOptions{
		FailoverTimeout: 500 * time.Millisecond,
		DialTimeout:     100 * time.Millisecond,
		ReadTimeout:     150 * time.Millisecond,
		RedialInterval:  20 * time.Millisecond,
		Metrics:         m,
		OnPromote:       func(*Primary) { promotedAt <- time.Now() },
	})
	go sb.Run()
	t.Cleanup(sb.Stop)

	cli, err := kvstore.DialFailover([]string{paddr, saddr}, kvstore.Options{
		DialTimeout: 100 * time.Millisecond,
		IOTimeout:   250 * time.Millisecond,
		MaxRetries:  2,
		BackoffMin:  10 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		Seed:        42,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })

	// The stale leader-to-be acquires the lease and fences its writes. A
	// short TTL lets the successor take over quickly after the fault.
	epochA, err := cli.SetLeaseContext(context.Background(), "leader", "ctrl-A", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cli.SetFence("leader", epochA)
	// Wait until the standby is attached and has replicated the lease —
	// from here on, every acked write is guaranteed to be on the standby.
	rdr := dial(t, saddr)
	waitFor(t, 5*time.Second, "lease replication", func() bool {
		owner, _, _, err := rdr.GetLeaseContext(context.Background(), "leader")
		return err == nil && owner == "ctrl-A"
	})

	// Placement-like load: one HSET per call, acked writes recorded. The
	// fault fires mid-stream; the loop keeps going until it has seen 100
	// acked writes after the fault (prove the failover path carries load,
	// not just one probe).
	acked := make(map[string]string)
	var faultAt, recoveredAt time.Time
	postFaultAcks := 0
	for i := 1; ; i++ {
		if i == 100 {
			if partition {
				proxy.Partition()
			} else {
				_ = psrv.Close()
			}
			faultAt = time.Now()
			// The stale leader stops renewing; its lease will lapse while
			// the cluster fails over.
			cli.ClearFence()
		}
		key := fmt.Sprintf("call:%05d", i)
		val := fmt.Sprintf("ended-%d", i)
		if err := cli.HSet(key, "state", val); err == nil {
			acked[key] = val
			if !faultAt.IsZero() {
				if recoveredAt.IsZero() {
					recoveredAt = time.Now()
				}
				postFaultAcks++
				if postFaultAcks >= 100 {
					break
				}
			}
		}
		if !faultAt.IsZero() && time.Since(faultAt) > 2*clientDeadline {
			t.Fatalf("no recovery %v after the fault (%d post-fault acks)", time.Since(faultAt), postFaultAcks)
		}
	}

	// Standby must have promoted, and the client's first post-fault ack
	// must land within its deadline.
	var promoted time.Time
	select {
	case promoted = <-promotedAt:
	default:
		t.Fatal("standby never promoted")
	}
	t.Logf("promotion after %v, client recovery after %v (mode partition=%v)",
		promoted.Sub(faultAt), recoveredAt.Sub(faultAt), partition)
	if got := recoveredAt.Sub(faultAt); got > clientDeadline {
		t.Fatalf("client failover took %v, deadline %v", got, clientDeadline)
	}
	if m.Promotions.Value() != 1 {
		t.Fatalf("promotions counter = %v, want 1", m.Promotions.Value())
	}

	// Zero acked-write loss: every acked write must be readable on the
	// promoted standby.
	for key, want := range acked {
		got, err := rdr.HGet(key, "state")
		if err != nil || got != want {
			t.Fatalf("acked write lost: %s = %q, %v (want %q)", key, got, err, want)
		}
	}

	// Fencing: a new leader takes the lease on the promoted standby (the
	// old grant must lapse first), bumping the epoch...
	newLeader := dial(t, saddr)
	var epochB int64
	waitFor(t, 5*time.Second, "lease takeover", func() bool {
		e, err := newLeader.SetLeaseContext(context.Background(), "leader", "ctrl-B", 10*time.Second)
		if err != nil {
			return false
		}
		epochB = e
		return true
	})
	if epochB != epochA+1 {
		t.Fatalf("takeover epoch = %d, want %d", epochB, epochA+1)
	}
	// ...after which the stale leader's fenced writes are rejected...
	stale := dial(t, saddr)
	stale.SetFence("leader", epochA)
	err = stale.HSet("call:stale", "state", "zombie")
	if err == nil || !kvstore.IsFencedError(err) {
		t.Fatalf("stale fenced write: got %v, want FENCED", err)
	}
	// ...while the new leader's fenced writes land.
	newLeader.SetFence("leader", epochB)
	if err := newLeader.HSet("call:new", "state", "ok"); err != nil {
		t.Fatalf("new leader fenced write: %v", err)
	}
	if _, err := rdr.HGet("call:stale", "state"); err != kvstore.ErrNil {
		t.Fatalf("zombie write visible: %v", err)
	}
}
