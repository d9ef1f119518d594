package replica

import (
	"context"
	"net"
	"strconv"
	"testing"
	"time"

	"switchboard/internal/kvstore"
	"switchboard/internal/obs"
)

// bootServer starts a kvstore server on a fresh loopback port.
func bootServer(t *testing.T) (*kvstore.Server, string) {
	t.Helper()
	srv := kvstore.NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })
	return srv, l.Addr().String()
}

func dial(t *testing.T, addrs ...string) *kvstore.Client {
	t.Helper()
	c, err := kvstore.DialFailover(addrs, kvstore.Options{
		DialTimeout: 500 * time.Millisecond,
		IOTimeout:   time.Second,
		BackoffMin:  10 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestLogTrimAndResume(t *testing.T) {
	l := NewLog(4)
	for i := 1; i <= 10; i++ {
		if seq := l.Append([]string{"SET", "k", strconv.Itoa(i)}); seq != uint64(i) {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
	}
	if l.Last() != 10 {
		t.Fatalf("last = %d", l.Last())
	}
	// Entries 7..10 are retained, so resume is possible from >= 6.
	if l.CanResumeFrom(5) {
		t.Fatal("resume from 5 should need a snapshot")
	}
	if !l.CanResumeFrom(6) || !l.CanResumeFrom(10) {
		t.Fatal("resume from 6 and 10 should tail")
	}
	if l.CanResumeFrom(11) {
		t.Fatal("resume from the future should resync")
	}
	got := l.From(8, 0)
	if len(got) != 2 || got[0].Seq != 9 || got[1].Seq != 10 {
		t.Fatalf("From(8) = %+v", got)
	}
	if n := len(l.From(0, 3)); n != 3 {
		t.Fatalf("From(0, max 3) returned %d entries", n)
	}
}

// TestReplicationTail replicates a live write stream and verifies the
// standby converges, lag drains to zero, and acked-write semantics hold.
func TestReplicationTail(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	psrv, paddr := bootServer(t)
	prim := NewPrimary(psrv, 0, PrimaryOptions{
		Heartbeat:  20 * time.Millisecond,
		AckTimeout: 2 * time.Second,
		Metrics:    m,
	})
	ssrv, saddr := bootServer(t)
	sb := NewStandby(ssrv, paddr, StandbyOptions{
		FailoverTimeout: -1, // never self-promote in this test
		ReadTimeout:     100 * time.Millisecond,
		Metrics:         m,
	})
	go sb.Run()
	t.Cleanup(sb.Stop)

	cli := dial(t, paddr)
	for i := 0; i < 50; i++ {
		if err := cli.HSet("call:"+strconv.Itoa(i), "state", "ended"); err != nil {
			t.Fatalf("HSet %d: %v", i, err)
		}
	}
	// Acked ⇒ on the standby, as soon as a standby is attached. The writes
	// above may have raced the attach, so wait for convergence explicitly.
	waitFor(t, 5*time.Second, "standby catch-up", func() bool { return sb.LastSeq() == prim.LastSeq() })
	rdr := dial(t, saddr)
	for i := 0; i < 50; i++ {
		v, err := rdr.HGet("call:"+strconv.Itoa(i), "state")
		if err != nil || v != "ended" {
			t.Fatalf("standby HGET %d = %q, %v", i, v, err)
		}
	}
	if prim.Lag() != 0 {
		t.Fatalf("lag = %d after catch-up", prim.Lag())
	}
	if m.AckedSeq.Value() != float64(prim.LastSeq()) {
		t.Fatalf("acked gauge = %v, log head %d", m.AckedSeq.Value(), prim.LastSeq())
	}
}

// TestSnapshotCatchUp attaches a standby after the log has been trimmed, so
// catch-up must go through the snapshot path (including lease state).
func TestSnapshotCatchUp(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	psrv, paddr := bootServer(t)
	NewPrimary(psrv, 0, PrimaryOptions{LogCap: 8, Heartbeat: 20 * time.Millisecond, Metrics: m})
	cli := dial(t, paddr)
	if _, err := cli.SetLeaseContext(context.Background(), "leader", "ctrl-A", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := cli.SetContext(context.Background(), "k"+strconv.Itoa(i), strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}

	ssrv, saddr := bootServer(t)
	sb := NewStandby(ssrv, paddr, StandbyOptions{
		FailoverTimeout: -1,
		ReadTimeout:     100 * time.Millisecond,
		Metrics:         m,
	})
	go sb.Run()
	t.Cleanup(sb.Stop)
	waitFor(t, 5*time.Second, "snapshot catch-up", func() bool { return sb.LastSeq() >= 101 })

	rdr := dial(t, saddr)
	for i := 0; i < 100; i++ {
		v, err := rdr.GetContext(context.Background(), "k"+strconv.Itoa(i))
		if err != nil || v != strconv.Itoa(i) {
			t.Fatalf("standby GET k%d = %q, %v", i, v, err)
		}
	}
	owner, epoch, _, err := rdr.GetLeaseContext(context.Background(), "leader")
	if err != nil || owner != "ctrl-A" || epoch != 1 {
		t.Fatalf("standby lease = %q/%d, %v", owner, epoch, err)
	}
	if m.Snapshots.Value() == 0 {
		t.Fatal("snapshot counter did not move")
	}
}

// TestStandbyGateMoved verifies a standby refuses mutations with a MOVED
// redirect that the client follows transparently, while serving reads.
func TestStandbyGateMoved(t *testing.T) {
	psrv, paddr := bootServer(t)
	prim := NewPrimary(psrv, 0, PrimaryOptions{Heartbeat: 20 * time.Millisecond})
	ssrv, saddr := bootServer(t)
	sb := NewStandby(ssrv, paddr, StandbyOptions{FailoverTimeout: -1, ReadTimeout: 100 * time.Millisecond})
	go sb.Run()
	t.Cleanup(sb.Stop)

	// A client pointed only at the standby still lands its write on the
	// primary via the redirect.
	m := kvstore.NewClientMetrics(obs.NewRegistry())
	cli, err := kvstore.DialOptions(saddr, kvstore.Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	if err := cli.SetContext(context.Background(), "via-standby", "ok"); err != nil {
		t.Fatalf("redirected SET: %v", err)
	}
	if m.Redirects.Value() == 0 {
		t.Fatal("expected a MOVED redirect to be followed")
	}
	waitFor(t, 5*time.Second, "replication", func() bool { return sb.LastSeq() >= prim.LastSeq() })
	rdr := dial(t, saddr)
	if v, err := rdr.GetContext(context.Background(), "via-standby"); err != nil || v != "ok" {
		t.Fatalf("standby read = %q, %v", v, err)
	}
}

// TestAckTimeoutRefusesWrite pins the REPLWAIT behavior: with a standby
// attached but not acking (stalled), an AckStandby write must be refused,
// and the client must classify it as a replication-wait server error.
func TestAckTimeoutRefusesWrite(t *testing.T) {
	psrv, paddr := bootServer(t)
	NewPrimary(psrv, 0, PrimaryOptions{
		AckTimeout: 100 * time.Millisecond,
		Heartbeat:  20 * time.Millisecond,
	})
	// A fake standby: sends REPLSYNC, then never acks.
	conn, err := net.Dial("tcp", paddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if _, err := conn.Write([]byte("REPLSYNC 0\r\n")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the stream register

	cli := dial(t, paddr)
	err = cli.SetContext(context.Background(), "k", "v")
	if err == nil || !kvstore.IsReplWaitError(err) {
		t.Fatalf("want REPLWAIT error, got %v", err)
	}
	// Reads are unaffected by the ack policy.
	if _, err := cli.DoContext(context.Background(), "PING"); err != nil {
		t.Fatal(err)
	}
}

// TestRelaxedAckMode verifies -repl-ack=relaxed semantics: writes ack
// immediately even with a mute standby attached.
func TestRelaxedAckMode(t *testing.T) {
	psrv, paddr := bootServer(t)
	NewPrimary(psrv, 0, PrimaryOptions{
		AckMode:    AckRelaxed,
		AckTimeout: 50 * time.Millisecond,
		Heartbeat:  20 * time.Millisecond,
	})
	conn, err := net.Dial("tcp", paddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if _, err := conn.Write([]byte("REPLSYNC 0\r\n")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	cli := dial(t, paddr)
	if err := cli.SetContext(context.Background(), "k", "v"); err != nil {
		t.Fatalf("relaxed write should ack locally: %v", err)
	}
}

// TestPromoteIdempotent pins manual promotion: the gate lifts, writes land
// locally, and a second Promote returns the same Primary.
func TestPromoteIdempotent(t *testing.T) {
	_, paddr := bootServer(t)
	ssrv, saddr := bootServer(t)
	sb := NewStandby(ssrv, paddr, StandbyOptions{FailoverTimeout: -1, ReadTimeout: 50 * time.Millisecond})
	go sb.Run()
	p1 := sb.Promote()
	if p2 := sb.Promote(); p2 != p1 {
		t.Fatal("second Promote returned a different Primary")
	}
	<-sb.Done()
	cli := dial(t, saddr)
	if err := cli.SetContext(context.Background(), "after-promote", "ok"); err != nil {
		t.Fatalf("write to promoted standby: %v", err)
	}
	if got := p1.LastSeq(); got == 0 {
		t.Fatal("promoted primary did not sequence the write")
	}
}
