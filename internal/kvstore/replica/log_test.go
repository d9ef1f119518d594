package replica

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"switchboard/internal/kvstore"
)

// TestLogAppendAtCapacityAllocs pins the cost of a write once the log is
// full: Append overwrites the oldest slot in place, so the bytes it allocates
// do not grow with the capacity (a trim that copied the retained entries
// would allocate capacity×sizeof(Entry) per write).
func TestLogAppendAtCapacityAllocs(t *testing.T) {
	const capacity, n = 4096, 1000
	l := NewLog(capacity)
	args := []string{"HSET", "call:1", "state", "ended"}
	for i := 0; i < capacity; i++ {
		l.Append(args)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		l.Append(args)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 256 {
		t.Fatalf("Append at capacity allocates %d bytes per write, want <= 256", per)
	}
	// The full log still holds exactly the newest capacity entries, in order.
	last := l.Last()
	if last != capacity+n {
		t.Fatalf("last = %d, want %d", last, capacity+n)
	}
	if l.CanResumeFrom(last-capacity-1) || !l.CanResumeFrom(last-capacity) {
		t.Fatalf("resume window wrong around %d", last-capacity)
	}
	got := l.From(0, 0)
	if len(got) != capacity {
		t.Fatalf("From(0) returned %d entries, want %d", len(got), capacity)
	}
	for i, e := range got {
		if want := last - capacity + 1 + uint64(i); e.Seq != want {
			t.Fatalf("entry %d has seq %d, want %d", i, e.Seq, want)
		}
	}
	if tail := l.From(last-3, 2); len(tail) != 2 || tail[0].Seq != last-2 || tail[1].Seq != last-1 {
		t.Fatalf("From(last-3, 2) = %+v", tail)
	}
}

// TestBackToBackWritesNeverWaitHeartbeat pins the tailer's wakeup: with an
// AckStandby pair and a one-second heartbeat, a write appended while the
// stream is between an empty read and its wait must still wake the stream,
// so no acked write waits for the next heartbeat.
func TestBackToBackWritesNeverWaitHeartbeat(t *testing.T) {
	psrv, paddr := bootServer(t)
	prim := NewPrimary(psrv, 0, PrimaryOptions{Heartbeat: time.Second, AckTimeout: 5 * time.Second})
	ssrv, _ := bootServer(t)
	sb := NewStandby(ssrv, paddr, StandbyOptions{FailoverTimeout: -1, ReadTimeout: 3 * time.Second})
	go sb.Run()
	t.Cleanup(sb.Stop)

	cli, err := kvstore.DialFailover([]string{paddr}, kvstore.Options{
		DialTimeout: time.Second,
		IOTimeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	if err := cli.HSet("call:0", "dc", "0"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "standby attach", func() bool { return sb.LastSeq() == prim.LastSeq() })

	// 1,000 writes rather than a few hundred: the append has to land in the
	// stream's short idle window, which at 300 writes the old wait missed in
	// about one run in five.
	for i := 1; i <= 1000; i++ {
		start := time.Now()
		if err := cli.HSet("call:"+strconv.Itoa(i), "dc", "0"); err != nil {
			t.Fatalf("HSet %d: %v", i, err)
		}
		if d := time.Since(start); d >= 500*time.Millisecond {
			t.Fatalf("write %d took %v: it waited for the heartbeat", i, d)
		}
	}
}

// TestCloseIdlePrimaryDoesNotWaitHeartbeat pins shutdown of a primary whose
// standby stream is idle: the stream must notice its connection closing
// instead of sleeping out the heartbeat, so Close returns promptly.
func TestCloseIdlePrimaryDoesNotWaitHeartbeat(t *testing.T) {
	psrv, paddr := bootServer(t)
	prim := NewPrimary(psrv, 0, PrimaryOptions{Heartbeat: time.Second, AckTimeout: 5 * time.Second})
	ssrv, _ := bootServer(t)
	sb := NewStandby(ssrv, paddr, StandbyOptions{FailoverTimeout: -1, ReadTimeout: 3 * time.Second})
	go sb.Run()
	t.Cleanup(sb.Stop)

	cli := dial(t, paddr)
	if err := cli.HSet("call:0", "dc", "0"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "standby attach", func() bool { return sb.LastSeq() == prim.LastSeq() })
	// Let the stream go idle: it has pinged and is waiting for the next
	// append or heartbeat.
	time.Sleep(50 * time.Millisecond)

	start := time.Now()
	if err := psrv.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= 200*time.Millisecond {
		t.Fatalf("Close took %v: the idle sync stream waited for the heartbeat", d)
	}
}
