package kvstore

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

func fastOpts() Options {
	return Options{
		DialTimeout: 250 * time.Millisecond,
		IOTimeout:   250 * time.Millisecond,
		MaxRetries:  -1,
		BackoffMin:  20 * time.Millisecond,
		BackoffMax:  100 * time.Millisecond,
	}
}

// flakyServer accepts connections, reads a little, and hangs up without
// replying — every command dies mid-flight. It counts accepted connections.
func flakyServer(t *testing.T) (addr string, accepted *atomic.Int64, stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			n.Add(1)
			go func(c net.Conn) {
				buf := make([]byte, 256)
				c.Read(buf)
				c.Close()
			}(c)
		}
	}()
	return l.Addr().String(), &n, func() { l.Close() }
}

// waitAccepted waits until the flaky server has counted at least want
// connections: a dial completes once the kernel queues the connection, a
// moment before the accept loop counts it.
func waitAccepted(t *testing.T, accepted *atomic.Int64, want int64) int64 {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		got := accepted.Load()
		if got >= want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
}

func TestClientPoisonedFailsFast(t *testing.T) {
	srv, addr := startServer(t)
	c, err := DialOptions(addr, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetContext(context.Background(), "k", "v"); err != nil {
		t.Fatal(err)
	}

	srv.Close()
	// The in-flight command hits a transport error and poisons the client.
	if _, err := c.GetContext(context.Background(), "k"); err == nil {
		t.Fatal("command against a dead store succeeded")
	}
	if c.Poisonings() < 1 {
		t.Fatal("client not poisoned after transport error")
	}
	// One redial attempt fails (nothing listens), opening the backoff
	// window; within it, commands fail fast with ErrBroken instead of
	// re-touching the network.
	c.GetContext(context.Background(), "k")
	start := time.Now()
	_, err = c.GetContext(context.Background(), "k")
	if !errors.Is(err, ErrBroken) {
		t.Fatalf("err = %v, want ErrBroken", err)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Errorf("fail-fast path took %v", elapsed)
	}
}

func TestClientNonIdempotentNotRetried(t *testing.T) {
	addr, accepted, stop := flakyServer(t)
	defer stop()
	opts := fastOpts()
	opts.MaxRetries = 3
	c, err := DialOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := waitAccepted(t, accepted, 1); got != 1 {
		t.Fatalf("accepted = %d after dial", got)
	}
	// INCR died mid-flight: it may have executed server-side, so it must
	// NOT be replayed on a fresh connection.
	if _, err := c.Do("INCR", "counter"); err == nil {
		t.Fatal("INCR against flaky server succeeded")
	}
	if got := accepted.Load(); got != 1 {
		t.Errorf("non-idempotent command was retried (%d connections)", got)
	}
	// An idempotent command IS retried (each retry redials).
	if _, err := c.GetContext(context.Background(), "k"); err == nil {
		t.Fatal("GET against flaky server succeeded")
	}
	if got := waitAccepted(t, accepted, 3); got < 3 {
		t.Errorf("idempotent command not retried (%d connections)", got)
	}
}

func TestClientRedialsAfterRestart(t *testing.T) {
	srv, addr := startServer(t)
	opts := fastOpts()
	opts.MaxRetries = 2
	c, err := DialOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetContext(context.Background(), "k", "v"); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	// Restart a fresh store on the same address.
	srv2 := NewServer()
	var l net.Listener
	for i := 0; ; i++ {
		l, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 50 {
			t.Fatalf("rebind: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	go srv2.Serve(l)
	defer srv2.Close()

	// The idempotent command survives transparently: the first attempt
	// fails on the dead connection, the retry redials into the new server.
	if _, err := c.GetContext(context.Background(), "k"); !errors.Is(err, ErrNil) {
		t.Fatalf("GET after restart = %v, want ErrNil (fresh store)", err)
	}
	if c.Redials() < 1 {
		t.Errorf("Redials = %d, want >= 1", c.Redials())
	}
	redials := c.Redials()
	if _, err := c.GetContext(context.Background(), "k"); !errors.Is(err, ErrNil) || c.Redials() != redials {
		t.Errorf("GET after redial = %v with %d more redials, want ErrNil on the live connection", err, c.Redials()-redials)
	}
}

func TestClientDeadlineOnStalledServer(t *testing.T) {
	// A server that accepts and then reads forever without replying.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				buf := make([]byte, 256)
				for {
					if _, err := c.Read(buf); err != nil {
						c.Close()
						return
					}
				}
			}(c)
		}
	}()

	c, err := DialOptions(l.Addr().String(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.GetContext(context.Background(), "k")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("command against stalled server succeeded")
	}
	if ne := net.Error(nil); !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("err = %v, want a timeout", err)
	}
	if elapsed > time.Second {
		t.Errorf("deadline took %v to fire, want ~250ms", elapsed)
	}
	if c.Poisonings() < 1 {
		t.Error("client not poisoned after deadline")
	}
}

// TestPipelineServerErrorKeepsConn: server errors in the middle of a
// pipelined burst answer their own frames and leave the stream in sync, so
// the frames after them are answered normally on the same connection.
func TestPipelineServerErrorKeepsConn(t *testing.T) {
	_, addr := startServer(t)
	replies, errs := rawBurst(t, addr,
		[]string{"SET", "k", "v"},
		[]string{"SET", "only-key"}, // arity error
		[]string{"NOSUCH", "k"},     // unknown command
		[]string{"GET", "k"},
	)
	if replies[0] != "OK" {
		t.Fatalf("replies[0] = %v", replies[0])
	}
	for i := 1; i <= 2; i++ {
		if !IsServerError(errs[i]) {
			t.Fatalf("errs[%d] = %v, want server error", i, errs[i])
		}
	}
	if errs[3] != nil || replies[3] != "v" {
		t.Fatalf("replies[3] = %v, %v", replies[3], errs[3])
	}
}
