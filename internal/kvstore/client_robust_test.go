package kvstore

import (
	"errors"
	"net"
	"strconv"
	"sync"
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
	if err := c.Set("k", "v"); err != nil {
		t.Fatal(err)
	}

	srv.Close()
	// The in-flight command hits a transport error and poisons the client.
	if _, err := c.Get("k"); err == nil {
		t.Fatal("command against a dead store succeeded")
	}
	if !c.Broken() {
		t.Fatal("client not poisoned after transport error")
	}
	// One redial attempt fails (nothing listens), opening the backoff
	// window; within it, commands fail fast with ErrBroken instead of
	// re-touching the network.
	c.Get("k")
	start := time.Now()
	_, err = c.Get("k")
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
	if _, err := c.Incr("counter"); err == nil {
		t.Fatal("INCR against flaky server succeeded")
	}
	if got := accepted.Load(); got != 1 {
		t.Errorf("non-idempotent command was retried (%d connections)", got)
	}
	// An idempotent command IS retried (each retry redials).
	if _, err := c.Get("k"); err == nil {
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
	if err := c.Set("k", "v"); err != nil {
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
	if _, err := c.Get("k"); !errors.Is(err, ErrNil) {
		t.Fatalf("GET after restart = %v, want ErrNil (fresh store)", err)
	}
	if c.Redials() < 1 {
		t.Errorf("Redials = %d, want >= 1", c.Redials())
	}
	if c.Broken() {
		t.Error("client still poisoned after successful redial")
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
	_, err = c.Get("k")
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
	if !c.Broken() {
		t.Error("client not poisoned after deadline")
	}
}

func TestPipelineServerErrorKeepsConn(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr)
	replies, errs, err := c.Pipeline([][]string{
		{"SET", "k", "v"},
		{"INCR", "k"}, // server error: not an integer
		{"GET", "k"},
	})
	if err != nil {
		t.Fatalf("pipeline transport err = %v", err)
	}
	if replies[0].(string) != "OK" {
		t.Fatalf("replies[0] = %v", replies[0])
	}
	if !IsServerError(errs[1]) {
		t.Fatalf("errs[1] = %v, want server error", errs[1])
	}
	// Later replies still arrive and the connection stays healthy.
	if errs[2] != nil || replies[2].(string) != "v" {
		t.Fatalf("replies[2] = %v, %v", replies[2], errs[2])
	}
	if c.Broken() {
		t.Error("server error poisoned the connection")
	}
}

func TestPipelineTransportErrorPoisons(t *testing.T) {
	// A server that answers exactly one reply and hangs up: the second
	// reply dies mid-pipeline, which must poison (the stream position is
	// unrecoverable) and must never be auto-retried.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var accepted atomic.Int64
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go func(c net.Conn) {
				buf := make([]byte, 1024)
				c.Read(buf)
				c.Write([]byte("+OK\r\n"))
				c.Close()
			}(c)
		}
	}()

	opts := fastOpts()
	opts.MaxRetries = 3 // must not apply to pipelines
	c, err := DialOptions(l.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	replies, _, err := c.Pipeline([][]string{{"SET", "a", "1"}, {"SET", "b", "2"}})
	if err == nil {
		t.Fatal("truncated pipeline succeeded")
	}
	if replies[0] != "OK" {
		t.Fatalf("first reply = %v, want OK before the failure", replies[0])
	}
	if !c.Broken() {
		t.Error("client not poisoned after mid-pipeline transport error")
	}
	if got := accepted.Load(); got != 1 {
		t.Errorf("pipeline was retried (%d connections)", got)
	}
}

func TestExpiryUnderConcurrentAccess(t *testing.T) {
	srv, addr := startServer(t)
	const workers = 6
	var wg sync.WaitGroup
	stopAt := time.Now().Add(300 * time.Millisecond)
	errCh := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			key := "hot" + strconv.Itoa(id%2) // two contended keys
			for j := 0; time.Now().Before(stopAt); j++ {
				switch j % 4 {
				case 0:
					if err := c.Set(key, "v"); err != nil {
						errCh <- err
						return
					}
				case 1:
					// Expire immediately: other workers race the eviction.
					if _, err := c.Do("EXPIRE", key, "0"); err != nil && !IsServerError(err) {
						errCh <- err
						return
					}
				case 2:
					if _, err := c.Get(key); err != nil && !errors.Is(err, ErrNil) {
						errCh <- err
						return
					}
				case 3:
					if _, err := c.Do("TTL", key); err != nil {
						errCh <- err
						return
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
	if srv.OpsServed() == 0 {
		t.Error("no ops served")
	}
}
