package kvstore

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// deadAddr returns an address nothing listens on: bind a port, then free it.
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	return addr
}

// TestDialFailoverAllDead pins the exhaustion contract: an all-dead failover
// list fails in one bounded pass with the typed ErrExhausted — no hang, no
// internal retry loop hiding behind the dial.
func TestDialFailoverAllDead(t *testing.T) {
	addrs := []string{deadAddr(t), deadAddr(t), deadAddr(t)}
	start := time.Now()
	c, err := DialFailover(addrs, Options{DialTimeout: 200 * time.Millisecond})
	elapsed := time.Since(start)
	if err == nil {
		_ = c.Close()
		t.Fatal("DialFailover succeeded against an all-dead list")
	}
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	// One pass over three addresses with a 200ms per-dial cap: localhost
	// connection-refused is immediate, so well under a second total. The
	// generous bound only catches a retry loop, not scheduler noise.
	if elapsed > 3*time.Second {
		t.Fatalf("all-dead dial took %v, want one bounded pass", elapsed)
	}
}

// TestMovedMutualRedirectLoop pins the cross-server loop: two stores each
// claiming the other is primary must yield the typed ErrRedirectLoop after
// the hop cap, quickly, instead of ping-ponging the client forever.
func TestMovedMutualRedirectLoop(t *testing.T) {
	sa, addrA := startServer(t)
	sb, addrB := startServer(t)
	sa.SetGate(func(cmd string) string {
		if Mutates(cmd) {
			return "MOVED " + addrB
		}
		return ""
	})
	sb.SetGate(func(cmd string) string {
		if Mutates(cmd) {
			return "MOVED " + addrA
		}
		return ""
	})
	c, m := dialMetered(t, addrA)
	start := time.Now()
	err := c.SetContext(context.Background(), "k", "v")
	elapsed := time.Since(start)
	if !errors.Is(err, ErrRedirectLoop) {
		t.Fatalf("mutual MOVED loop: got %v, want ErrRedirectLoop", err)
	}
	if got := m.Redirects.Value(); got != maxMovedHops {
		t.Fatalf("redirects = %d, want the cap %d", got, maxMovedHops)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("redirect loop took %v to terminate", elapsed)
	}
	// The client is still usable against the non-gated read path.
	if _, err := c.DoContext(context.Background(), "PING"); err != nil {
		t.Fatal(err)
	}
}
