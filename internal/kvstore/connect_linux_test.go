//go:build linux

package kvstore

import (
	"context"
	"errors"
	"net"
	"syscall"
	"testing"
	"time"
)

// hungListener returns a loopback address whose dials hang: a listener with
// an accept backlog of zero that never accepts, its one queue slot taken, so
// the kernel drops every further SYN and a dial waits out its deadline. It
// reports false when the platform answers those dials instead.
func hungListener(t *testing.T) (string, bool) {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	in := sa.(*syscall.SockaddrInet4)
	addr := (&net.TCPAddr{IP: net.IP(in.Addr[:]), Port: in.Port}).String()
	filler, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = filler.Close() })
	probe, err := net.DialTimeout("tcp", addr, 50*time.Millisecond)
	if err == nil {
		_ = probe.Close()
		return addr, false
	}
	return addr, true
}

// TestConnectPassSharesDialTimeout: one failover pass over several addresses
// whose dials all hang ends within one DialTimeout, not one per address, so a
// call without a context deadline stays inside the store-call budget.
func TestConnectPassSharesDialTimeout(t *testing.T) {
	var addrs []string
	for i := 0; i < 3; i++ {
		addr, hangs := hungListener(t)
		if !hangs {
			t.Skip("dials to a full accept queue do not hang here; cannot stage a hung dial")
		}
		addrs = append(addrs, addr)
	}
	const dialTimeout = 150 * time.Millisecond
	start := time.Now()
	_, err := DialFailover(addrs, Options{DialTimeout: dialTimeout})
	took := time.Since(start)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("DialFailover over hung addresses = %v, want ErrExhausted", err)
	}
	if took >= 2*dialTimeout {
		t.Fatalf("a pass over %d hung addresses took %v, want under %v (one DialTimeout, not one per address)", len(addrs), took, 2*dialTimeout)
	}
}

// TestConnectPassReachesLiveAddress: a hung address first in the list does
// not use up the pass; the live address after it still gets a share of the
// DialTimeout and the client connects to it within one DialTimeout.
func TestConnectPassReachesLiveAddress(t *testing.T) {
	hung, hangs := hungListener(t)
	if !hangs {
		t.Skip("dials to a full accept queue do not hang here; cannot stage a hung dial")
	}
	srv := NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })

	const dialTimeout = 150 * time.Millisecond
	start := time.Now()
	c, err := DialFailover([]string{hung, l.Addr().String()}, Options{DialTimeout: dialTimeout})
	if err != nil {
		t.Fatalf("DialFailover past a hung first address: %v", err)
	}
	defer c.Close()
	if took := time.Since(start); took >= 2*dialTimeout {
		t.Fatalf("reaching the live address took %v, want under %v", took, 2*dialTimeout)
	}
	if _, err := c.DoContext(context.Background(), "PING"); err != nil {
		t.Fatal(err)
	}
}
