package kvstore

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"switchboard/internal/obs"
)

// startServer returns a serving store and its dial address.
func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	return s, l.Addr().String()
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// dialMetered is dialT with the client's telemetry counters exposed.
func dialMetered(t *testing.T, addr string) (*Client, *ClientMetrics) {
	t.Helper()
	m := NewClientMetrics(obs.NewRegistry())
	c, err := DialOptions(addr, Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, m
}

func TestSetGet(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr)
	if err := c.Set("k", "v"); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("k")
	if err != nil || v != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
}

func TestGetMissing(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr)
	if _, err := c.Get("nope"); !errors.Is(err, ErrNil) {
		t.Fatalf("err = %v, want ErrNil", err)
	}
}

func TestHashOps(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr)
	if err := c.HSet("call:1", "config", "audio|US:2"); err != nil {
		t.Fatal(err)
	}
	v, err := c.HGet("call:1", "config")
	if err != nil || v != "audio|US:2" {
		t.Fatalf("HGet = %q, %v", v, err)
	}
	if _, err := c.HGet("call:1", "missing"); !errors.Is(err, ErrNil) {
		t.Fatalf("missing field err = %v", err)
	}
	// HSET answers 1 for a new field and 0 for an overwrite.
	if r, err := c.Do("HSET", "call:1", "config", "video|US:3"); err != nil || r.(int64) != 0 {
		t.Fatalf("HSET overwrite = %v, %v", r, err)
	}
	if r, err := c.Do("HSET", "call:1", "dc", "8"); err != nil || r.(int64) != 1 {
		t.Fatalf("HSET new field = %v, %v", r, err)
	}
	if m, err := c.HGetAll("call:1"); err != nil || len(m) != 2 || m["config"] != "video|US:3" {
		t.Fatalf("HGetAll = %v, %v", m, err)
	}
}

// TestDelExistsDbsize: DEL removes every named key that exists and counts
// them; existence and store size are read back through GET and KEYS *, and
// FLUSHALL empties the store.
func TestDelExistsDbsize(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr)
	ctx := context.Background()
	c.Set("a", "1")
	c.Set("b", "2")
	if keys, err := c.KeysPrefixContext(ctx, ""); err != nil || len(keys) != 2 {
		t.Fatalf("KEYS * = %v, %v", keys, err)
	}
	if r, _ := c.Do("DEL", "a", "b", "c"); r.(int64) != 2 {
		t.Fatalf("DEL = %v", r)
	}
	if _, err := c.Get("a"); !errors.Is(err, ErrNil) {
		t.Fatalf("GET after DEL = %v, want ErrNil", err)
	}
	c.HSet("h", "f", "v")
	if r, _ := c.Do("FLUSHALL"); r.(string) != "OK" {
		t.Fatalf("FLUSHALL = %v", r)
	}
	if keys, err := c.KeysPrefixContext(ctx, ""); err != nil || len(keys) != 0 {
		t.Fatalf("KEYS * after FLUSHALL = %v, %v", keys, err)
	}
}

func TestPing(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr)
	r, err := c.Do("PING")
	if err != nil || r.(string) != "PONG" {
		t.Fatalf("PING = %v, %v", r, err)
	}
	if c.LastRTT() <= 0 {
		t.Error("LastRTT not recorded")
	}
}

func TestUnknownCommandAndArity(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr)
	if _, err := c.Do("SPONGE"); err == nil {
		t.Error("unknown command should error")
	}
	if _, err := c.Do("SET", "only-key"); err == nil {
		t.Error("bad arity should error")
	}
	// Connection survives server-side errors.
	if err := c.Set("k", "v"); err != nil {
		t.Fatalf("connection dead after error: %v", err)
	}
}

// rawBurst writes every frame to one fresh connection in a single write —
// a pipelined batch — and returns the replies read back in order. Reply
// values and server errors are returned as readReply gives them; a transport
// error fails the test.
func rawBurst(t *testing.T, addr string, frames ...[]string) (replies []interface{}, errs []error) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for _, f := range frames {
		if err := WriteWireCommand(w, f); err != nil {
			t.Fatal(err)
		}
	}
	_ = w.Flush()
	if _, err := conn.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	c := &Client{r: bufio.NewReader(conn)}
	for i := range frames {
		r, err := c.readReply()
		if err != nil && !errors.Is(err, ErrNil) && !IsServerError(err) {
			t.Fatalf("reply %d to %q: %v", i, frames[i], err)
		}
		replies, errs = append(replies, r), append(errs, err)
	}
	return replies, errs
}

// TestPipeline: frames written in one burst are each answered, in order, on
// the one connection.
func TestPipeline(t *testing.T) {
	_, addr := startServer(t)
	replies, errs := rawBurst(t, addr,
		[]string{"SET", "x", "1"},
		[]string{"GET", "x"},
		[]string{"HSET", "h", "f", "v"},
		[]string{"HGETALL", "h"},
		[]string{"DEL", "x"},
		[]string{"GET", "x"},
	)
	if replies[0] != "OK" || replies[1] != "1" || replies[2] != int64(1) || replies[4] != int64(1) {
		t.Fatalf("replies = %v", replies)
	}
	if all, ok := replies[3].([]interface{}); !ok || len(all) != 2 || all[0] != "f" || all[1] != "v" {
		t.Fatalf("HGETALL reply = %v", replies[3])
	}
	if !errors.Is(errs[5], ErrNil) {
		t.Fatalf("GET after DEL = %v, %v", replies[5], errs[5])
	}
}

func TestInlineProtocol(t *testing.T) {
	// Telnet-style inline commands are accepted too.
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "SET inline works\r\nGET inline\r\n")
	buf := make([]byte, 64)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	got := string(buf[:n])
	if got != "+OK\r\n$5\r\nworks\r\n" {
		t.Fatalf("raw reply = %q", got)
	}
}

// TestConcurrentClients: workers HSET distinct fields of one shared hash
// concurrently; no update may be lost.
func TestConcurrentClients(t *testing.T) {
	s, addr := startServer(t)
	const workers = 8
	const opsEach = 200
	var wg sync.WaitGroup
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
			for j := 0; j < opsEach; j++ {
				field := strconv.Itoa(id) + ":" + strconv.Itoa(j)
				if err := c.HSet("shared", field, "v"); err != nil {
					errCh <- err
					return
				}
				if err := c.Set("w"+strconv.Itoa(id), strconv.Itoa(j)); err != nil {
					errCh <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	c := dialT(t, addr)
	m, err := c.HGetAll("shared")
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != workers*opsEach {
		t.Errorf("shared hash has %d fields, want %d", len(m), workers*opsEach)
	}
	if s.OpsServed() < workers*opsEach*2 {
		t.Errorf("ops served = %d", s.OpsServed())
	}
}

func TestHGetAllAndKeys(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr)
	c.HSet("call:1", "dc", "8")
	c.HSet("call:1", "config", "audio|US:2")
	c.Set("plain", "x")

	m, err := c.HGetAll("call:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m["dc"] != "8" || m["config"] != "audio|US:2" {
		t.Fatalf("HGetAll = %v", m)
	}
	// Absent key yields an empty map.
	if m, err := c.HGetAll("nope"); err != nil || len(m) != 0 {
		t.Fatalf("HGetAll missing = %v, %v", m, err)
	}
	keys, err := c.KeysPrefixContext(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "call:1" || keys[1] != "plain" {
		t.Fatalf("Keys = %v", keys)
	}
	// Trailing-star prefix patterns narrow the scan.
	pref, err := c.KeysPrefixContext(context.Background(), "call:")
	if err != nil {
		t.Fatal(err)
	}
	if len(pref) != 1 || pref[0] != "call:1" {
		t.Fatalf("KeysPrefix = %v", pref)
	}
	// Pattern matching beyond a trailing * is refused.
	if _, err := c.Do("KEYS", "call:?*"); err == nil {
		t.Error("KEYS with non-prefix pattern should error")
	}
	if _, err := c.Do("KEYS", "c*ll:*"); err == nil {
		t.Error("KEYS with inner star should error")
	}
}

func TestServerCloseUnblocksServe(t *testing.T) {
	s := NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PingContext(context.Background()); err != nil {
		t.Fatalf("PING while serving: %v", err)
	}
	c.Close()
	s.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after Close", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	if err := s.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func BenchmarkSetGet(b *testing.B) {
	s := NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go s.Serve(l)
	defer s.Close()
	c, err := Dial(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Set("bench", "value"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHCopy: HCOPY snapshots the source hash into the destination (the
// reshard bulk-copy primitive) — replacing any prior destination state,
// reporting 0 for a missing source without touching the destination, and
// surviving src==dst (the snapshot-then-write order must not self-deadlock).
func TestHCopy(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr)
	ctx := context.Background()
	for _, kv := range [][3]string{
		{"src", "dc", "8"}, {"src", "state", "live"},
		{"dst", "dc", "1"}, {"dst", "old", "x"},
	} {
		if err := c.HSet(kv[0], kv[1], kv[2]); err != nil {
			t.Fatal(err)
		}
	}
	n, err := c.HCopyContext(ctx, "src", "dst")
	if err != nil || n != 2 {
		t.Fatalf("HCOPY = %d, %v", n, err)
	}
	m, err := c.HGetAll("dst")
	if err != nil {
		t.Fatal(err)
	}
	// The copy replaces, not merges: stale fields must not survive.
	if len(m) != 2 || m["dc"] != "8" || m["state"] != "live" {
		t.Fatalf("dst after HCOPY = %v", m)
	}
	// Missing source: 0 copied, destination untouched.
	if n, err := c.HCopyContext(ctx, "nope", "dst"); err != nil || n != 0 {
		t.Fatalf("HCOPY missing src = %d, %v", n, err)
	}
	if m, _ := c.HGetAll("dst"); len(m) != 2 {
		t.Fatalf("missing-source HCOPY touched dst: %v", m)
	}
	// src == dst must not deadlock on the store's internal shard lock.
	if n, err := c.HCopyContext(ctx, "src", "src"); err != nil || n != 2 {
		t.Fatalf("self HCOPY = %d, %v", n, err)
	}
	// Copying over a plain string key replaces it with the hash.
	c.Set("plain", "v")
	if _, err := c.HCopyContext(ctx, "src", "plain"); err != nil {
		t.Fatal(err)
	}
	if m, _ := c.HGetAll("plain"); m["dc"] != "8" {
		t.Fatalf("HCOPY over string key = %v", m)
	}
}
