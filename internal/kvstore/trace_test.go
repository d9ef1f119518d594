package kvstore

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"testing"

	"switchboard/internal/obs/span"
)

// recordingConn copies every byte the client writes into buf.
type recordingConn struct {
	net.Conn
	buf bytes.Buffer
}

func (rc *recordingConn) Write(p []byte) (int, error) {
	rc.buf.Write(p)
	return rc.Conn.Write(p)
}

// recordedClient dials addr and returns a client whose outgoing bytes are
// recorded.
func recordedClient(t *testing.T, addr string) (*Client, *bytes.Buffer) {
	t.Helper()
	c, err := DialOptions(addr, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	rc := &recordingConn{Conn: c.conn}
	c.conn, c.w = rc, bufio.NewWriter(rc)
	return c, &rc.buf
}

// TestTracedDoContext drives traced commands through a live server: each
// becomes a kv.<VERB> child span of the caller's span, and its frame on the
// wire is byte for byte the frame of the same command sent untraced, with
// and without an armed fence.
func TestTracedDoContext(t *testing.T) {
	_, addr := startServer(t)
	ring := span.NewRing(64)
	tr := span.NewTracer(42, ring)
	ctx, root := tr.Start(context.Background(), "test.root")

	send := func(ctx context.Context) []byte {
		c, wire := recordedClient(t, addr)
		if err := c.HSetContext(ctx, "call:1", "dc", "tokyo"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.DoContext(ctx, "GET", "missing"); !errors.Is(err, ErrNil) {
			t.Fatalf("GET missing = %v, want ErrNil", err)
		}
		if _, err := c.DoContext(ctx, "PING"); err != nil {
			t.Fatal(err)
		}
		// A fence no lease backs: the write is refused, but its frame still
		// carries the FENCE prefix.
		c.SetFence("leader", 7)
		if err := c.HSetContext(ctx, "call:1", "dc", "osaka"); !IsFencedError(err) {
			t.Fatalf("fenced HSET = %v, want FENCED", err)
		}
		return wire.Bytes()
	}
	traced := send(ctx)
	root.End()
	plain := send(context.Background())
	if !bytes.Equal(traced, plain) {
		t.Fatalf("traced frames differ from untraced ones:\ntraced %q\nplain  %q", traced, plain)
	}

	// Client side: one child span per command, parented on the root.
	spans := ring.Trace(root.TraceID())
	names := map[string]int{}
	for _, s := range spans {
		names[s.Name]++
		if s.Name != "test.root" && s.Parent != root.SpanID() {
			t.Errorf("span %s parent = %v, want root %v", s.Name, s.Parent, root.SpanID())
		}
	}
	for want, n := range map[string]int{"kv.HSET": 2, "kv.GET": 1, "kv.PING": 1, "test.root": 1} {
		if names[want] != n {
			t.Errorf("trace has %d %q spans, want %d (all: %v)", names[want], want, n, names)
		}
	}
}

// TestDoContextNoSpanZeroOverhead pins the contract that an untraced context
// adds nothing to the wire: the server sees the plain command.
func TestDoContextNoSpanZeroOverhead(t *testing.T) {
	_, addr := startServer(t)
	c, wire := recordedClient(t, addr)
	if _, err := c.DoContext(context.Background(), "SET", "k", "v"); err != nil {
		t.Fatal(err)
	}
	if got, want := wire.String(), "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n"; got != want {
		t.Fatalf("wire = %q, want %q", got, want)
	}
}
