package kvstore

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"switchboard/internal/obs/span"
)

// Options tunes the client's deadlines and redial policy. A zero field takes
// its value from TimingFor(DefaultLeaseTTL); a negative MaxRetries disables
// retries.
type Options struct {
	// DialTimeout bounds each connection attempt.
	DialTimeout time.Duration
	// IOTimeout is the per-command read/write deadline.
	IOTimeout time.Duration
	// MaxRetries is how many times an idempotent command is retried after
	// a transport failure, each retry preceded by a backoff sleep and a
	// redial.
	MaxRetries int
	// BackoffMin and BackoffMax bound the capped exponential redial
	// backoff.
	BackoffMin, BackoffMax time.Duration
	// Seed drives the deterministic backoff jitter (default 1).
	Seed int64
	// Metrics, when non-nil, receives client telemetry (dials, redials,
	// retries, poisonings, per-command latency). Typically shared across
	// every client talking to the same store.
	Metrics *ClientMetrics
}

func (o Options) withDefaults() Options {
	d := TimingFor(DefaultLeaseTTL)
	if o.DialTimeout <= 0 {
		o.DialTimeout = d.DialTimeout
	}
	if o.IOTimeout <= 0 {
		o.IOTimeout = d.IOTimeout
	}
	switch {
	case o.MaxRetries == 0:
		o.MaxRetries = d.MaxRetries
	case o.MaxRetries < 0:
		o.MaxRetries = 0
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = d.BackoffMin
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = d.BackoffMax
	}
	if o.BackoffMax < o.BackoffMin {
		o.BackoffMax = o.BackoffMin
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Client is a RESP client over one TCP connection. It is safe for a single
// goroutine; controller workers each own one client, mirroring the paper's
// per-thread Redis connections.
//
// A transport failure (timeout, reset, short read) mid-command leaves the
// RESP stream in an undefined position, so the client poisons the
// connection: it is closed immediately and every later command either
// redials (once the backoff window passes) or fails fast with ErrBroken.
// Only idempotent commands are retried automatically — a command that died
// in flight may or may not have executed, and INCR-style commands must not
// run twice.
type Client struct {
	// addrs is the failover set: addrs[cur] is the connection target, and a
	// failed dial rotates through the rest. A MOVED redirect (standby
	// pointing at the promoted primary) can append a new address at runtime.
	// lastAddr is the previously connected address, for failover counting.
	addrs    []string
	cur      int
	lastAddr string
	opts     Options

	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer

	// fenceKey/fenceEpoch, when set, prefix every mutating command with
	// "FENCE <key> <epoch>" so the server rejects this writer once its
	// lease epoch is superseded (see SetFence).
	fenceKey   string
	fenceEpoch int64

	// broken is the transport error that poisoned the connection; nil
	// while healthy. nextRedial gates fail-fast: before it, calls return
	// ErrBroken without touching the network.
	broken     error
	failures   int
	nextRedial time.Time
	rng        uint64
	closed     bool

	// Robustness counters. The client itself is single-goroutine, but these
	// are read by stats/metrics endpoints from other goroutines, so they are
	// atomic.
	redials    atomic.Int64
	retries    atomic.Int64
	poisonings atomic.Int64

	// lastRTT is the duration of the most recent round trip, exposed so
	// the controller benchmark can report write latencies (§6.6).
	lastRTT time.Duration

	// scratch backs header encoding in writeCommand/writeBulk so framing a
	// command never heap-allocates (the client is single-goroutine, so one
	// buffer suffices). The front half renders integer arguments, the back
	// half renders length headers — writeInt uses both at once.
	scratch [64]byte
}

// ErrNil is returned by Get/HGet when the key or field does not exist.
var ErrNil = errors.New("kvstore: nil reply")

// ErrBroken is wrapped into errors returned while the client's connection
// is poisoned and the redial backoff window has not yet passed.
var ErrBroken = errors.New("kvstore: connection broken")

// errClosed is returned after Close.
var errClosed = errors.New("kvstore: client closed")

// ErrExhausted is returned by DialFailover when every address in the
// failover set refused or timed out — the caller gets one bounded dial pass
// over the list, not a hang.
var ErrExhausted = errors.New("kvstore: all addresses unreachable")

// ErrRedirectLoop is returned when a command chases MOVED redirects past the
// hop cap without landing on a server willing to execute it (e.g. two
// confused standbys pointing at each other after a botched failover).
var ErrRedirectLoop = errors.New("kvstore: MOVED redirect loop")

// Protocol sanity caps: frames beyond these are rejected rather than
// allocated, so a corrupt or hostile peer cannot force huge allocations.
const (
	maxBulkLen  = 8 << 20
	maxArrayLen = 1 << 20
)

// Dial connects to a kvstore (or Redis) server with default Options.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialOptions connects with explicit robustness options.
func DialOptions(addr string, opts Options) (*Client, error) {
	return DialFailover([]string{addr}, opts)
}

// DialFailover connects to the first reachable address in addrs and remembers
// the rest: after a transport failure, redials rotate through the set, and a
// MOVED redirect from a standby switches the client to the promoted primary.
// The usual shape is {primary, standby}.
func DialFailover(addrs []string, opts Options) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("kvstore: no addresses")
	}
	c := &Client{addrs: append([]string(nil), addrs...), opts: opts.withDefaults()}
	c.rng = uint64(c.opts.Seed)
	if err := c.connect(context.Background(), time.Time{}); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrExhausted, err)
	}
	return c, nil
}

// connect dials addrs starting at cur, rotating on failure; each dial is
// bounded by DialTimeout and by deadline when set. Landing on a different
// address than the previous connection counts as a failover.
func (c *Client) connect(ctx context.Context, deadline time.Time) error {
	var lastErr error
	dialer := net.Dialer{Timeout: c.opts.DialTimeout, Deadline: deadline}
	for i := 0; i < len(c.addrs); i++ {
		idx := (c.cur + i) % len(c.addrs)
		conn, err := dialer.DialContext(ctx, "tcp", c.addrs[idx])
		if err != nil {
			lastErr = err
			continue
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true)
		}
		c.cur = idx
		if c.lastAddr != "" && c.lastAddr != c.addrs[idx] {
			c.opts.Metrics.failedOver()
		}
		c.lastAddr = c.addrs[idx]
		c.conn = conn
		c.r = bufio.NewReaderSize(conn, 16<<10)
		c.w = bufio.NewWriterSize(conn, 16<<10)
		c.broken = nil
		c.failures = 0
		c.opts.Metrics.dialed()
		return nil
	}
	return lastErr
}

// Close releases the connection.
func (c *Client) Close() error {
	c.closed = true
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// LastRTT returns the duration of the most recent command round trip.
func (c *Client) LastRTT() time.Duration { return c.lastRTT }

// Redials returns how many times the client successfully reconnected after
// a transport failure.
func (c *Client) Redials() int64 { return c.redials.Load() }

// Retries returns how many idempotent commands were retried after a
// transport failure.
func (c *Client) Retries() int64 { return c.retries.Load() }

// Poisonings returns how many times a transport error poisoned the
// connection.
func (c *Client) Poisonings() int64 { return c.poisonings.Load() }

// Idempotent reports whether cmd can be retried after an ambiguous
// transport failure (the in-flight command may or may not have executed
// server-side). Redis's counter mutations are the only non-idempotent verbs
// a caller can send through Do; the in-process server does not implement
// them, but a real Redis does. EqualFold keeps the check allocation-free —
// this runs on every command the client frames.
func Idempotent(cmd string) bool {
	return !strings.EqualFold(cmd, "INCR") && !strings.EqualFold(cmd, "INCRBY")
}

// poison marks the connection unusable after a transport error. The stream
// position is undefined (a reply may be half-read), so the connection is
// closed rather than resynchronized.
func (c *Client) poison(err error) {
	if c.conn != nil {
		_ = c.conn.Close() //sblint:allowalloc(transport-failure path; the connection is already dead)
		c.conn = nil
	}
	c.broken = err
	c.poisonings.Add(1)
	c.opts.Metrics.poisoned()
	// With a failover set, prefer a different address on the next dial: a
	// transport failure on a partitioned-but-accepting primary would
	// otherwise redial it forever. A healthy server that merely hiccuped
	// costs one MOVED round trip back.
	if len(c.addrs) > 1 {
		c.cur = (c.cur + 1) % len(c.addrs)
	}
	// The first redial may happen immediately; only failed redials grow
	// the backoff window.
	c.nextRedial = time.Now()
}

// ensureConn returns with a live connection, or an error. A poisoned client
// redials (by deadline, when set) once its backoff window passed (always,
// when force is set); until then it fails fast with ErrBroken.
func (c *Client) ensureConn(ctx context.Context, force bool, deadline time.Time) error {
	if c.closed {
		return errClosed
	}
	if c.conn != nil {
		return nil
	}
	if !force && time.Now().Before(c.nextRedial) {
		return fmt.Errorf("%w: %v", ErrBroken, c.broken) //sblint:allowalloc(fail-fast error path; connection is down)
	}
	if err := c.connect(ctx, deadline); err != nil {
		c.failures++
		c.nextRedial = time.Now().Add(c.backoff(c.failures - 1))
		c.broken = err
		return fmt.Errorf("%w: redial: %v", ErrBroken, err) //sblint:allowalloc(redial-failure error path)
	}
	c.redials.Add(1)
	c.opts.Metrics.redialed()
	return nil
}

// backoff returns the nth capped exponential backoff with deterministic
// ±25% jitter.
func (c *Client) backoff(n int) time.Duration {
	d := c.opts.BackoffMin
	for i := 0; i < n && d < c.opts.BackoffMax; i++ {
		d *= 2
	}
	if d > c.opts.BackoffMax {
		d = c.opts.BackoffMax
	}
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	j := float64(c.rng%1000)/1000 - 0.5 // uniform in [-0.5, 0.5)
	return d + time.Duration(float64(d)*0.5*j)
}

// doOnce runs one command over the live connection under the earlier of
// IOTimeout from now and deadline (when set). When ctx can be cancelled, its
// end interrupts the attempt: the connection's deadline moves to the past,
// so a cancel without a deadline does not wait out the I/O timeout.
func (c *Client) doOnce(ctx context.Context, args []string, deadline time.Time) (interface{}, error) {
	if io := time.Now().Add(c.opts.IOTimeout); deadline.IsZero() || io.Before(deadline) {
		deadline = io
	}
	conn := c.conn
	_ = conn.SetDeadline(deadline) //sblint:allowalloc(net.Conn deadline call; dynamic dispatch only, no data-dependent allocation)
	//sblint:allowalloc(context interface call; the stdlib contexts return a stored channel without allocating)
	if ctx.Done() == nil {
		return c.roundTrip(args)
	}
	//sblint:allowalloc(cancellable contexts only: one AfterFunc registration per wire attempt; call-state writes detach from their request's cancel)
	stop := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Unix(1, 0)) })
	reply, err := c.roundTrip(args)
	//sblint:allowalloc(stop is context.AfterFunc's unregister; it allocates nothing)
	if !stop() && (err == nil || errors.Is(err, ErrNil) || IsServerError(err)) {
		// ctx ended just as the reply arrived, and the interrupt may still
		// move the deadline of a connection that looks healthy: drop it,
		// as a failed attempt would have.
		c.poison(ctx.Err()) //sblint:allowalloc(cancel-race path; the stdlib contexts return a stored error)
	}
	return reply, err
}

// roundTrip writes one command and reads its reply.
func (c *Client) roundTrip(args []string) (interface{}, error) {
	if err := c.writeCommand(args); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	return c.readReply()
}

// Do sends one command and reads its reply. Integer replies are returned as
// int64, simple and bulk strings as string, nil replies as ErrNil. After a
// transport failure, idempotent commands are transparently retried against
// a fresh connection (up to Options.MaxRetries times).
func (c *Client) Do(args ...string) (interface{}, error) {
	return c.DoContext(context.Background(), args...)
}

// DoContext is Do under a context. Every wire attempt and redial ends by the
// earlier of ctx's deadline and Options.IOTimeout, or as soon as ctx is
// cancelled, and no retry starts or finishes its backoff once ctx is done or
// its deadline falls within the backoff, so the call returns by ctx's
// deadline or cancel (one that fires mid-command poisons the connection).
// When ctx carries an active span, each wire attempt becomes a "kv.<VERB>"
// child span (retry legs carry retry=true); the command goes on the wire
// exactly as an untraced one. With no span in ctx the path is identical to
// Do — no spans, no allocations.
func (c *Client) DoContext(ctx context.Context, args ...string) (interface{}, error) {
	if len(args) == 0 {
		return nil, errKvEmptyCommand
	}
	deadline, _ := ctx.Deadline() //sblint:allowalloc(context interface call; the stdlib contexts return a stored deadline without allocating)
	parent := span.FromContext(ctx)
	retriable := Idempotent(args[0])
	start := time.Now()
	var lastErr error
	movedHops := 0
	for attempt := 0; ; attempt++ {
		var sp *span.Span
		if parent != nil {
			sp = parent.NewChild("kv." + strings.ToUpper(args[0])) //sblint:allowalloc(tracing branch; parent is nil unless the caller carries a span)
			if attempt > 0 {
				sp.SetAttr("retry", "true")
			}
		}
		if err := c.ensureConn(ctx, attempt > 0, deadline); err != nil {
			lastErr = err
			sp.SetError(err)
			sp.End()
			if errors.Is(err, errClosed) {
				return nil, err
			}
		} else {
			reply, err := c.doOnce(ctx, args, deadline)
			// A MOVED redirect means the peer refused to execute (it is a
			// standby), so following it is safe even for non-idempotent
			// commands and does not consume a retry. Hops are capped so two
			// confused servers pointing at each other cannot loop us.
			if addr, ok := movedAddr(err); ok {
				if movedHops < maxMovedHops {
					movedHops++
					attempt--
					c.redirect(addr)
					lastErr = err
					sp.SetAttr("moved", addr)
					sp.End()
					continue
				}
				// Hop cap hit: the redirect chain is a loop, not a path.
				// Surface a typed error instead of chasing it forever.
				loopErr := fmt.Errorf("%w: %d hops ending at %q", ErrRedirectLoop, movedHops, addr) //sblint:allowalloc(redirect-loop error path)
				sp.SetError(loopErr)
				sp.End()
				return nil, loopErr
			}
			if err == nil || errors.Is(err, ErrNil) || IsServerError(err) {
				c.lastRTT = time.Since(start)
				c.opts.Metrics.observe(args[0], c.lastRTT.Seconds())
				sp.End()
				return reply, err
			}
			c.poison(err)
			lastErr = err
			sp.SetError(err)
			sp.End()
		}
		if !retriable || attempt >= c.opts.MaxRetries || ctx.Err() != nil { //sblint:allowalloc(retry-decision path after a transport failure; the stdlib contexts return a stored error)
			return nil, lastErr
		}
		wait := c.backoff(attempt)
		if !deadline.IsZero() && time.Until(deadline) <= wait {
			return nil, lastErr
		}
		c.retries.Add(1)
		c.opts.Metrics.retried()
		t := time.NewTimer(wait) //sblint:allowalloc(retry path after a transport failure)
		select {
		case <-ctx.Done(): //sblint:allowalloc(context interface call; the stdlib contexts return a stored channel without allocating)
			t.Stop()
			return nil, lastErr
		case <-t.C:
		}
	}
}

// respError is a server-reported error (-ERR ...), distinct from transport
// failures.
type respError string

func (e respError) Error() string { return string(e) }

// IsServerError reports whether err is a server-reported RESP error (-ERR
// ...) rather than a transport or protocol failure. Server errors leave the
// connection healthy.
func IsServerError(err error) bool {
	var re respError
	return errors.As(err, &re)
}

// maxMovedHops caps how many MOVED redirects one command follows.
const maxMovedHops = 4

// movedAddr extracts the target address from a MOVED redirect error ("-MOVED
// <addr>", sent by a standby refusing a mutation); ok is false for any other
// error.
func movedAddr(err error) (addr string, ok bool) {
	var re respError
	if !errors.As(err, &re) {
		return "", false
	}
	rest, found := strings.CutPrefix(string(re), "MOVED ")
	if !found || rest == "" {
		return "", false
	}
	return rest, true
}

// IsFencedError reports whether err is a FENCED rejection — this writer's
// lease epoch has been superseded and the write was refused.
func IsFencedError(err error) bool {
	var re respError
	return errors.As(err, &re) && strings.HasPrefix(string(re), "FENCED")
}

// IsLeaseHeldError reports whether err is a LEASEHELD rejection — another
// owner's lease grant is still live.
func IsLeaseHeldError(err error) bool {
	var re respError
	return errors.As(err, &re) && strings.HasPrefix(string(re), "LEASEHELD")
}

// LeaseHolder extracts the current owner from a LEASEHELD error ("" when err
// is not one).
func LeaseHolder(err error) string {
	var re respError
	if !errors.As(err, &re) {
		return ""
	}
	rest, found := strings.CutPrefix(string(re), "LEASEHELD ")
	if !found {
		return ""
	}
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// IsReplWaitError reports whether err is a REPLWAIT rejection — the write
// was applied on the primary but the standby did not acknowledge it in time,
// so the caller must treat it as an ambiguous (possibly lost) write.
func IsReplWaitError(err error) bool {
	var re respError
	return errors.As(err, &re) && strings.HasPrefix(string(re), "REPLWAIT")
}

// redirect points the client at addr (appending it to the failover set if
// new) and drops the current connection so the next attempt dials there.
func (c *Client) redirect(addr string) {
	if c.conn != nil {
		_ = c.conn.Close() //sblint:allowalloc(failover path; a MOVED redirect already cost a round trip)
		c.conn = nil
	}
	c.broken = fmt.Errorf("kvstore: moved to %s", addr) //sblint:allowalloc(failover path; records why the connection moved)
	found := false
	for i, a := range c.addrs {
		if a == addr {
			c.cur = i
			found = true
			break
		}
	}
	if !found {
		c.addrs = append(c.addrs, addr) //sblint:allowalloc(failover path; the address set grows once per new peer)
		c.cur = len(c.addrs) - 1
	}
	c.nextRedial = time.Now()
	c.opts.Metrics.redirected()
}

// SetFence stamps every subsequent mutating command with the lease epoch the
// caller holds (a "FENCE <key> <epoch>" protocol prefix). Once another owner
// is granted the lease the server rejects these writes with FENCED — the
// fencing half of lease-based leadership. Reads are never fenced.
func (c *Client) SetFence(key string, epoch int64) {
	c.fenceKey, c.fenceEpoch = key, epoch
}

// ClearFence stops stamping mutations.
func (c *Client) ClearFence() {
	c.fenceKey, c.fenceEpoch = "", 0
}

// SetLease acquires or renews the TTL lease on key for owner, returning the
// lease epoch. While another owner's grant is live the error satisfies
// IsLeaseHeldError, and LeaseHolder names the owner.
func (c *Client) SetLease(key, owner string, ttl time.Duration) (int64, error) {
	return c.SetLeaseContext(context.Background(), key, owner, ttl)
}

// SetLeaseContext is SetLease under a context (see DoContext).
func (c *Client) SetLeaseContext(ctx context.Context, key, owner string, ttl time.Duration) (int64, error) {
	r, err := c.DoContext(ctx, "SETLEASE", key, owner, strconv.FormatInt(ttl.Milliseconds(), 10))
	if err != nil {
		return 0, err
	}
	n, ok := r.(int64)
	if !ok {
		return 0, fmt.Errorf("kvstore: unexpected SETLEASE reply %v", r)
	}
	return n, nil
}

// DelLease releases key if owner holds it.
func (c *Client) DelLease(key, owner string) error {
	_, err := c.Do("DELLEASE", key, owner)
	return err
}

// GetLeaseContext returns the live lease on key (ErrNil when free or
// lapsed) under a context (see DoContext), so a caller polling a lease stops
// waiting by its own deadline.
func (c *Client) GetLeaseContext(ctx context.Context, key string) (owner string, epoch int64, remaining time.Duration, err error) {
	r, err := c.DoContext(ctx, "GETLEASE", key)
	if err != nil {
		return "", 0, 0, err
	}
	arr, ok := r.([]interface{})
	if !ok || len(arr) != 3 {
		return "", 0, 0, fmt.Errorf("kvstore: unexpected GETLEASE reply %v", r)
	}
	owner, _ = arr[0].(string)
	es, _ := arr[1].(string)
	ms, _ := arr[2].(string)
	epoch, _ = strconv.ParseInt(es, 10, 64)
	remainMS, _ := strconv.ParseInt(ms, 10, 64)
	return owner, epoch, time.Duration(remainMS) * time.Millisecond, nil
}

// PingContext round-trips a PING under a context (see DoContext).
func (c *Client) PingContext(ctx context.Context) error {
	r, err := c.DoContext(ctx, "PING") //sblint:allowalloc(health probe, not a data-path command; the argument slice is probe-rate)
	if err != nil {
		return err
	}
	if s, ok := r.(string); !ok || s != "PONG" {
		return fmt.Errorf("kvstore: unexpected PING reply %v", r) //sblint:allowalloc(protocol-error path)
	}
	return nil
}

// Set stores a string value.
func (c *Client) Set(key, value string) error {
	return c.SetContext(context.Background(), key, value)
}

// SetContext is Set under a context (see DoContext).
func (c *Client) SetContext(ctx context.Context, key, value string) error {
	r, err := c.DoContext(ctx, "SET", key, value)
	if err != nil {
		return err
	}
	if s, ok := r.(string); !ok || s != "OK" {
		return fmt.Errorf("kvstore: unexpected SET reply %v", r)
	}
	return nil
}

// Get fetches a string value; ErrNil when absent.
func (c *Client) Get(key string) (string, error) {
	return c.GetContext(context.Background(), key)
}

// GetContext is Get under a context (see DoContext).
func (c *Client) GetContext(ctx context.Context, key string) (string, error) {
	r, err := c.DoContext(ctx, "GET", key)
	if err != nil {
		return "", err
	}
	s, ok := r.(string)
	if !ok {
		return "", fmt.Errorf("kvstore: unexpected GET reply %v", r)
	}
	return s, nil
}

// HSet stores a hash field.
func (c *Client) HSet(key, field, value string) error {
	_, err := c.Do("HSET", key, field, value)
	return err
}

// HSetContext stores a hash field under a context (see DoContext).
func (c *Client) HSetContext(ctx context.Context, key, field, value string) error {
	_, err := c.DoContext(ctx, "HSET", key, field, value) //sblint:allowalloc(variadic argument slice; it never escapes DoContext, so escape analysis keeps it on the stack)
	return err
}

// DelContext removes a key. It is the typed wrapper raw `Do("DEL", ...)`
// callers should use: like every typed mutation it inherits the client's
// armed fence (see SetFence), which the fenceflow analyzer enforces.
func (c *Client) DelContext(ctx context.Context, key string) error {
	_, err := c.DoContext(ctx, "DEL", key)
	return err
}

// HGet fetches a hash field; ErrNil when absent.
func (c *Client) HGet(key, field string) (string, error) {
	r, err := c.Do("HGET", key, field)
	if err != nil {
		return "", err
	}
	s, ok := r.(string)
	if !ok {
		return "", fmt.Errorf("kvstore: unexpected HGET reply %v", r)
	}
	return s, nil
}

// HGetAll fetches every field of a hash (empty map when the key is absent).
func (c *Client) HGetAll(key string) (map[string]string, error) {
	return c.HGetAllContext(context.Background(), key)
}

// HGetAllContext is HGetAll under a context (see DoContext).
func (c *Client) HGetAllContext(ctx context.Context, key string) (map[string]string, error) {
	r, err := c.DoContext(ctx, "HGETALL", key)
	if err != nil {
		return nil, err
	}
	arr, ok := r.([]interface{})
	if !ok || len(arr)%2 != 0 {
		return nil, fmt.Errorf("kvstore: unexpected HGETALL reply %v", r)
	}
	out := make(map[string]string, len(arr)/2)
	for i := 0; i < len(arr); i += 2 {
		f, fok := arr[i].(string)
		v, vok := arr[i+1].(string)
		if !fok || !vok {
			return nil, fmt.Errorf("kvstore: non-string HGETALL element")
		}
		out[f] = v
	}
	return out, nil
}

// KeysPrefixContext lists the keys under a literal prefix (server-side
// trailing-star KEYS), sorted; the reply carries one shard's namespace, not
// the whole store.
func (c *Client) KeysPrefixContext(ctx context.Context, prefix string) ([]string, error) {
	r, err := c.DoContext(ctx, "KEYS", prefix+"*") //sblint:allowalloc(scan path, not a data-path command; one concat per scan)
	if err != nil {
		return nil, err
	}
	arr, ok := r.([]interface{})
	if !ok {
		return nil, fmt.Errorf("kvstore: unexpected KEYS reply %v", r)
	}
	out := make([]string, 0, len(arr))
	for _, e := range arr {
		s, ok := e.(string)
		if !ok {
			return nil, fmt.Errorf("kvstore: non-string key")
		}
		out = append(out, s)
	}
	return out, nil
}

// HCopyContext snapshots the src hash into dst in one server-side round trip,
// returning the field count copied (0 when src is absent). It is the typed
// wrapper for the mutating HCOPY verb, so it inherits the client's armed
// fence: a deposed migration coordinator's copies are rejected, not landed.
func (c *Client) HCopyContext(ctx context.Context, src, dst string) (int64, error) {
	r, err := c.DoContext(ctx, "HCOPY", src, dst)
	if err != nil {
		return 0, err
	}
	n, ok := r.(int64)
	if !ok {
		return 0, fmt.Errorf("kvstore: unexpected HCOPY reply %v", r)
	}
	return n, nil
}

// writeCommand frames args as a RESP array. An armed fence (SetFence)
// prepends "FENCE <key> <epoch>" to mutating commands inside the same array,
// so the frame stays one self-delimiting unit.
//
// Encoding is allocation-free: headers render through the client's scratch
// buffer instead of string concatenation, so the per-command wire cost is
// pure bufio copies. Enforced by the hotpathalloc analyzer.
//
//sblint:hotpath
func (c *Client) writeCommand(args []string) error {
	if len(args) == 0 {
		return errKvEmptyCommand
	}
	fenced := c.fenceKey != "" && Mutates(args[0])
	n := len(args)
	if fenced {
		n += 3
	}
	c.writeHeader('*', int64(n))
	if fenced {
		c.writeBulk("FENCE")
		c.writeBulk(c.fenceKey)
		c.writeInt(c.fenceEpoch)
	}
	for _, a := range args {
		c.writeBulk(a)
	}
	return nil
}

// errKvEmptyCommand is preallocated so writeCommand's error path does not
// construct an error value per call.
var errKvEmptyCommand = errors.New("kvstore: empty command")

func (c *Client) writeBulk(a string) {
	c.writeHeader('$', int64(len(a)))
	_, _ = c.w.WriteString(a)
	_, _ = c.w.WriteString("\r\n")
}

// writeInt renders an integer argument as a RESP bulk string ("$<len>\r\n
// <digits>\r\n") without allocating: digits land in the scratch buffer's
// front half and the length header is derived from the rendered width.
func (c *Client) writeInt(v int64) {
	buf := strconv.AppendInt(c.scratch[0:0:32], v, 10)
	c.writeHeader('$', int64(len(buf)))
	_, _ = c.w.Write(buf)
	_, _ = c.w.WriteString("\r\n")
}

// writeHeader emits "<prefix><decimal n>\r\n" through the scratch buffer's
// back half (the front half may still hold writeInt's digits; the capped
// subslices can never grow into each other).
func (c *Client) writeHeader(prefix byte, n int64) {
	b := append(c.scratch[32:32:64], prefix) //sblint:allowalloc(append into the fixed-cap scratch backing; 32 bytes always fit a RESP header, so it never grows)
	b = strconv.AppendInt(b, n, 10)
	b = append(b, '\r', '\n') //sblint:allowalloc(same fixed-cap scratch backing as above)
	_, _ = c.w.Write(b)
}

// readReply decodes one RESP reply. The only intended allocations are the
// ones that materialize reply *values* for the caller (bulk strings, array
// shells) and cold protocol-error paths; everything else on the decode path
// is allocation-free, enforced by the hotpathalloc analyzer.
//
//sblint:hotpath
func (c *Client) readReply() (interface{}, error) {
	line, err := readLine(c.r)
	if err != nil {
		return nil, err
	}
	if len(line) == 0 {
		return nil, errEmptyReply
	}
	switch line[0] {
	case '+':
		return line[1:], nil //sblint:allowalloc(reply value materialization is the API contract)
	case '-':
		return nil, respError(line[1:]) //sblint:allowalloc(server-error path; boxes one error value)
	case ':':
		n, err := strconv.ParseInt(line[1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("kvstore: bad integer reply %q", line) //sblint:allowalloc(protocol-error path)
		}
		return n, nil //sblint:allowalloc(integer reply boxes into interface{}; replies are interface-typed by contract)
	case '$':
		n, err := strconv.Atoi(line[1:])
		if err != nil || n > maxBulkLen {
			return nil, fmt.Errorf("kvstore: bad bulk header %q", line) //sblint:allowalloc(protocol-error path)
		}
		if n < 0 {
			return nil, ErrNil
		}
		buf := make([]byte, n+2) //sblint:allowalloc(bulk reply payload buffer; sized by the server's header)
		if _, err := io.ReadFull(c.r, buf); err != nil {
			return nil, err
		}
		return string(buf[:n]), nil //sblint:allowalloc(reply value materialization is the API contract)
	case '*':
		n, err := strconv.Atoi(line[1:])
		if err != nil || n > maxArrayLen {
			return nil, fmt.Errorf("kvstore: bad array header %q", line) //sblint:allowalloc(protocol-error path)
		}
		if n < 0 {
			return nil, ErrNil
		}
		out := make([]interface{}, n) //sblint:allowalloc(array reply shell; sized by the server's header)
		for i := 0; i < n; i++ {
			v, err := c.readReply()
			if err != nil && !errors.Is(err, ErrNil) {
				return nil, err
			}
			out[i] = v
		}
		return out, nil //sblint:allowalloc(array reply boxes into interface{}; replies are interface-typed by contract)
	default:
		return nil, fmt.Errorf("kvstore: unknown reply type %q", line) //sblint:allowalloc(protocol-error path)
	}
}

// errEmptyReply is preallocated so the decode error path does not allocate
// per call.
var errEmptyReply = errors.New("kvstore: empty reply")
