// Package faults is a deterministic fault-injection substrate for the
// realtime service path. It wraps a net.Conn with a seeded injector that
// perturbs individual reads and writes (added latency, stalls, connection
// resets, partial writes, blackholes), and provides a TCP chaos
// proxy that can partition a client from its upstream on command. Every
// failure mode the provisioning layer plans for (Eq 7-8's DC and link
// scenarios) becomes reproducible in unit tests and benchmarks: the same
// seed and operation sequence yields the same injected faults.
package faults

import (
	"errors"
	"net"
	"sync"
	"time"
)

// Kind classifies an injected fault.
type Kind int

const (
	// Latency delays the operation by Rule.Delay before executing it.
	Latency Kind = iota
	// Stall blocks the operation for Rule.Delay before executing it.
	// Mechanically identical to Latency; scenarios use it to mark long
	// pauses (GC, VM migration) as opposed to network jitter.
	Stall
	// Reset closes the connection and fails the operation immediately,
	// emulating a peer RST.
	Reset
	// PartialWrite writes a prefix of the payload, then resets. Reads
	// treat PartialWrite like Reset.
	PartialWrite
	// Blackhole silently discards writes; the peer never sees the data,
	// so subsequent reads block until the connection's deadline fires.
	Blackhole
)

func (k Kind) String() string {
	switch k {
	case Latency:
		return "latency"
	case Stall:
		return "stall"
	case Reset:
		return "reset"
	case PartialWrite:
		return "partial-write"
	case Blackhole:
		return "blackhole"
	default:
		return "unknown"
	}
}

// ErrInjected is the error returned for operations killed by a Reset or
// PartialWrite fault. Callers distinguish injected failures from organic
// ones with errors.Is.
var ErrInjected = errors.New("faults: injected connection failure")

// Rule is one scheduled fault. Rules form a scenario schedule: each is
// active during [From, Until) measured from the injector's creation
// (Until 0 means forever), and fires per operation with probability Prob
// (0 means always). The first active rule that fires wins.
type Rule struct {
	Kind Kind
	// From and Until bound the rule's active window relative to injector
	// start. A zero Until leaves the rule active forever.
	From, Until time.Duration
	// Prob is the per-operation firing probability in (0, 1]; 0 means 1.
	Prob float64
	// Delay parameterizes Latency and Stall.
	Delay time.Duration
}

// Injector decides, per I/O operation, whether and which fault fires. It is
// deterministic: the decision sequence is a pure function of the seed and
// the order of operations (time-windowed rules additionally depend on the
// wall clock, as a scenario schedule must).
type Injector struct {
	mu    sync.Mutex
	rules []Rule    // guarded by mu
	start time.Time // guarded by mu
	rng   uint64    // guarded by mu
}

// NewInjector returns an injector with the given seed and scenario schedule.
func NewInjector(seed int64, rules ...Rule) *Injector {
	if seed == 0 {
		seed = 1
	}
	return &Injector{rules: rules, start: time.Now(), rng: uint64(seed)}
}

// next steps the xorshift64 generator and returns a uniform value in [0,1).
// Callers (pick) hold mu.
//
//sblint:holds mu
func (in *Injector) next() float64 {
	in.rng ^= in.rng << 13
	in.rng ^= in.rng >> 7
	in.rng ^= in.rng << 17
	return float64(in.rng%1e6) / 1e6
}

// pick returns the first active rule that fires for this operation.
func (in *Injector) pick() (Rule, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	elapsed := time.Since(in.start)
	for _, r := range in.rules {
		if elapsed < r.From || (r.Until > 0 && elapsed >= r.Until) {
			continue
		}
		p := r.Prob
		if p <= 0 {
			p = 1
		}
		if in.next() < p {
			return r, true
		}
	}
	return Rule{}, false
}

// Conn wraps c so every Read and Write consults the injector.
func (in *Injector) Conn(c net.Conn) net.Conn {
	return &faultConn{Conn: c, inj: in}
}

type faultConn struct {
	net.Conn
	inj *Injector
}

func (c *faultConn) Read(p []byte) (int, error) {
	if r, ok := c.inj.pick(); ok {
		switch r.Kind {
		case Latency, Stall:
			time.Sleep(r.Delay)
		case Reset, PartialWrite:
			_ = c.Conn.Close()
			return 0, ErrInjected
		case Blackhole:
			// Writes were discarded, so this read blocks on the
			// underlying conn until its deadline fires — exactly a
			// blackholed network path.
		}
	}
	return c.Conn.Read(p)
}

func (c *faultConn) Write(p []byte) (int, error) {
	if r, ok := c.inj.pick(); ok {
		switch r.Kind {
		case Latency, Stall:
			time.Sleep(r.Delay)
		case Reset:
			_ = c.Conn.Close()
			return 0, ErrInjected
		case PartialWrite:
			n, _ := c.Conn.Write(p[:(len(p)+1)/2])
			_ = c.Conn.Close()
			return n, ErrInjected
		case Blackhole:
			return len(p), nil
		}
	}
	return c.Conn.Write(p)
}
