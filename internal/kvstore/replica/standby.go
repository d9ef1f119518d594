package replica

import (
	"bufio"
	"log/slog"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"switchboard/internal/kvstore"
)

// StandbyOptions tunes the standby half. A zero timing field takes its value
// from OptionsFor(kvstore.TimingFor(kvstore.DefaultLeaseTTL)).
type StandbyOptions struct {
	// FailoverTimeout is how long the primary may stay silent (no stream
	// reads — covering crashes and partitions alike) before the standby
	// promotes itself (negative disables self-promotion).
	FailoverTimeout time.Duration
	// DialTimeout bounds each connection attempt to the primary.
	DialTimeout time.Duration
	// ReadTimeout is the per-read deadline on the sync stream; it must
	// exceed the primary's heartbeat interval or a healthy idle stream
	// looks dead.
	ReadTimeout time.Duration
	// RedialInterval paces reconnect attempts.
	RedialInterval time.Duration
	// Promote configures the Primary this standby becomes on promotion.
	Promote PrimaryOptions
	// OnPromote, when non-nil, runs once after promotion (off the Run
	// goroutine's lock).
	OnPromote func(*Primary)
	Metrics   *Metrics
	Logger    *slog.Logger
}

// OptionsFor returns the timing of an HA pair running at t: the primary's
// options, and the standby's, which promote into the primary's.
func OptionsFor(t kvstore.Timing) (PrimaryOptions, StandbyOptions) {
	p := PrimaryOptions{AckTimeout: t.AckTimeout, Heartbeat: t.Heartbeat}
	return p, StandbyOptions{FailoverTimeout: t.FailoverTimeout, DialTimeout: t.DialTimeout,
		ReadTimeout: t.SyncTimeout, RedialInterval: t.BackoffMin, Promote: p}
}

func (o StandbyOptions) withDefaults() StandbyOptions {
	_, d := OptionsFor(kvstore.TimingFor(kvstore.DefaultLeaseTTL))
	if o.FailoverTimeout == 0 {
		o.FailoverTimeout = d.FailoverTimeout
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = d.DialTimeout
	}
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = d.ReadTimeout
	}
	if o.RedialInterval <= 0 {
		o.RedialInterval = d.RedialInterval
	}
	return o
}

// Standby replicates a primary into the local server. While standing by, the
// local server serves reads (stale-read replica semantics) but refuses
// mutations with "MOVED <primary>", so clients chase the true write path.
// When the primary falls silent past FailoverTimeout — or Promote is called
// — the gate lifts and the standby becomes a primary for the sequence space
// it replicated.
type Standby struct {
	srv     *kvstore.Server
	primary string
	opts    StandbyOptions

	mu          sync.Mutex
	lastSeq     uint64    // guarded by mu; highest applied sequence
	lastContact time.Time // guarded by mu; last successful stream read
	promoted    *Primary  // guarded by mu; non-nil once promoted

	stopOnce sync.Once
	stopCh   chan struct{}
	done     chan struct{}
}

// NewStandby wraps srv as a standby replicating from primaryAddr and arms
// the MOVED mutation gate. Call Run (usually in a goroutine) to start
// syncing. The server should start empty — a snapshot resets it, but a log
// tail applies on top of whatever is there.
func NewStandby(srv *kvstore.Server, primaryAddr string, opts StandbyOptions) *Standby {
	s := &Standby{
		srv:     srv,
		primary: primaryAddr,
		opts:    opts.withDefaults(),
		stopCh:  make(chan struct{}),
		done:    make(chan struct{}),
	}
	s.mu.Lock()
	s.lastContact = time.Now()
	s.mu.Unlock()
	moved := "MOVED " + primaryAddr
	srv.SetGate(func(cmd string) string {
		if kvstore.Mutates(cmd) {
			return moved
		}
		return ""
	})
	return s
}

// Run syncs from the primary until Stop or promotion. The silence clock
// starts at NewStandby, so a primary that is unreachable from the outset
// still trips the failover timeout.
func (s *Standby) Run() {
	defer close(s.done)
	for {
		select {
		case <-s.stopCh:
			return
		default:
		}
		s.mu.Lock()
		promoted := s.promoted != nil
		silence := time.Since(s.lastContact)
		s.mu.Unlock()
		if promoted {
			return
		}
		if s.opts.FailoverTimeout > 0 && silence >= s.opts.FailoverTimeout {
			s.logf("primary silent, promoting", "silence", silence)
			s.Promote()
			return
		}
		conn, err := net.DialTimeout("tcp", s.primary, s.opts.DialTimeout)
		if err == nil {
			s.sync(conn)
			_ = conn.Close()
		}
		select {
		case <-s.stopCh:
			return
		case <-time.After(s.opts.RedialInterval):
		}
	}
}

// sync drives one REPLSYNC stream until it errors. Every successful read —
// entry, snapshot frame, or heartbeat — counts as primary contact; a
// blackholed connection (partition) stalls past ReadTimeout and returns, and
// the silence accumulates toward FailoverTimeout.
func (s *Standby) sync(conn net.Conn) {
	r := bufio.NewReaderSize(conn, 32<<10)
	w := bufio.NewWriterSize(conn, 4<<10)
	_ = conn.SetWriteDeadline(time.Now().Add(s.opts.ReadTimeout))
	if err := kvstore.WriteWireCommand(w, []string{"REPLSYNC", strconv.FormatUint(s.LastSeq(), 10)}); err != nil {
		return
	}
	if err := w.Flush(); err != nil {
		return
	}
	var snapSeq uint64
	snapRemaining := -1 // >=0 while receiving a snapshot body
	for {
		if s.Promoted() {
			return
		}
		select {
		case <-s.stopCh:
			return
		default:
		}
		_ = conn.SetReadDeadline(time.Now().Add(s.opts.ReadTimeout))
		msg, err := kvstore.ReadWireCommand(r)
		if err != nil {
			return
		}
		if len(msg) == 0 {
			continue
		}
		s.touch()
		switch strings.ToUpper(msg[0]) {
		case "SNAPSHOT": // SNAPSHOT <seq> <n>: full resync; wipe and rebuild
			if len(msg) != 3 {
				return
			}
			seq, err1 := strconv.ParseUint(msg[1], 10, 64)
			n, err2 := strconv.Atoi(msg[2])
			if err1 != nil || err2 != nil || n < 0 {
				return
			}
			_ = s.srv.Apply([]string{"FLUSHALL"})
			snapSeq, snapRemaining = seq, n
			if snapRemaining == 0 {
				s.finishSnapshot(conn, w, snapSeq)
				snapRemaining = -1
			}
		case "SNAPCMD":
			if snapRemaining <= 0 || len(msg) < 2 {
				return
			}
			_ = s.srv.Apply(msg[1:])
			s.opts.Metrics.applied()
			snapRemaining--
			if snapRemaining == 0 {
				s.finishSnapshot(conn, w, snapSeq)
				snapRemaining = -1
			}
		case "CONTINUE": // resuming the tail; nothing to do
		case "ENTRY": // ENTRY <seq> <args...>
			if len(msg) < 3 {
				return
			}
			seq, err := strconv.ParseUint(msg[1], 10, 64)
			if err != nil {
				return
			}
			// A reconnect can replay entries we already hold; applying
			// only forward keeps the apply stream idempotent.
			if seq > s.LastSeq() {
				_ = s.srv.Apply(msg[2:])
				s.setSeq(seq)
				s.opts.Metrics.applied()
			}
			if !s.sendAck(conn, w, seq) {
				return
			}
		case "REPLPING": // heartbeat; ack our position so the primary sees liveness
			if !s.sendAck(conn, w, s.LastSeq()) {
				return
			}
		}
	}
}

func (s *Standby) finishSnapshot(conn net.Conn, w *bufio.Writer, seq uint64) {
	s.setSeq(seq)
	_ = s.sendAck(conn, w, seq)
}

func (s *Standby) sendAck(conn net.Conn, w *bufio.Writer, seq uint64) bool {
	_ = conn.SetWriteDeadline(time.Now().Add(s.opts.ReadTimeout))
	if err := kvstore.WriteWireCommand(w, []string{"REPLACK", strconv.FormatUint(seq, 10)}); err != nil {
		return false
	}
	return w.Flush() == nil
}

func (s *Standby) touch() {
	s.mu.Lock()
	s.lastContact = time.Now()
	s.mu.Unlock()
}

func (s *Standby) setSeq(seq uint64) {
	s.mu.Lock()
	if seq > s.lastSeq {
		s.lastSeq = seq
	}
	s.mu.Unlock()
}

// LastSeq returns the highest applied sequence.
func (s *Standby) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq
}

// Promoted reports whether this standby has become a primary.
func (s *Standby) Promoted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.promoted != nil
}

// Primary returns the Primary born at promotion (nil before).
func (s *Standby) Primary() *Primary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.promoted
}

// Promote lifts the mutation gate and attaches a fresh Primary continuing
// this standby's sequence space. Idempotent; safe to call while Run is
// active (Run notices and exits). Returns the promoted Primary.
func (s *Standby) Promote() *Primary {
	s.mu.Lock()
	if s.promoted != nil {
		p := s.promoted
		s.mu.Unlock()
		return p
	}
	po := s.opts.Promote
	if po.Metrics == nil {
		po.Metrics = s.opts.Metrics
	}
	s.srv.SetGate(nil)
	p := NewPrimary(s.srv, s.lastSeq, po)
	s.promoted = p
	seq := s.lastSeq
	s.mu.Unlock()
	s.opts.Metrics.promoted()
	s.logf("promoted to primary", "last_seq", seq)
	s.stopOnce.Do(func() { close(s.stopCh) })
	if s.opts.OnPromote != nil {
		s.opts.OnPromote(p)
	}
	return p
}

// Stop halts syncing (without promoting). Run returns within a read timeout.
func (s *Standby) Stop() {
	s.stopOnce.Do(func() { close(s.stopCh) })
}

// Done is closed when Run has returned.
func (s *Standby) Done() <-chan struct{} { return s.done }

func (s *Standby) logf(msg string, kv ...any) {
	if s.opts.Logger != nil {
		s.opts.Logger.Info(msg, kv...)
	}
}
