package replica

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"switchboard/internal/kvstore"
)

// AckMode selects when a replicated write may be acknowledged to the client.
type AckMode int

const (
	// AckStandby (the default) withholds the reply until a standby holds
	// the entry — the semi-synchronous guarantee the failover e2e relies
	// on: every acked write survives promotion. With no standby attached
	// writes ack locally (the bootstrap window before the pair forms).
	AckStandby AckMode = iota
	// AckRelaxed acks as soon as the write is applied locally; replication
	// is asynchronous and the tail of acked writes can be lost on failover.
	// The -repl-ack=relaxed relaxation.
	AckRelaxed
)

// PrimaryOptions tunes the primary half. A zero timing field takes its value
// from OptionsFor(kvstore.TimingFor(kvstore.DefaultLeaseTTL)).
type PrimaryOptions struct {
	AckMode AckMode
	// AckTimeout bounds how long a write waits for the standby before it is
	// refused with REPLWAIT.
	AckTimeout time.Duration
	// Heartbeat is the idle-stream ping interval; standbys treat silence
	// beyond their FailoverTimeout as primary death.
	Heartbeat time.Duration
	// LogCap bounds the replication log (default 65536 entries).
	LogCap  int
	Metrics *Metrics
}

func (o PrimaryOptions) withDefaults() PrimaryOptions {
	d, _ := OptionsFor(kvstore.TimingFor(kvstore.DefaultLeaseTTL))
	if o.AckTimeout <= 0 {
		o.AckTimeout = d.AckTimeout
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = d.Heartbeat
	}
	if o.LogCap <= 0 {
		o.LogCap = 1 << 16
	}
	return o
}

// Primary sequences the local server's mutations into a replication log and
// streams it to standbys. Attach with NewPrimary; the server routes every
// mutation through Begin/Append and withholds replies via WaitAck.
type Primary struct {
	srv  *kvstore.Server
	log  *Log
	opts PrimaryOptions

	// order is the total mutation order: held from Begin (before the shard
	// apply) to Append/Abort, so log order equals apply order.
	order sync.Mutex

	mu       sync.Mutex
	acked    uint64        // guarded by mu; highest standby-acked sequence
	standbys int           // guarded by mu; attached sync streams
	progress chan struct{} // guarded by mu; closed and replaced when acked/standbys change
}

// NewPrimary wraps srv as a replication primary whose log starts after
// lastSeq (0 for a fresh store; a promoted standby passes the sequence it
// replicated up to) and attaches it as the server's replicator.
func NewPrimary(srv *kvstore.Server, lastSeq uint64, opts PrimaryOptions) *Primary {
	opts = opts.withDefaults()
	p := &Primary{
		srv:      srv,
		log:      NewLogAt(lastSeq, opts.LogCap),
		opts:     opts,
		progress: make(chan struct{}),
	}
	srv.SetReplicator(p)
	return p
}

// Begin acquires the total mutation order (see Replicator in kvstore).
func (p *Primary) Begin() { p.order.Lock() }

// Abort releases the order without logging (the command produced an error).
func (p *Primary) Abort() { p.order.Unlock() }

// Append logs one applied mutation and releases the order.
func (p *Primary) Append(args []string) uint64 {
	seq := p.log.Append(args)
	p.order.Unlock()
	p.mu.Lock()
	acked := p.acked
	p.mu.Unlock()
	p.opts.Metrics.position(seq, acked)
	return seq
}

// Lag returns the number of logged entries not yet standby-acknowledged.
func (p *Primary) Lag() uint64 {
	last := p.log.Last()
	p.mu.Lock()
	acked := p.acked
	p.mu.Unlock()
	if last < acked {
		return 0
	}
	return last - acked
}

// LastSeq returns the log head sequence.
func (p *Primary) LastSeq() uint64 { return p.log.Last() }

// WaitAck blocks until seq is standby-acknowledged per the ack policy.
func (p *Primary) WaitAck(seq uint64) error {
	if p.opts.AckMode == AckRelaxed {
		return nil
	}
	var timer *time.Timer
	for {
		p.mu.Lock()
		if p.standbys == 0 || p.acked >= seq {
			p.mu.Unlock()
			return nil
		}
		ch := p.progress
		p.mu.Unlock()
		if timer == nil {
			timer = time.NewTimer(p.opts.AckTimeout)
			defer timer.Stop()
		}
		select {
		case <-ch:
		case <-timer.C:
			p.opts.Metrics.ackTimeout()
			return fmt.Errorf("standby ack timeout after %v at seq %d", p.opts.AckTimeout, seq)
		}
	}
}

// signalLocked wakes every WaitAck waiter by replacing the progress channel
// (the close-and-remake idiom; sync.Cond has no timed wait).
//
//sblint:holds mu
func (p *Primary) signalLocked() {
	close(p.progress)
	p.progress = make(chan struct{})
}

// ack records a standby acknowledgment.
func (p *Primary) ack(seq uint64) {
	p.mu.Lock()
	if seq > p.acked {
		p.acked = seq
		p.signalLocked()
	}
	acked := p.acked
	p.mu.Unlock()
	p.opts.Metrics.position(p.log.Last(), acked)
}

// streamBatch caps how many entries one tail iteration copies and sends.
const streamBatch = 512

// ServeSync owns a REPLSYNC connection: it registers the standby, spawns a
// reader for its REPLACK frames, catches it up (snapshot or log tail), and
// then streams entries with REPLPING heartbeats on idle. All framing is
// plain RESP command arrays in both directions. Returns when the connection
// dies; the server's handler cleans up.
func (p *Primary) ServeSync(args []string, conn net.Conn, r *bufio.Reader, w *bufio.Writer) {
	var from uint64
	if len(args) >= 2 {
		if v, err := strconv.ParseUint(args[1], 10, 64); err == nil {
			from = v
		}
	}
	p.mu.Lock()
	p.standbys++
	p.signalLocked()
	n := p.standbys
	p.mu.Unlock()
	p.opts.Metrics.standbys(n)
	defer func() {
		p.mu.Lock()
		p.standbys--
		p.signalLocked()
		n := p.standbys
		p.mu.Unlock()
		p.opts.Metrics.standbys(n)
	}()
	// dead closes when the ack reader exits, so an idle stream notices a
	// closed connection (server shutdown, standby gone) without waiting out
	// the heartbeat.
	dead := make(chan struct{})
	go func() {
		defer close(dead)
		// Acks flow standby->primary on the same connection. A read error
		// kills the connection, which unblocks the writer below.
		for {
			cmd, err := kvstore.ReadWireCommand(r)
			if err != nil {
				_ = conn.Close()
				return
			}
			if len(cmd) == 2 && strings.EqualFold(cmd[0], "REPLACK") {
				if seq, err := strconv.ParseUint(cmd[1], 10, 64); err == nil {
					p.ack(seq)
				}
			}
		}
	}()
	next := from + 1
	if !p.log.CanResumeFrom(from) {
		// The standby's position was trimmed away (or is from a divergent
		// history): send a full snapshot cut at the current log head.
		// Holding the mutation order across Snapshot makes the cut exact.
		p.order.Lock()
		cmds := p.srv.Snapshot()
		snapSeq := p.log.Last()
		p.order.Unlock()
		p.opts.Metrics.snapshot()
		hdr := []string{"SNAPSHOT", strconv.FormatUint(snapSeq, 10), strconv.Itoa(len(cmds))}
		if err := kvstore.WriteWireCommand(w, hdr); err != nil {
			return
		}
		for _, c := range cmds {
			if err := kvstore.WriteWireCommand(w, append([]string{"SNAPCMD"}, c...)); err != nil {
				return
			}
		}
		if err := w.Flush(); err != nil {
			return
		}
		next = snapSeq + 1
	} else {
		if err := kvstore.WriteWireCommand(w, []string{"CONTINUE", strconv.FormatUint(from, 10)}); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
	for {
		// Take the wakeup channel before reading: an append that lands
		// after an empty read closes this channel, so it cannot be missed.
		changed := p.log.Changed()
		entries := p.log.From(next-1, streamBatch)
		if len(entries) == 0 {
			ping := []string{"REPLPING", strconv.FormatUint(p.log.Last(), 10)}
			if err := kvstore.WriteWireCommand(w, ping); err != nil {
				return
			}
			if err := w.Flush(); err != nil {
				return
			}
			select {
			case <-changed:
			case <-dead:
				return
			case <-time.After(p.opts.Heartbeat):
			}
			continue
		}
		for _, e := range entries {
			msg := append([]string{"ENTRY", strconv.FormatUint(e.Seq, 10)}, e.Args...)
			if err := kvstore.WriteWireCommand(w, msg); err != nil {
				return
			}
			p.opts.Metrics.streamed()
		}
		if err := w.Flush(); err != nil {
			return
		}
		next = entries[len(entries)-1].Seq + 1
	}
}
