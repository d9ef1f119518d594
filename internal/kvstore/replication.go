// Replication hooks: the seams internal/kvstore/replica attaches to.
//
// The server itself knows nothing about log shipping or failover. It exposes
// exactly four things: a Replicator hook that sequences and acks mutations, a
// gate that lets a standby refuse writes with a MOVED redirect, Apply for the
// standby's log-replay path, and Snapshot for catch-up. Keeping the policy in
// a separate package keeps the Fig 10 write path (no replicator attached)
// byte-for-byte what it was.

package kvstore

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"strconv"
	"strings"
)

// Replicator sequences mutations into a replication log and decides when a
// write may be acked. internal/kvstore/replica.Primary implements it.
//
// Begin/Append and Begin/Abort bracket one mutation: Begin acquires the total
// mutation order, the server applies the command, and Append logs it (Abort
// logs nothing — the command failed). Holding the order across apply+append
// guarantees the log order equals the apply order, so a standby replaying the
// log converges on the same state.
type Replicator interface {
	Begin()
	Append(args []string) uint64
	Abort()
	// WaitAck blocks until the ack policy is satisfied for seq (or errors
	// after the configured timeout, in which case the reply is withheld and
	// the client sees a REPLWAIT error — applied locally but not acked).
	WaitAck(seq uint64) error
	// ServeSync takes over a connection that sent REPLSYNC and streams the
	// log to the standby until the connection dies.
	ServeSync(args []string, conn net.Conn, r *bufio.Reader, w *bufio.Writer)
}

// replicatorBox and gateBox exist so the hooks can be swapped atomically on a
// live server (a standby promotion attaches a replicator mid-flight).
type replicatorBox struct{ r Replicator }
type gateBox struct{ f func(cmd string) string }

// SetReplicator attaches (or with nil detaches) the replication hook.
func (s *Server) SetReplicator(r Replicator) {
	if r == nil {
		s.repl.Store(nil)
		return
	}
	s.repl.Store(&replicatorBox{r: r})
}

// SetGate attaches a per-command admission gate. The gate returns an empty
// string to admit, or a raw RESP error ("MOVED <addr>") to refuse. A standby
// gates mutations so clients follow the redirect to the primary; reads are
// served locally with replica (stale-read) semantics.
func (s *Server) SetGate(f func(cmd string) string) {
	if f == nil {
		s.gate.Store(nil)
		return
	}
	s.gate.Store(&gateBox{f: f})
}

// Mutates reports whether cmd changes store state — the set of verbs that
// must be replicated, fenced, and redirected off a standby.
func Mutates(cmd string) bool {
	// EqualFold instead of ToUpper: this runs on the client's per-command
	// encode path (writeCommand checks whether to arm the fence prefix) and
	// must not allocate. The lint suite's fenceflow analyzer calls it too.
	for _, m := range &mutatingCmds {
		if strings.EqualFold(cmd, m) {
			return true
		}
	}
	return false
}

// mutatingCmds lists every verb the store treats as a mutation (fenced and
// replicated).
var mutatingCmds = [...]string{
	"SET", "DEL", "HSET", "HCOPY", "FLUSHALL",
	"SETLEASE", "DELLEASE", "LEASEGRANT", "LEASEDEL",
}

// executeReplicated applies one mutating command under the replicator's total
// mutation order, appends it to the log, and withholds the reply until the
// ack policy admits it. Error replies (first byte '-') are not replicated —
// they changed nothing. An ack timeout converts the buffered reply into a
// REPLWAIT error: the write is applied locally but the client must treat it
// like any transport-ambiguous failure, preserving "acked ⇒ on the standby".
func (s *Server) executeReplicated(repl Replicator, cmd string, args []string, w *bufio.Writer) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	repl.Begin()
	logArgs := s.dispatch(cmd, args, bw)
	_ = bw.Flush()
	var seq uint64
	if buf.Len() > 0 && buf.Bytes()[0] != '-' {
		if logArgs == nil {
			logArgs = args
		}
		seq = repl.Append(logArgs)
	} else {
		repl.Abort()
	}
	if seq != 0 {
		if err := repl.WaitAck(seq); err != nil {
			writeRawError(w, "REPLWAIT "+err.Error())
			return
		}
	}
	_, _ = w.Write(buf.Bytes())
}

// Apply executes one command against the local store without a client
// connection — the standby's replication-apply path. It bypasses the gate
// and the replicator (the entry is already sequenced) and returns any error
// reply the command produced.
func (s *Server) Apply(args []string) error {
	if len(args) == 0 {
		return errors.New("kvstore: empty apply")
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	s.opsServed.Add(1)
	cmd := strings.ToUpper(args[0])
	s.metrics.command(cmd)
	s.dispatch(cmd, args, bw)
	_ = bw.Flush()
	if buf.Len() > 0 && buf.Bytes()[0] == '-' {
		return respError(strings.TrimSuffix(buf.String()[1:], "\r\n"))
	}
	return nil
}

// Snapshot returns a command stream that rebuilds the store's current
// contents: SET/HSET per key and LEASEGRANT per lease. Callers needing a
// consistent cut against the replication log must block mutations around
// the call — replica.Primary holds its mutation order across Snapshot, so
// the cut is exactly the log position it records.
func (s *Server) Snapshot() [][]string {
	var out [][]string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for key, e := range sh.m {
			switch e.kind {
			case "string":
				out = append(out, []string{"SET", key, e.str})
			case "hash":
				for f, v := range e.hash {
					out = append(out, []string{"HSET", key, f, v})
				}
			}
		}
		sh.mu.RUnlock()
	}
	out = append(out, s.leases.snapshot()...)
	return out
}

// ReadWireCommand reads one RESP command array (or inline command) from r.
// Exported for the replication stream, which reuses the command framing in
// both directions, and for protocol fuzzing.
func ReadWireCommand(r *bufio.Reader) ([]string, error) { return readCommand(r) }

// WriteWireCommand frames args as a RESP command array on w (no flush).
func WriteWireCommand(w *bufio.Writer, args []string) error {
	if _, err := w.WriteString("*" + strconv.Itoa(len(args)) + "\r\n"); err != nil {
		return err
	}
	for _, a := range args {
		if _, err := w.WriteString("$" + strconv.Itoa(len(a)) + "\r\n" + a + "\r\n"); err != nil {
			return err
		}
	}
	return nil
}
