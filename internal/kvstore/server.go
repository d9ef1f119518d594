// Package kvstore implements a small Redis-like in-memory key-value store
// spoken over TCP plus a client. It stands in for the Azure Redis instance
// Switchboard's controller writes call state to (§6.6): the controller's
// worker threads each hold a connection and record call-config updates as
// calls arrive and participants join, which is exactly the write path the
// Fig 10 throughput benchmark exercises.
//
// The wire protocol is RESP2 (arrays of bulk strings in; simple strings,
// bulk strings, integers, and errors out), so the server is also usable with
// standard Redis tooling for the command subset it implements: PING, SET,
// GET, DEL, HSET, HGET, HGETALL, KEYS and FLUSHALL, plus HCOPY for
// resharding and the lease verbs of lease.go.
package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const numShards = 16

// Server is the in-memory store. The zero value is not usable; call
// NewServer.
type Server struct {
	shards [numShards]shard

	mu        sync.Mutex
	listener  net.Listener          // guarded by mu
	conns     map[net.Conn]struct{} // guarded by mu
	closed    bool                  // guarded by mu
	handlers  sync.WaitGroup
	opsServed atomic.Int64

	// simLatency, when positive, is the minimum per-command latency; a
	// deterministic heavy tail extends it up to 14x, emulating a
	// cloud-hosted store. The paper's controller observes 0.3-4.2 ms
	// writes against Azure Redis; an in-process loopback store is ~100x
	// faster, which would make thread-scaling (Fig 10) invisible.
	simLatency time.Duration

	// metrics receives server telemetry; nil-safe, set before Serve.
	metrics *ServerMetrics

	// leases is the TTL-lease table behind SETLEASE/GETLEASE and the FENCE
	// write prefix (see lease.go).
	leases leaseTable

	// repl and gate are the replication hooks (see replication.go). They are
	// atomic pointers because a standby promotion attaches them to a server
	// that is already handling connections.
	repl atomic.Pointer[replicatorBox]
	gate atomic.Pointer[gateBox]
}

type shard struct {
	mu sync.RWMutex
	m  map[string]*entry // guarded by mu
}

type entry struct {
	// kind is "string" or "hash".
	kind string
	str  string
	hash map[string]string
}

// NewServer returns an empty store ready to serve.
func NewServer() *Server {
	s := &Server{conns: make(map[net.Conn]struct{})}
	for i := range s.shards {
		s.shards[i].m = make(map[string]*entry)
	}
	s.leases.m = make(map[string]*leaseEntry)
	return s
}

// OpsServed returns the number of commands executed since start.
func (s *Server) OpsServed() int64 { return s.opsServed.Load() }

// SetSimulatedLatency makes every command take at least d, with a
// deterministic heavy tail up to 14x d (mean ~2.4x d), emulating a remote
// cloud store. Call before Serve.
func (s *Server) SetSimulatedLatency(d time.Duration) { s.simLatency = d }

// SetMetrics attaches a telemetry bundle (see NewServerMetrics). Call before
// Serve.
func (s *Server) SetMetrics(m *ServerMetrics) { s.metrics = m }

func (s *Server) shardOf(key string) *shard {
	h := fnv.New32a()
	_, _ = io.WriteString(h, key) // fnv.Write never fails
	return &s.shards[h.Sum32()%numShards]
}

// Serve accepts connections on l until Close is called. It returns only
// after every per-connection handler goroutine has drained, so a returned
// Serve means no server goroutine still touches the store.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = l.Close()
		return errors.New("kvstore: server closed")
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			s.handlers.Wait()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			// Close raced the accept: drop the connection; the next
			// Accept fails and the loop exits above.
			s.mu.Unlock()
			_ = conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.handlers.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.handlers.Done()
			s.handle(conn)
		}()
	}
}

// Close stops accepting connections, severs all active ones, and waits for
// the per-connection handler goroutines to drain before returning.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.handlers.Wait()
	return err
}

func (s *Server) handle(conn net.Conn) {
	s.metrics.connDelta(1)
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.metrics.connDelta(-1)
	}()
	r := bufio.NewReaderSize(conn, 16<<10)
	w := bufio.NewWriterSize(conn, 16<<10)
	jitter := uint64(0x9e3779b97f4a7c15)
	for {
		args, err := readCommand(r)
		if err != nil {
			return
		}
		// REPLSYNC dedicates the connection to a replication stream: the
		// handler goroutine becomes the stream writer and does not return to
		// command dispatch (see internal/kvstore/replica).
		if len(args) >= 1 && strings.EqualFold(args[0], "REPLSYNC") {
			if rb := s.repl.Load(); rb != nil && rb.r != nil {
				_ = w.Flush()
				rb.r.ServeSync(args, conn, r, w)
			} else {
				writeError(w, "replication not enabled")
				_ = w.Flush()
			}
			return
		}
		if s.simLatency > 0 {
			// xorshift-derived deterministic jitter: latency =
			// d·(1 + 13·u⁸) for u uniform in [0,1), i.e. a heavy
			// tail from d to 14d with mean ≈ 2.4d. With d = 300 µs
			// this reproduces the paper's 0.3-4.2 ms Azure Redis
			// write band.
			jitter ^= jitter << 13
			jitter ^= jitter >> 7
			jitter ^= jitter << 17
			u := float64(jitter%1000) / 1000
			u4 := u * u * u * u
			factor := 1 + 13*u4*u4
			time.Sleep(time.Duration(float64(s.simLatency) * factor))
		}
		// Flush when no further pipelined command is buffered.
		s.execute(args, w)
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

// readCommand parses one RESP command (array of bulk strings) or an inline
// command (space-separated line).
func readCommand(r *bufio.Reader) ([]string, error) {
	line, err := readLine(r)
	if err != nil {
		return nil, err
	}
	if len(line) == 0 {
		return nil, errors.New("kvstore: empty command")
	}
	if line[0] != '*' {
		return strings.Fields(line), nil
	}
	n, err := strconv.Atoi(line[1:])
	if err != nil || n < 0 || n > maxArrayLen {
		return nil, fmt.Errorf("kvstore: bad array header %q", line)
	}
	args := make([]string, 0, n)
	for i := 0; i < n; i++ {
		hdr, err := readLine(r)
		if err != nil {
			return nil, err
		}
		if len(hdr) == 0 || hdr[0] != '$' {
			return nil, fmt.Errorf("kvstore: expected bulk string, got %q", hdr)
		}
		ln, err := strconv.Atoi(hdr[1:])
		if err != nil || ln < 0 || ln > maxBulkLen {
			return nil, fmt.Errorf("kvstore: bad bulk length %q", hdr)
		}
		buf := make([]byte, ln+2)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		args = append(args, string(buf[:ln]))
	}
	return args, nil
}

func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

// execute runs one command, writing the RESP reply to w. It peels the FENCE
// prefix, consults the standby gate, and routes mutations through the
// replicator when one is attached; dispatch does the actual work.
func (s *Server) execute(args []string, w *bufio.Writer) {
	if len(args) == 0 {
		writeError(w, "empty command")
		return
	}
	s.opsServed.Add(1)
	cmd := strings.ToUpper(args[0])
	// "FENCE <leaseKey> <epoch>" prefixes a command with the writer's lease
	// epoch (see Client.SetFence). The command proceeds only while that epoch
	// is still the key's newest grant, so a deposed leader's stragglers are
	// rejected instead of corrupting the new leader's state.
	if cmd == "FENCE" {
		if len(args) < 4 {
			writeError(w, "wrong number of arguments for 'fence'")
			return
		}
		epoch, err := strconv.ParseInt(args[2], 10, 64)
		if err != nil {
			writeError(w, "fence epoch is not an integer")
			return
		}
		if msg := s.leases.checkFence(args[1], epoch); msg != "" {
			writeRawError(w, msg)
			return
		}
		args = args[3:]
		cmd = strings.ToUpper(args[0])
	}
	s.metrics.command(cmd)
	if gb := s.gate.Load(); gb != nil && gb.f != nil {
		if msg := gb.f(cmd); msg != "" {
			writeRawError(w, msg)
			return
		}
	}
	if rb := s.repl.Load(); rb != nil && rb.r != nil && Mutates(cmd) {
		s.executeReplicated(rb.r, cmd, args, w)
		return
	}
	s.dispatch(cmd, args, w)
}

// dispatch runs one command, writing the RESP reply to w. The returned
// logArgs override what the replication layer appends to its log: nil means
// "log the original args"; lease grants return a canonical absolute-deadline
// form so standbys replay the same outcome regardless of when they apply it.
func (s *Server) dispatch(cmd string, args []string, w *bufio.Writer) (logArgs []string) {
	switch cmd {
	case "PING":
		writeSimple(w, "PONG")
	case "SET":
		if !arity(w, args, 3) {
			return
		}
		sh := s.shardOf(args[1])
		sh.mu.Lock()
		sh.m[args[1]] = &entry{kind: "string", str: args[2]}
		sh.mu.Unlock()
		writeSimple(w, "OK")
	case "GET":
		if !arity(w, args, 2) {
			return
		}
		sh := s.shardOf(args[1])
		sh.mu.RLock()
		e := sh.m[args[1]]
		sh.mu.RUnlock()
		if e == nil || e.kind != "string" {
			writeNil(w)
			return
		}
		writeBulk(w, e.str)
	case "DEL":
		if len(args) < 2 {
			writeError(w, "wrong number of arguments for 'del'")
			return
		}
		var n int64
		for _, key := range args[1:] {
			sh := s.shardOf(key)
			sh.mu.Lock()
			if _, ok := sh.m[key]; ok {
				delete(sh.m, key)
				n++
			}
			sh.mu.Unlock()
		}
		writeInt(w, n)
	case "HSET":
		if !arity(w, args, 4) {
			return
		}
		sh := s.shardOf(args[1])
		sh.mu.Lock()
		e := sh.m[args[1]]
		if e == nil || e.kind != "hash" {
			e = &entry{kind: "hash", hash: make(map[string]string)}
			sh.m[args[1]] = e
		}
		_, existed := e.hash[args[2]]
		e.hash[args[2]] = args[3]
		sh.mu.Unlock()
		if existed {
			writeInt(w, 0)
		} else {
			writeInt(w, 1)
		}
	case "HGET":
		if !arity(w, args, 3) {
			return
		}
		sh := s.shardOf(args[1])
		sh.mu.RLock()
		e := sh.m[args[1]]
		var v string
		var ok bool
		if e != nil && e.kind == "hash" {
			v, ok = e.hash[args[2]]
		}
		sh.mu.RUnlock()
		if !ok {
			writeNil(w)
			return
		}
		writeBulk(w, v)
	case "HGETALL":
		if !arity(w, args, 2) {
			return
		}
		sh := s.shardOf(args[1])
		sh.mu.RLock()
		e := sh.m[args[1]]
		var fields []string
		if e != nil && e.kind == "hash" {
			for f, v := range e.hash {
				fields = append(fields, f, v)
			}
		}
		sh.mu.RUnlock()
		// Deterministic field order for testability.
		sortPairs(fields)
		w.WriteString("*" + strconv.Itoa(len(fields)) + "\r\n")
		for _, f := range fields {
			writeBulk(w, f)
		}
	case "KEYS":
		// "*" and a trailing-star prefix ("shard/2/*") are supported — the
		// full wildcard for debugging, the prefix form for resharding scans.
		// Anything fancier is rejected (production Redis discourages KEYS
		// anyway).
		if !arity(w, args, 2) {
			return
		}
		pat := args[1]
		if !strings.HasSuffix(pat, "*") || strings.ContainsAny(pat[:len(pat)-1], "*?[") {
			writeError(w, "only KEYS * or a trailing-star prefix is supported")
			return
		}
		prefix := pat[:len(pat)-1]
		var keys []string
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.RLock()
			for key := range sh.m {
				if strings.HasPrefix(key, prefix) {
					keys = append(keys, key)
				}
			}
			sh.mu.RUnlock()
		}
		sort.Strings(keys)
		w.WriteString("*" + strconv.Itoa(len(keys)) + "\r\n")
		for _, k := range keys {
			writeBulk(w, k)
		}
	case "HCOPY":
		// HCOPY src dst: replace dst with a snapshot of the src hash and
		// return the field count (0 deletes nothing and copies nothing — a
		// missing src is not an error, so migration scans can race a DEL).
		// The resharding coordinator's bulk copy rides on this so a key moves
		// in one fenced round trip instead of HGETALL+N×HSET.
		if !arity(w, args, 3) {
			return
		}
		src := s.shardOf(args[1])
		src.mu.RLock()
		e := src.m[args[1]]
		var snap map[string]string
		if e != nil && e.kind == "hash" {
			snap = make(map[string]string, len(e.hash))
			for f, v := range e.hash {
				snap[f] = v
			}
		}
		src.mu.RUnlock()
		if len(snap) == 0 {
			writeInt(w, 0)
			return
		}
		// Snapshot under the source lock, write under the destination lock:
		// the two may be the same internal shard, so nesting would deadlock.
		dst := s.shardOf(args[2])
		dst.mu.Lock()
		dst.m[args[2]] = &entry{kind: "hash", hash: snap}
		dst.mu.Unlock()
		writeInt(w, int64(len(snap)))
	case "FLUSHALL":
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.Lock()
			sh.m = make(map[string]*entry)
			sh.mu.Unlock()
		}
		s.leases.clear()
		writeSimple(w, "OK")
	case "SETLEASE", "GETLEASE", "DELLEASE", "LEASEGRANT", "LEASEDEL":
		return s.leases.dispatch(cmd, args, w)
	default:
		writeError(w, "unknown command '"+args[0]+"'")
	}
	return nil
}

// sortPairs sorts a flat field/value list by field, keeping pairs together.
func sortPairs(pairs []string) {
	n := len(pairs) / 2
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return pairs[2*idx[a]] < pairs[2*idx[b]] })
	out := make([]string, 0, len(pairs))
	for _, i := range idx {
		out = append(out, pairs[2*i], pairs[2*i+1])
	}
	copy(pairs, out)
}

func arity(w *bufio.Writer, args []string, want int) bool {
	if len(args) != want {
		writeError(w, "wrong number of arguments for '"+strings.ToLower(args[0])+"'")
		return false
	}
	return true
}

func writeSimple(w *bufio.Writer, s string) { w.WriteString("+" + s + "\r\n") }
func writeError(w *bufio.Writer, s string)  { w.WriteString("-ERR " + s + "\r\n") }

// writeRawError writes an error reply verbatim (no ERR prefix), for
// protocol-level codes clients parse: "MOVED <addr>", "FENCED ...",
// "LEASEHELD <owner> <ms>", "REPLWAIT ...".
func writeRawError(w *bufio.Writer, s string) { w.WriteString("-" + s + "\r\n") }
func writeInt(w *bufio.Writer, n int64)       { w.WriteString(":" + strconv.FormatInt(n, 10) + "\r\n") }
func writeNil(w *bufio.Writer)                { w.WriteString("$-1\r\n") }
func writeBulk(w *bufio.Writer, s string) {
	w.WriteString("$" + strconv.Itoa(len(s)) + "\r\n")
	w.WriteString(s)
	w.WriteString("\r\n")
}
