// Package replica adds primary/standby replication and failover to the
// kvstore server, modeled on the semi-synchronous designs conferencing
// control planes lean on (the paper's controller assumes a durable Azure
// Redis; ADS argues the control plane itself must recover dynamically).
//
// The primary sequences every mutation into a bounded log and streams it to
// standbys over the store's own RESP wire protocol (REPLSYNC / ENTRY /
// REPLACK frames). A standby that is too far behind catches up from a
// snapshot, then tails the log. Under the default AckStandby policy a write
// is acked to the client only once the standby holds it, so a promoted
// standby is guaranteed to contain every acked write. The standby detects
// primary silence (heartbeats stop — crash or partition alike) and promotes
// itself: the mutation gate lifts, a fresh Primary attaches to the local
// server, and clients that followed its MOVED redirects or failover dials
// carry on. Leadership of the *controllers* is layered above this with TTL
// leases and fencing epochs (see internal/kvstore lease.go and
// internal/controller lease.go).
package replica

import (
	"sync"
)

// Entry is one sequenced mutation.
type Entry struct {
	Seq  uint64
	Args []string
}

// Log is the bounded in-memory replication log: a ring of at most cap
// entries holding sequences base..last, where sequence s sits at
// ring[(head+s-base)%len(ring)]. Once full, an append overwrites the oldest
// entry in place; a standby whose resume point has been overwritten falls
// back to a snapshot.
type Log struct {
	mu      sync.Mutex
	ring    []Entry // guarded by mu; grows to cap, then is overwritten in place
	head    int     // guarded by mu; ring index of base
	base    uint64  // guarded by mu; oldest retained seq (last+1 when empty)
	last    uint64  // guarded by mu; highest appended seq (0 before first)
	cap     int
	changed chan struct{} // guarded by mu; closed and replaced on append
}

// NewLog returns an empty log retaining at most capacity entries.
func NewLog(capacity int) *Log { return NewLogAt(0, capacity) }

// NewLogAt returns an empty log whose next append gets sequence last+1 — a
// promoted standby continues the sequence space it replicated, so later
// standbys attach with their positions intact.
func NewLogAt(last uint64, capacity int) *Log {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &Log{base: last + 1, last: last, cap: capacity, changed: make(chan struct{})}
}

// Append adds one mutation and returns its sequence number.
func (l *Log) Append(args []string) uint64 {
	l.mu.Lock()
	l.last++
	e := Entry{Seq: l.last, Args: args}
	if len(l.ring) < l.cap {
		l.ring = append(l.ring, e)
	} else {
		l.ring[l.head] = e
		l.head = (l.head + 1) % l.cap
		l.base++
	}
	seq := l.last
	close(l.changed)
	l.changed = make(chan struct{})
	l.mu.Unlock()
	return seq
}

// Last returns the highest appended sequence (0 before the first append).
func (l *Log) Last() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// CanResumeFrom reports whether a standby that has applied everything up to
// and including from can tail the log without a snapshot: every entry after
// from must still be retained, and from must not be ahead of this log (a
// position from a divergent history).
func (l *Log) CanResumeFrom(from uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return from <= l.last && from+1 >= l.base
}

// From returns up to limit retained entries with Seq > from (a copy; limit
// <= 0 means no limit).
func (l *Log) From(from uint64, limit int) []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	first := max(from+1, l.base)
	if first > l.last {
		return []Entry{}
	}
	n := int(l.last - first + 1)
	if limit > 0 && n > limit {
		n = limit
	}
	out := make([]Entry, n)
	i := (l.head + int(first-l.base)) % len(l.ring)
	k := copy(out, l.ring[i:])
	copy(out[k:], l.ring)
	return out
}

// Changed returns a channel closed on the next append, for tailers to block
// on.
func (l *Log) Changed() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.changed
}
