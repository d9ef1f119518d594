package kvstore

import (
	"errors"
	"fmt"
	"time"
)

// DefaultLeaseTTL is the default leadership lease duration. A follower takes
// over within one TTL of the leader's last renewal, so this bounds the
// leaderless window after a controller crash.
const DefaultLeaseTTL = 3 * time.Second

// Timing is every store, replication and lease deadline, derived from one
// lease TTL by TimingFor: computed, not configured. The zero-value defaults
// of Options, the replica options, controller.Config and shard.Config read
// TimingFor(DefaultLeaseTTL); cmd/switchboard builds all of them from
// TimingFor(-lease-ttl). DESIGN.md "Timing" tabulates it.
type Timing struct {
	TTL, Renew time.Duration // the lease and its renewal interval
	// DialTimeout through BackoffMax are the store client's Options.
	DialTimeout, IOTimeout time.Duration
	MaxRetries             int
	BackoffMin, BackoffMax time.Duration
	// AckTimeout bounds a replicated write's wait for the standby's ack;
	// Heartbeat paces the primary's idle-stream pings; SyncTimeout is the
	// standby's per-read deadline; FailoverTimeout is the primary silence
	// after which the standby promotes itself.
	AckTimeout, Heartbeat, SyncTimeout, FailoverTimeout time.Duration
	// EpochPoll paces a sharded node's ring-epoch reads.
	EpochPoll time.Duration
}

// minIOTimeout is the shortest store I/O timeout Validate accepts: below a
// few loopback round trips under load, every write would time out, poison
// its connection and fail its request.
const minIOTimeout = 10 * time.Millisecond

// TimingFor derives every deadline from the lease TTL as a fraction of the
// renew interval TTL/3, so the relations Validate checks hold at any TTL
// whose I/O timeout clears minIOTimeout. At 3 s the ack timeout (200 ms) is
// two heartbeats, so a write that waits out a heartbeat stall still acks,
// and the I/O timeout (300 ms) outlasts the ack wait; DESIGN.md "Timing"
// lists the measured tails each value clears.
func TimingFor(ttl time.Duration) Timing {
	r := ttl / 3
	return Timing{
		TTL: ttl, Renew: r,
		DialTimeout: r / 20, IOTimeout: 3 * r / 10, MaxRetries: 1, BackoffMin: r / 20, BackoffMax: 2 * r,
		AckTimeout: r / 5, Heartbeat: r / 10, SyncTimeout: 3 * r / 10, FailoverTimeout: 2 * r,
		EpochPoll: r / 4,
	}
}

// Client returns the store-client Options t sets, jittered by seed.
func (t Timing) Client(seed int64) Options {
	return Options{DialTimeout: t.DialTimeout, IOTimeout: t.IOTimeout, MaxRetries: t.MaxRetries,
		BackoffMin: t.BackoffMin, BackoffMax: t.BackoffMax, Seed: seed}
}

// storeCallBudget is the longest one store command takes on a dead path
// without a context deadline: each attempt dials one address and waits out
// the I/O timeout, each retry first sleeps its backoff at +25% jitter.
func (t Timing) storeCallBudget() time.Duration {
	budget := time.Duration(t.MaxRetries+1) * (t.DialTimeout + t.IOTimeout)
	for i, step := 0, t.BackoffMin; i < t.MaxRetries; i, step = i+1, step*2 {
		budget += min(step, t.BackoffMax) * 5 / 4
	}
	return budget
}

// Takeover bounds how long a silently partitioned HA primary leaves its
// shard leaderless: the later of the standby's promotion (failover timeout
// plus one sync read) and the old grant's lapse, then one renew interval to
// start the follower's next attempt and one to finish it.
func (t Timing) Takeover() time.Duration {
	return max(t.FailoverTimeout+t.SyncTimeout, t.TTL) + 2*t.Renew
}

// Validate reports every relation between the values that does not hold,
// one error naming each.
func (t Timing) Validate() error {
	var errs []error
	for _, rule := range []struct {
		name string
		ok   bool
	}{
		{"positive values", t.DialTimeout > 0 && t.MaxRetries >= 0 &&
			t.BackoffMin > 0 && t.Heartbeat > 0 && t.EpochPoll > 0},
		{"I/O floor: kv I/O timeout >= 10ms", t.IOTimeout >= minIOTimeout},
		{"renew interval: 3 x renew <= TTL", 3*t.Renew <= t.TTL},
		{"renewal budget: store call budget <= renew", t.storeCallBudget() <= t.Renew},
		{"backoff bounds: min <= max", t.BackoffMin <= t.BackoffMax},
		{"ack timeout: ack < kv I/O timeout", t.AckTimeout < t.IOTimeout},
		{"ack over heartbeat: 2 x heartbeat <= ack", 2*t.Heartbeat <= t.AckTimeout},
		{"sync timeout: heartbeat < sync read deadline < failover", t.Heartbeat < t.SyncTimeout && t.SyncTimeout < t.FailoverTimeout},
		{"failover timeout: 10 x heartbeat <= failover", 10*t.Heartbeat <= t.FailoverTimeout},
	} {
		if !rule.ok {
			errs = append(errs, fmt.Errorf("kvstore: timing breaks %q", rule.name))
		}
	}
	if len(errs) > 0 {
		errs = append(errs, fmt.Errorf("kvstore: timing was %+v", t))
	}
	return errors.Join(errs...)
}
