package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"switchboard/internal/kvstore"
	"switchboard/internal/obs"
	"switchboard/internal/shard"
)

// Routing headers for the sharded control plane.
const (
	// HopsHeader counts how many nodes have forwarded a request; it bounds
	// forward chains when ownership hints are stale fleet-wide.
	HopsHeader = "X-Switchboard-Hops"
	// ShardLeaderHeader carries the owning shard leader's address on 307
	// redirects and routing 503s, so clients can re-aim without re-probing.
	ShardLeaderHeader = "X-Switchboard-Shard-Leader"
	// ShardHeader carries the shard the request's conference ID maps to.
	ShardHeader = "X-Switchboard-Shard"
	// PrevShardLeaderHeader carries the pre-cutover owner's leader during a
	// reshard's double-read window: a client chasing a 307 can fall back to
	// the old owner if the new one has not finished recovering the call.
	PrevShardLeaderHeader = "X-Switchboard-Shard-Leader-Prev"
)

// Forwarding defaults, sized like the kvstore MOVED-following client: a few
// bounded, jittered attempts that together stay within the lease's renew
// interval (see forward).
const (
	// DefaultMaxHops bounds node-to-node forward chains.
	DefaultMaxHops = 3
	// DefaultForwardAttempts bounds per-request forward attempts on this node.
	DefaultForwardAttempts = 3
	// forwardBackoffBase seeds the jittered exponential backoff between
	// attempts.
	forwardBackoffBase = 25 * time.Millisecond
)

// ShardRouter steers call-control requests to the shard that owns their
// conference ID. Requests for locally-led shards are served in place; for the
// rest the router either proxies to the owner (Forward) or degrades to
// routing hints — a 307 with ShardLeaderHeader when the owner is known, a
// Retry-After 503 when it is not. A non-owning node therefore keeps serving
// reads and routing instead of 503ing the world.
type ShardRouter struct {
	// Manager supplies the ring, local ownership, and per-shard leader hints.
	Manager *shard.Manager
	// Forward enables server-side proxying to the owner; when false every
	// non-local request answers with a redirect or routing 503.
	Forward bool
	// Peers lists the other nodes' API addresses. When a shard's leader is
	// unknown (fresh boot, hint lost with a crashed elector), forwarding
	// falls back to round-robining the peers — whoever receives it either
	// owns the shard or knows more than we do, and the hop bound caps the
	// walk.
	Peers []string

	rng atomic.Uint32 // xorshift state for backoff jitter
}

// forwardClient issues forwarded requests. It has no global timeout (the
// forward's context carries the deadline), and forwarded 307s bounce back
// to the caller instead of being chased server-side: following here would
// defeat the hop bound.
var forwardClient = &http.Client{
	CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
}

// backoff mirrors the kvstore client's retry pacing: exponential from the
// base with ±25% xorshift jitter so a fleet of routers chasing one moved
// shard doesn't thunder in lockstep.
func (rt *ShardRouter) backoff(attempt int) time.Duration {
	d := forwardBackoffBase << attempt
	s := rt.rng.Load()
	if s == 0 {
		s = uint32(time.Now().UnixNano()) | 1
	}
	s ^= s << 13
	s ^= s >> 17
	s ^= s << 5
	rt.rng.Store(s)
	jitter := (int64(s%511) - 255) * int64(d) / 1024 // ±25%
	return d + time.Duration(jitter)
}

// ownerHint returns the last observed leader of a shard, "" when unknown or
// when the hint points at this very node (which is not the owner, or the
// request would have been served locally).
func (rt *ShardRouter) ownerHint(sh int) string {
	hint := rt.Manager.OwnerHint(sh)
	if hint == rt.Manager.ID() {
		return ""
	}
	return hint
}

// peerFallback picks a forward target when no owner hint exists, rotating
// through the configured peers (skipping this node) across attempts.
func (rt *ShardRouter) peerFallback(attempt int) string {
	self := rt.Manager.ID()
	n := len(rt.Peers)
	for i := 0; i < n; i++ {
		p := rt.Peers[(attempt+i)%n]
		if p != "" && p != self {
			return p
		}
	}
	return ""
}

// retryAfterSecs renders a duration as a Retry-After value: whole seconds,
// rounded up, at least 1.
func retryAfterSecs(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// relay handles a call-control request whose shard this node does not lead.
// A request that already burned its hop budget gets a typed 503 instead of
// another bounce: when ownership hints are stale fleet-wide (mid-failover,
// mid-reshard), forward chains would otherwise walk in circles.
func (rt *ShardRouter) relay(d shard.RouteDecision, body []byte, w http.ResponseWriter, r *http.Request) {
	hops, _ := strconv.Atoi(r.Header.Get(HopsHeader))
	if hops >= DefaultMaxHops {
		rt.hopsExhausted(d.Shard, w)
		return
	}
	if rt.Forward && rt.forward(d.Shard, hops, body, w, r) {
		return
	}
	rt.hintResponse(d, w, r)
}

// hopsExhausted answers the typed proxy-hop-budget 503: Retry-After from the
// lease TTL (ownership settles within one), StandbyHeader so a routing
// refusal does not burn the availability SLO, and a machine-readable reason
// so clients and drills can tell it from a standby or degraded 503.
func (rt *ShardRouter) hopsExhausted(sh int, w http.ResponseWriter) {
	if m := rt.Manager.Metrics(); m != nil {
		m.ProxyHopsExhausted.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(obs.StandbyHeader, "1")
	w.Header().Set("Retry-After", retryAfterSecs(rt.Manager.TTL()))
	w.WriteHeader(http.StatusServiceUnavailable)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"shard": sh, "reason": "proxy hop budget exhausted",
	})
}

// heldResponse answers a write paused by the journal-handoff barrier: the
// key is mid-move and its source shard is draining. The pause lasts well
// under a second on a healthy fleet, so Retry-After is the minimum; the
// write was never admitted, so the client retry loses nothing.
func (rt *ShardRouter) heldResponse(d shard.RouteDecision, w http.ResponseWriter) {
	if m := rt.Manager.Metrics(); m != nil {
		m.HandoffHeld.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(obs.StandbyHeader, "1")
	w.Header().Set("Retry-After", "1")
	w.WriteHeader(http.StatusServiceUnavailable)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"shard": d.Shard, "reason": "write held: key migrating (journal handoff)",
	})
}

// hintResponse degrades to routing information: 307 + leader hint when the
// owner is known, else a Retry-After 503 bounded by the lease TTL (ownership
// settles within one). Both carry obs.StandbyHeader — correct routing by a
// non-owner is not an outage, so it must not burn the availability SLO.
// During a cutover's double-read window the 307 also names the pre-cutover
// owner's leader, so a client that strikes out on the new owner has the
// fallback in hand.
func (rt *ShardRouter) hintResponse(d shard.RouteDecision, w http.ResponseWriter, r *http.Request) {
	sh := d.Shard
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(obs.StandbyHeader, "1")
	w.Header().Set("Retry-After", retryAfterSecs(rt.Manager.TTL()))
	if d.DoubleRead && d.OldShard >= 0 {
		if prev := rt.Manager.OwnerHint(d.OldShard); prev != "" {
			w.Header().Set(PrevShardLeaderHeader, prev)
		} else if rt.Manager.Owns(d.OldShard) {
			w.Header().Set(PrevShardLeaderHeader, rt.Manager.ID())
		}
	}
	if hint := rt.ownerHint(sh); hint != "" {
		w.Header().Set(ShardLeaderHeader, hint)
		w.Header().Set("Location", "http://"+hint+r.URL.RequestURI())
		w.WriteHeader(http.StatusTemporaryRedirect) // 307 preserves method+body
		_ = json.NewEncoder(w).Encode(map[string]any{
			"shard": sh, "leader": hint, "reason": "not shard owner",
		})
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"shard": sh, "reason": "shard leader unknown",
	})
}

// forward proxies the request to the shard's owner, re-resolving the hint
// and backing off between attempts; it reports whether a response (any
// response) was relayed to the caller. A 503 standby answer from a node that
// just lost the shard is retried — ownership is moving and the next hint
// resolution usually lands on the new owner.
//
// The attempts and backoffs share one deadline, forwardDeadline(TTL). An
// attempt that fails fast leaves the rest of it to the next one; one whose
// owner never answers ends the forward at the deadline instead of being
// retried, which would also repeat a write the owner may have applied.
func (rt *ShardRouter) forward(sh, hops int, body []byte, w http.ResponseWriter, r *http.Request) bool {
	ctx, cancel := context.WithTimeout(r.Context(), forwardDeadline(rt.Manager.TTL()))
	defer cancel()
	for a := 0; a < DefaultForwardAttempts; a++ {
		if a > 0 {
			select {
			case <-ctx.Done():
				return false
			case <-time.After(rt.backoff(a - 1)):
			}
		}
		hint := rt.ownerHint(sh)
		if hint == "" {
			hint = rt.peerFallback(a)
		}
		if hint == "" {
			continue
		}
		retriable := a+1 < DefaultForwardAttempts
		if done, relayed := rt.forwardOnce(ctx, hint, hops, body, w, r, retriable); done {
			return relayed
		}
	}
	return false
}

// forwardDeadline bounds one forward, all attempts and backoffs: two renew
// intervals of the lease TTL. A live owner's worst case is one call-state
// write that waits out the store-call budget (at most one renew interval, by
// kvstore's Timing.Validate) before its controller degrades and journals the
// rest without waiting, so the owner's answer arrives with a renew interval
// to spare. An owner that never answers is given up on within the TTL, the
// time ownership takes to settle, and the caller gets a routing hint.
func forwardDeadline(ttl time.Duration) time.Duration {
	return 2 * kvstore.TimingFor(ttl).Renew
}

// forwardOnce issues one proxied attempt under the forward's context.
// done=false means "retry" (transport error, or a retriable standby 503);
// done=true means the attempt concluded — relayed tells whether a response
// went to the caller.
func (rt *ShardRouter) forwardOnce(ctx context.Context, hint string, hops int, body []byte, w http.ResponseWriter, r *http.Request, retriable bool) (done, relayed bool) {
	req, err := http.NewRequestWithContext(ctx, r.Method, "http://"+hint+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return true, false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HopsHeader, strconv.Itoa(hops+1))
	resp, err := forwardClient.Do(req)
	if err != nil {
		if r.Context().Err() != nil {
			return true, false // caller gone; nothing to relay to
		}
		return false, false
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get(obs.StandbyHeader) != "" && retriable {
		return false, false
	}
	for _, h := range []string{"Content-Type", "Retry-After", "Location", ShardLeaderHeader, PrevShardLeaderHeader, ShardHeader, obs.StandbyHeader} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, io.LimitReader(resp.Body, maxRequestBody))
	return true, true
}
