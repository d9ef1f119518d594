// Resharding support: the controller-side primitives live resharding rides
// on. The shard.Coordinator moves persisted call state between shard key
// prefixes; the controller's part is (1) an atomic drain-and-ack so the
// coordinator knows every write this leadership accepted has landed, (2)
// single-call recovery with an old-prefix fallback for the cutover window's
// double reads, (3) eviction of calls whose ownership moved away, and (4) a
// recovery filter so a source shard's leader stops resurrecting moved calls
// from retired keys.

package controller

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"switchboard/internal/model"
	"switchboard/internal/obs/span"
)

// AckHandoff drains the write-behind journal and, with the store healthy and
// the journal empty, writes this leadership's lease epoch under ackKey — all
// under storeMu, so the drain and the ack are atomic with respect to every
// persist. Combined with the manager's moved-write gate this is the
// journal-handoff barrier: any call-state write accepted before the hold
// flipped has either landed or sits in the journal this call flushes, and the
// ack itself rides the armed fence, so a deposed leader's ack is rejected
// instead of green-lighting a delta copy over state it no longer owns.
//
//sblint:fencepath
func (c *Controller) AckHandoff(ctx context.Context, ackKey string, epoch int64) error {
	if c.store == nil {
		return fmt.Errorf("controller: no store to ack handoff on")
	}
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	if c.degraded {
		c.lastProbe = time.Now()
		if err := c.store.PingContext(ctx); err != nil {
			return err
		}
		c.replayLocked(ctx)
		if c.degraded {
			return fmt.Errorf("controller: journal not drained; store lost mid-handoff")
		}
	}
	return c.store.SetContext(ctx, ackKey, strconv.FormatInt(epoch, 10))
}

// SetRecoverFilter installs a predicate gating which persisted calls
// RecoverCalls re-admits; nil admits everything. The shard manager points it
// at the current ring, so after a reshard a source shard's next leader skips
// the moved calls still sitting under its retired keys instead of
// resurrecting conferences it no longer owns.
func (c *Controller) SetRecoverFilter(admit func(id uint64) bool) {
	c.mu.Lock()
	c.recoverOK = admit
	c.mu.Unlock()
}

// RecoverCall re-admits one persisted call, preferring this controller's own
// prefix and falling back to altPrefix (the pre-cutover owner's namespace)
// when the call is unknown there. When the state is found only under the
// fallback it is first copied forward into this controller's prefix — the
// fenced HCOPY makes the recovery durable, so the retired key can be garbage
// collected without losing the call. Returns whether the call is live in
// memory after the attempt. Already-known calls return true without touching
// the store; this is the cutover window's double-read.
//
//sblint:fencepath
func (c *Controller) RecoverCall(ctx context.Context, id uint64, altPrefix string) (bool, error) {
	c.mu.Lock()
	_, known := c.calls[id]
	c.mu.Unlock()
	if known {
		return true, nil
	}
	if c.store == nil {
		return false, nil
	}
	ctx, sp := span.Child(ctx, "controller.recover_call")
	if sp != nil {
		defer sp.End()
	}
	ownKey := CallKey(c.keyPrefix, id)

	c.storeMu.Lock()
	h, err := c.store.HGetAllContext(ctx, ownKey)
	if err != nil {
		c.storeMu.Unlock()
		return false, err
	}
	if len(h) == 0 && altPrefix != "" && altPrefix != c.keyPrefix {
		altKey := CallKey(altPrefix, id)
		if h, err = c.store.HGetAllContext(ctx, altKey); err != nil {
			c.storeMu.Unlock()
			return false, err
		}
		if len(h) > 0 && h["state"] != "ended" {
			// Copy the stray state forward under this leadership's fence so
			// the double read happens once, not on every request.
			if _, err = c.store.HCopyContext(ctx, altKey, ownKey); err != nil {
				c.storeMu.Unlock()
				return false, err
			}
		}
	}
	c.storeMu.Unlock()

	st, ok := c.recoveredState(h)
	if !ok {
		return false, nil
	}
	c.mu.Lock()
	if _, dup := c.calls[id]; !dup {
		c.calls[id] = st
		c.metrics.ActiveCalls.Add(1)
	}
	c.mu.Unlock()
	return true, nil
}

// recoveredState parses a persisted call-state hash into the state a
// recovered call resumes with: its recorded DC, frozen with its recorded
// config when one was persisted. ok is false for an absent or ended call and
// for a record naming no valid DC.
func (c *Controller) recoveredState(h map[string]string) (*callState, bool) {
	if len(h) == 0 || h["state"] == "ended" {
		return nil, false
	}
	dc, err := strconv.Atoi(h["dc"])
	if err != nil || dc < 0 || dc >= len(c.world.DCs()) {
		return nil, false
	}
	st := &callState{dc: dc}
	if key := h["config"]; key != "" {
		if cfg, err := model.ParseConfigKey(key); err == nil {
			st.frozen, st.cfg = true, cfg
		}
	}
	return st, true
}

// EvictCalls drops every in-memory call matching evict, releasing planned
// slots back to the plan. Nothing is persisted and no end transition is
// recorded: the calls are not over, their ownership moved to another shard,
// whose leader recovered them from the copied state. Returns how many calls
// were evicted.
func (c *Controller) EvictCalls(evict func(id uint64) bool) int {
	c.mu.Lock()
	var n int
	for id, st := range c.calls {
		if !evict(id) {
			continue
		}
		delete(c.calls, id)
		if st.planned && c.placer != nil {
			c.placer.Release(st.cfg, st.slot, st.dc)
		}
		n++
	}
	c.mu.Unlock()
	if n > 0 {
		c.metrics.ActiveCalls.Add(float64(-n))
	}
	return n
}

// Knows reports whether the controller has the call in memory.
func (c *Controller) Knows(id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.calls[id]
	return ok
}
