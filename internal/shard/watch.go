// The ring-epoch watcher: each Manager polls the stored EpochState and
// derives its routing view from it — growing its shard set when the epoch
// names a wider ring, flipping write holds at journal-handoff, double-reading
// through cutover, and evicting moved calls once the fleet is stable on the
// target ring. All of a node's reshard participation happens here; the
// coordinator only ever writes store state, so any node that can read the
// store converges without talking to the coordinator.

package shard

import (
	"context"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/kvstore"
)

// phaseOrd maps a reshard phase onto the sb_shard_reshard_phase gauge.
func phaseOrd(phase string) float64 {
	switch phase {
	case PhasePrepare:
		return 1
	case PhaseCopy:
		return 2
	case PhaseHandoff:
		return 3
	case PhaseCutover:
		return 4
	default:
		return 0
	}
}

// watchLoop re-reads the ring epoch every EpochPoll of the lease TTL's
// timing until Stop: a node's routing is at most that stale during a
// reshard, which phases tolerate (a stale router's writes land on a leader
// that re-checks its own view).
func (m *Manager) watchLoop() {
	defer close(m.watchDone)
	t := time.NewTicker(kvstore.TimingFor(m.cfg.TTL).EpochPoll)
	defer t.Stop()
	for {
		select {
		case <-m.watchStop:
			return
		case <-t.C:
			m.mu.Lock()
			stopped := m.stopped
			m.mu.Unlock()
			if stopped {
				return
			}
			m.pollEpoch()
		}
	}
}

// pollEpoch makes one watch pass: read the fleet's EpochState, reconcile the
// routing view, mirror the coordinator's checkpoint for progress reporting,
// and during journal-handoff ack the source shards this node leads. Also
// called synchronously from lead(), so a fresh shard leader
// serves its first write from the fleet's current view, never a stale one.
func (m *Manager) pollEpoch() {
	m.watchMu.Lock()
	defer m.watchMu.Unlock()
	if m.watch == nil {
		return // no watch store configured: the boot ring is the serving ring
	}
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.TTL)
	defer cancel()
	es, ok, err := LoadEpoch(ctx, m.watch)
	if err != nil {
		if m.cfg.Logger != nil {
			m.cfg.Logger.Warn("ring-epoch poll failed", "err", err)
		}
		return
	}
	if !ok {
		return // no epoch stored yet: the boot ring is the serving ring
	}
	m.applyEpoch(es)

	if es.Phase == PhaseStable {
		m.mu.Lock()
		m.progress = nil
		m.mu.Unlock()
		m.cfg.Metrics.reshardGauges(0, 0)
		return
	}
	if st, stOK, stErr := LoadReshard(ctx, m.watch); stErr == nil && stOK {
		m.mu.Lock()
		m.progress = &st
		m.mu.Unlock()
		m.cfg.Metrics.reshardGauges(float64(st.Copied), float64(st.Total))
	}
	if es.Phase == PhaseHandoff {
		m.ackHandoffs(ctx, es)
	}
}

// applyEpoch reconciles the routing view with an observed EpochState and
// runs the transition actions the phase change demands. Idempotent: a state
// equal to the current view is a no-op, so the poll loop can call it every
// tick.
func (m *Manager) applyEpoch(es EpochState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.route.Load()
	if cur.epoch == es.Epoch && cur.phase == es.Phase && cur.ring.Shards() == es.Shards {
		return
	}

	// Grow before routing: a view is only publishable once every shard it
	// can name has a controller and an elector racing.
	width := es.Shards
	if es.TargetShards > width {
		width = es.TargetShards
	}
	if !m.ensureShardsLocked(width) {
		return // growth impossible (no factory / dial failure); keep the old view
	}

	next := &routeState{epoch: es.Epoch, phase: es.Phase}
	next.ring = m.ringFor(cur, es.Shards, es.VNodes)
	if next.ring == nil {
		return
	}
	switch {
	case es.Phase == PhaseCutover && es.PrevShards > 0:
		if next.prev = m.ringFor(cur, es.PrevShards, es.VNodes); next.prev == nil {
			return
		}
	case es.Phase == PhasePrepare || es.Phase == PhaseCopy || es.Phase == PhaseHandoff:
		if es.TargetShards > 0 {
			if next.next = m.ringFor(cur, es.TargetShards, es.VNodes); next.next == nil {
				return
			}
		}
	}
	m.route.Store(next)
	m.cfg.Metrics.ringEpochGauge().Set(float64(es.Epoch))
	m.cfg.Metrics.phaseGauge().Set(phaseOrd(es.Phase))
	if m.cfg.Logger != nil {
		m.cfg.Logger.Info("ring epoch applied", "epoch", es.Epoch, "phase", es.Phase,
			"shards", es.Shards, "target", es.TargetShards)
	}

	switch es.Phase {
	case PhaseCutover:
		// Moved keys now live under the new owners' prefixes; a new-shard
		// leader that won its lease mid-copy recovered nothing, so rebuild.
		for s := range m.owned {
			if s >= es.PrevShards && s < len(m.ctrls) {
				go m.recoverShard(s)
			}
		}
	case PhaseStable:
		switch {
		case es.Epoch > cur.epoch:
			// Reshard done: drop moved calls from their old owners — the new
			// owners recovered them from the copied state.
			ring := next.ring
			for i, ctrl := range m.ctrls {
				shard := i
				if n := ctrl.EvictCalls(func(id uint64) bool { return ring.Lookup(id) != shard }); n > 0 && m.cfg.Logger != nil {
					m.cfg.Logger.Info("moved calls evicted after reshard", "shard", shard, "calls", n)
				}
			}
		case cur.phase != PhaseStable:
			// Abort: the fleet rolled back to the source ring. Drop anything
			// the aborted target shards picked up.
			for i := es.Shards; i < len(m.ctrls); i++ {
				m.ctrls[i].EvictCalls(func(uint64) bool { return true })
			}
		}
		m.acked = make(map[int]int64)
	}
}

// ringFor builds a ring of the given width, reusing the current view's rings
// when the width matches (lookups stay on the exact same structure). Returns
// nil only on an invalid width.
func (m *Manager) ringFor(cur *routeState, shards, vnodes int) *Ring {
	for _, r := range []*Ring{cur.ring, cur.next, cur.prev} {
		if r != nil && r.Shards() == shards {
			return r
		}
	}
	r, err := NewRing(shards, vnodes)
	if err != nil {
		if m.cfg.Logger != nil {
			m.cfg.Logger.Warn("ring build failed", "shards", shards, "err", err)
		}
		return nil
	}
	return r
}

// ensureShardsLocked grows the controller/elector set to width shards,
// reporting whether the manager now covers them. Callers hold mu.
//
//sblint:holds mu
func (m *Manager) ensureShardsLocked(width int) bool {
	for i := len(m.ctrls); i < width; i++ {
		if m.cfg.NewController == nil {
			if m.cfg.Logger != nil {
				m.cfg.Logger.Warn("cannot grow shard set: no controller factory", "want", width)
			}
			return false
		}
		ctrl, err := m.cfg.NewController(i)
		if err != nil {
			if m.cfg.Logger != nil {
				m.cfg.Logger.Warn("shard controller build failed", "shard", i, "err", err)
			}
			return false
		}
		if err := m.addShardLocked(i, ctrl); err != nil {
			if m.cfg.Logger != nil {
				m.cfg.Logger.Warn("shard elector dial failed", "shard", i, "err", err)
			}
			return false
		}
		// New shards have no preferred owner: every node races immediately
		// and the lease arbitrates.
		if m.started && !m.stopped {
			m.runElectorLocked(i)
		}
	}
	return true
}

// recoverShard rebuilds an owned target shard's call state at cutover.
func (m *Manager) recoverShard(shard int) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*m.cfg.TTL)
	defer cancel()
	if n, err := m.Controller(shard).RecoverCalls(ctx); err != nil {
		if m.cfg.Logger != nil {
			m.cfg.Logger.Warn("cutover call-state recovery failed", "shard", shard, "err", err)
		}
	} else if n > 0 && m.cfg.Logger != nil {
		m.cfg.Logger.Info("cutover call state recovered", "shard", shard, "calls", n)
	}
}

// ackHandoffs runs the leader side of the journal-handoff barrier for every
// source shard this node leads: once the shard's moved-write in-flight count
// has drained (BeginWrite holds new ones by now — the route flipped before
// this runs), write the ack stamped with this reign's lease epoch under the
// controller's store lock, after every write that lock let through. The coordinator
// only proceeds when each shard's ack matches its CURRENT lease epoch, so an
// ack from a deposed reign never green-lights the delta copy — and the ack
// write itself is fenced anyway. Non-blocking: shards that still have writes
// in flight are retried next poll.
func (m *Manager) ackHandoffs(ctx context.Context, es EpochState) {
	type ackJob struct {
		shard int
		epoch int64
		ctrl  *controller.Controller
	}
	m.mu.Lock()
	var todo []ackJob
	for s := range m.owned {
		epoch := m.epochLocked(s)
		if s < es.Shards && epoch != 0 && m.movedInflight[s] == 0 && m.acked[s] != epoch {
			todo = append(todo, ackJob{shard: s, epoch: epoch, ctrl: m.ctrls[s]})
		}
	}
	m.mu.Unlock()

	for _, j := range todo {
		s, epoch := j.shard, j.epoch
		if err := j.ctrl.AckHandoff(ctx, AckKey(s), epoch); err != nil {
			if m.cfg.Logger != nil {
				m.cfg.Logger.WarnContext(ctx, "journal-handoff ack failed", "shard", s, "err", err)
			}
			continue
		}
		m.mu.Lock()
		m.acked[s] = epoch
		m.mu.Unlock()
		if m.cfg.Logger != nil {
			m.cfg.Logger.InfoContext(ctx, "journal-handoff acked", "shard", s, "epoch", epoch)
		}
	}
}

// epochLocked is Epoch without re-locking. Callers hold mu.
//
//sblint:holds mu
func (m *Manager) epochLocked(shard int) int64 {
	if shard < 0 || shard >= len(m.electors) {
		return 0
	}
	return m.electors[shard].Epoch()
}
