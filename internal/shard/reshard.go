// The reshard coordinator: walks a live fleet from an N-shard ring to a
// wider one with zero acked-write loss. The coordinator is a store-driven
// state machine — every step is checkpointed under ReshardStateKey and every
// write rides the coordinator lease's fence, so any node can resume a
// crashed migration and a deposed coordinator's stragglers are rejected by
// the store instead of corrupting the one that took over.
//
// Phase protocol (see DESIGN.md "Resharding" for the failure matrix):
//
//	prepare          publish the target ring; fleet grows, new shards elect
//	copy             bulk-copy moving keys old→new prefix (racy, resumable)
//	journal-handoff  hold writes to moving keys; every source leader drains
//	                 its journal and acks at its lease epoch; delta-copy the
//	                 now-quiescent keys
//	cutover          bump the epoch: target ring serves, double reads cover
//	                 stragglers; then retire moved keys and go stable
//
// An abort before cutover rolls back to the source ring: every acked write
// is still under its source prefix (the copies are copies), so rollback
// deletes the partial destination state and republishes the old ring.

package shard

import (
	"context"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/kvstore"
	"switchboard/internal/obs/span"
)

// Coordinator step-pacing defaults.
const (
	// DefaultReshardPoll paces the coordinator's wait loops (leaders, acks).
	DefaultReshardPoll = 100 * time.Millisecond
	// DefaultReshardBackoffBase / Max bound the capped jittered retry backoff.
	DefaultReshardBackoffBase = 50 * time.Millisecond
	DefaultReshardBackoffMax  = 2 * time.Second
	// DefaultReshardAttempts bounds one step's retries before the run fails
	// (the checkpoint survives; a later run resumes).
	DefaultReshardAttempts = 8
	// reshardCheckpointEvery is how many copied keys between progress
	// checkpoints mid-shard.
	reshardCheckpointEvery = 16
)

// CoordinatorConfig parameterizes a reshard Coordinator.
type CoordinatorConfig struct {
	// Store is the coordinator's own store client; the coordinator arms its
	// fence with the reshard lease, so it must not be shared with electors
	// or controllers. Required.
	Store *kvstore.Client
	// ID identifies this coordinator as the reshard lease owner (the node's
	// advertised address). Required.
	ID string
	// BootShards/BootVNodes describe the serving ring when no EpochState has
	// ever been stored (a fleet still on its boot ring). Required.
	BootShards int
	BootVNodes int
	// TTL and Renew parameterize the coordinator lease; zero means the
	// controller-lease defaults. A crashed coordinator can be superseded one
	// TTL after its last renewal.
	TTL, Renew time.Duration
	// Poll paces the wait loops; zero means DefaultReshardPoll.
	Poll time.Duration
	// CutoverHold is how long cutover keeps serving double reads before the
	// target ring is declared stable and moved keys are retired; zero means
	// two lease TTLs (time for every node to observe the flip and recover).
	CutoverHold time.Duration
	// BackoffBase/BackoffMax/MaxAttempts shape the per-step retry loop; zero
	// means the defaults above.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	MaxAttempts int
	Metrics     *Metrics
	Logger      *slog.Logger
	Tracer      *span.Tracer
	// StepHook, when non-nil, is called at phase entries and per copied key
	// — test instrumentation for deterministic crash injection. Must be fast.
	StepHook func(phase, step string)
}

// Coordinator drives one reshard (or its resumption) to completion.
type Coordinator struct {
	cfg   CoordinatorConfig
	epoch int64 // coordinator lease epoch once acquired

	// storeMu serializes every command on the single-connection store
	// client: the lease renew loop runs concurrently with the phase machine.
	storeMu sync.Mutex
}

// locked runs one store command under storeMu.
func (co *Coordinator) locked(f func() error) error {
	co.storeMu.Lock()
	defer co.storeMu.Unlock()
	return f()
}

// NewCoordinator validates cfg.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Store == nil {
		return nil, errConfig("coordinator Store is required")
	}
	if cfg.ID == "" {
		return nil, errConfig("coordinator ID is required")
	}
	if cfg.BootShards <= 0 {
		return nil, errConfig("coordinator BootShards is required")
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 3 * time.Second
	}
	if cfg.Renew <= 0 {
		cfg.Renew = cfg.TTL / 3
	}
	if cfg.Poll <= 0 {
		cfg.Poll = DefaultReshardPoll
	}
	if cfg.CutoverHold <= 0 {
		cfg.CutoverHold = 2 * cfg.TTL
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultReshardBackoffBase
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = DefaultReshardBackoffMax
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultReshardAttempts
	}
	return &Coordinator{cfg: cfg}, nil
}

// LeaseHolder reports who currently holds the reshard coordinator lease (""
// when free). Advisory: the lease itself arbitrates, this only lets an API
// answer 409 instead of silently queueing behind a live coordinator.
func (co *Coordinator) LeaseHolder() string {
	var owner string
	err := co.locked(func() error {
		var lerr error
		owner, _, _, lerr = co.cfg.Store.GetLease(ReshardLeaseKey)
		return lerr
	})
	if err != nil {
		return ""
	}
	return owner
}

// Close releases the coordinator's store client.
func (co *Coordinator) Close() error {
	return co.cfg.Store.Close()
}

func (co *Coordinator) hook(phase, step string) {
	if co.cfg.StepHook != nil {
		co.cfg.StepHook(phase, step)
	}
}

func (co *Coordinator) logf(level slog.Level, msg string, args ...any) {
	if co.cfg.Logger != nil {
		co.cfg.Logger.Log(context.Background(), level, msg, args...)
	}
}

// Run drives a split of the serving ring to target shards, resuming any
// checkpointed migration first (whatever its target). It blocks until the
// fleet is stable on the widened ring, the context dies, or the coordinator
// lease is lost to a successor. Safe to call on any node: the lease decides
// who actually coordinates, and the loser waits to take over.
func (co *Coordinator) Run(ctx context.Context, target int) (ReshardState, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if err := co.acquireLease(ctx); err != nil {
		return ReshardState{}, err
	}
	defer co.releaseLease()
	go co.renewLoop(ctx, cancel)

	st, resumed, err := co.loadOrInit(ctx, target)
	if err != nil {
		return st, err
	}
	if resumed {
		co.logf(slog.LevelInfo, "resuming checkpointed reshard",
			"from", st.From, "to", st.To, "phase", st.Phase, "copied", st.Copied)
	} else if err := co.checkpoint(ctx, &st); err != nil {
		return st, err
	}

	for {
		co.hook(st.Phase, "enter")
		ctx, sp := co.phaseSpan(ctx, st.Phase)
		var err error
		switch st.Phase {
		case PhasePrepare:
			err = co.prepare(ctx, &st)
		case PhaseCopy:
			err = co.copy(ctx, &st)
		case PhaseHandoff:
			err = co.handoff(ctx, &st)
		case PhaseCutover:
			err = co.cutover(ctx, &st)
		default:
			err = fmt.Errorf("shard: unknown reshard phase %q", st.Phase)
		}
		if sp != nil {
			sp.SetError(err)
			sp.End()
		}
		if err != nil {
			return st, err
		}
		if st.Phase == PhaseStable {
			co.logf(slog.LevelInfo, "reshard complete",
				"from", st.From, "to", st.To, "epoch", st.Epoch+1, "moved", st.Copied)
			return st, nil
		}
	}
}

// Abort rolls a checkpointed migration back to its source ring. Refused at
// or past cutover — by then the target ring is serving acked writes, so the
// only safe direction is forward. Rollback loses nothing: pre-cutover, every
// acked write still lives under its source shard's prefix and only the
// copied duplicates are deleted.
func (co *Coordinator) Abort(ctx context.Context) (ReshardState, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if err := co.acquireLease(ctx); err != nil {
		return ReshardState{}, err
	}
	defer co.releaseLease()
	go co.renewLoop(ctx, cancel)

	st, ok, err := LoadReshard(ctx, co.cfg.Store)
	if err != nil {
		return st, err
	}
	if !ok {
		return st, fmt.Errorf("shard: no reshard in flight")
	}
	if st.Phase == PhaseCutover {
		return st, fmt.Errorf("shard: reshard is past cutover; it can only roll forward")
	}
	co.hook("abort", "enter")

	// Nobody may route by the target ring anymore before the copies go away.
	if err := co.publishEpoch(ctx, EpochState{
		Epoch: st.Epoch, Shards: st.From, VNodes: st.VNodes, Phase: PhaseStable,
	}); err != nil {
		return st, err
	}
	// Delete the partial destination state: moving keys only ever copy into
	// the added shards' prefixes, which carry nothing else pre-cutover.
	for s := st.From; s < st.To; s++ {
		prefix := controller.CallKeyPrefix(KeyPrefix(s))
		err := co.retry(ctx, "abort.scan", func(ctx context.Context) error {
			return co.locked(func() error {
				keys, kerr := co.cfg.Store.KeysPrefixContext(ctx, prefix)
				if kerr != nil {
					return kerr
				}
				for _, k := range keys {
					if derr := co.cfg.Store.DelContext(ctx, k); derr != nil {
						return derr
					}
				}
				return nil
			})
		})
		if err != nil {
			return st, err
		}
	}
	if err := co.clearControlState(ctx, st); err != nil {
		return st, err
	}
	co.logf(slog.LevelInfo, "reshard aborted; source ring restored",
		"from", st.From, "to", st.To, "phase", st.Phase)
	st.Phase = PhaseStable
	return st, nil
}

// acquireLease races the reshard lease until granted, waiting out a live
// coordinator (taking over one TTL after it stops renewing), then arms the
// store client's fence with the granted epoch so every subsequent
// coordinator write is rejected once a successor supersedes this run.
func (co *Coordinator) acquireLease(ctx context.Context) error {
	var attempt int
	for {
		var epoch int64
		err := co.locked(func() error {
			var lerr error
			epoch, lerr = co.cfg.Store.SetLeaseContext(ctx, ReshardLeaseKey, co.cfg.ID, co.cfg.TTL)
			if lerr == nil {
				co.cfg.Store.SetFence(ReshardLeaseKey, epoch)
			}
			return lerr
		})
		switch {
		case err == nil:
			co.epoch = epoch
			co.logf(slog.LevelInfo, "reshard coordinator lease acquired", "epoch", epoch)
			return nil
		case kvstore.IsLeaseHeldError(err):
			// A live coordinator exists; wait to take over if it dies.
			attempt = 0
		default:
			attempt++
			if attempt >= co.cfg.MaxAttempts {
				return fmt.Errorf("shard: reshard lease acquire: %w", err)
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(co.cfg.Poll):
		}
	}
}

// renewLoop keeps the lease fresh; losing it (superseded or fenced) cancels
// the run so a half-done step never races the successor.
func (co *Coordinator) renewLoop(ctx context.Context, cancel context.CancelFunc) {
	t := time.NewTicker(co.cfg.Renew)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			err := co.locked(func() error {
				_, lerr := co.cfg.Store.SetLeaseContext(ctx, ReshardLeaseKey, co.cfg.ID, co.cfg.TTL)
				return lerr
			})
			if err != nil && (kvstore.IsLeaseHeldError(err) || kvstore.IsFencedError(err)) {
				co.logf(slog.LevelWarn, "reshard coordinator superseded", "err", err)
				cancel()
				return
			}
		}
	}
}

// releaseLease resigns on the way out (best effort; the lease lapses anyway).
func (co *Coordinator) releaseLease() {
	_ = co.locked(func() error {
		co.cfg.Store.ClearFence()
		return co.cfg.Store.DelLease(ReshardLeaseKey, co.cfg.ID)
	})
}

// loadOrInit resumes the checkpointed migration or initializes a fresh one
// from the serving epoch.
func (co *Coordinator) loadOrInit(ctx context.Context, target int) (ReshardState, bool, error) {
	var st ReshardState
	var ok bool
	err := co.locked(func() error {
		var lerr error
		st, ok, lerr = LoadReshard(ctx, co.cfg.Store)
		return lerr
	})
	if err != nil {
		return st, false, err
	}
	if ok {
		if st.To != target {
			co.logf(slog.LevelWarn, "finishing in-flight reshard before new targets can be accepted",
				"inflight_to", st.To, "requested", target)
		}
		return st, true, nil
	}
	var es EpochState
	var haveEpoch bool
	err = co.locked(func() error {
		var lerr error
		es, haveEpoch, lerr = LoadEpoch(ctx, co.cfg.Store)
		return lerr
	})
	if err != nil {
		return ReshardState{}, false, err
	}
	if !haveEpoch {
		es = EpochState{Epoch: 1, Shards: co.cfg.BootShards, VNodes: co.cfg.BootVNodes, Phase: PhaseStable}
	}
	if es.Phase != PhaseStable {
		return ReshardState{}, false, fmt.Errorf("shard: epoch record mid-phase %q with no checkpoint; refusing", es.Phase)
	}
	if target <= es.Shards {
		return ReshardState{}, false, fmt.Errorf("shard: target %d does not grow the %d-shard ring", target, es.Shards)
	}
	return ReshardState{
		From: es.Shards, To: target, VNodes: es.VNodes,
		Epoch: es.Epoch, Phase: PhasePrepare,
	}, false, nil
}

// checkpoint persists the coordinator state (fenced).
//
//sblint:fencepath
func (co *Coordinator) checkpoint(ctx context.Context, st *ReshardState) error {
	return co.retry(ctx, "checkpoint", func(ctx context.Context) error {
		return co.locked(func() error { return saveReshard(ctx, co.cfg.Store, *st) })
	})
}

// publishEpoch moves the whole fleet: every Manager derives its routing from
// this record on its next poll (fenced).
//
//sblint:fencepath
func (co *Coordinator) publishEpoch(ctx context.Context, es EpochState) error {
	return co.retry(ctx, "publish-epoch", func(ctx context.Context) error {
		return co.locked(func() error { return SaveEpoch(ctx, co.cfg.Store, es) })
	})
}

// prepare publishes the target ring and waits until every added shard has a
// live leader — nodes observe the phase, grow their shard sets, and race the
// new leases.
func (co *Coordinator) prepare(ctx context.Context, st *ReshardState) error {
	if err := co.publishEpoch(ctx, EpochState{
		Epoch: st.Epoch, Shards: st.From, VNodes: st.VNodes,
		Phase: PhasePrepare, TargetShards: st.To,
	}); err != nil {
		return err
	}
	for s := st.From; s < st.To; s++ {
		if err := co.waitLeader(ctx, s); err != nil {
			return err
		}
	}
	st.Phase = PhaseCopy
	return co.checkpoint(ctx, st)
}

// copy bulk-copies every moving key into its target shard's prefix while
// writes keep flowing to the source owners (the journal-handoff delta pass
// re-copies what raced). Resumable per source shard; re-copying is
// idempotent (HCOPY replaces the destination).
func (co *Coordinator) copy(ctx context.Context, st *ReshardState) error {
	if err := co.publishEpoch(ctx, EpochState{
		Epoch: st.Epoch, Shards: st.From, VNodes: st.VNodes,
		Phase: PhaseCopy, TargetShards: st.To,
	}); err != nil {
		return err
	}
	if err := co.copyMoved(ctx, st, PhaseCopy, true); err != nil {
		return err
	}
	st.Phase = PhaseHandoff
	return co.checkpoint(ctx, st)
}

// handoff runs the barrier that makes the final copy exact: writes to moving
// keys are held fleet-wide (the phase flip does that), every source shard's
// leader drains its journal and acks at its current lease epoch, and the
// delta copy then runs against provably quiescent keys. If any source
// shard's leadership changes while the delta runs, its new leader may have
// landed journaled writes the scan missed — so the lease epochs are
// re-checked after the delta and the barrier re-runs until a pass sees no
// churn.
func (co *Coordinator) handoff(ctx context.Context, st *ReshardState) error {
	if err := co.publishEpoch(ctx, EpochState{
		Epoch: st.Epoch, Shards: st.From, VNodes: st.VNodes,
		Phase: PhaseHandoff, TargetShards: st.To,
	}); err != nil {
		return err
	}
	for {
		acked, err := co.waitAcks(ctx, st)
		if err != nil {
			return err
		}
		co.hook(PhaseHandoff, "delta")
		if err := co.copyMoved(ctx, st, PhaseHandoff, false); err != nil {
			return err
		}
		stable, err := co.acksStillCurrent(ctx, st, acked)
		if err != nil {
			return err
		}
		if stable {
			break
		}
		co.logf(slog.LevelWarn, "leadership churned during delta copy; re-running handoff barrier")
	}
	st.Phase = PhaseCutover
	return co.checkpoint(ctx, st)
}

// cutover bumps the ring epoch: the target ring serves, moved-key writes land
// on their new owners under the new owners' leases, and reads double up on
// the retired prefixes until every node has recovered. After the hold, moved
// source keys are retired (only those whose copy verifiably exists) and the
// fleet is declared stable.
func (co *Coordinator) cutover(ctx context.Context, st *ReshardState) error {
	if err := co.publishEpoch(ctx, EpochState{
		Epoch: st.Epoch + 1, Shards: st.To, VNodes: st.VNodes,
		Phase: PhaseCutover, PrevShards: st.From,
	}); err != nil {
		return err
	}
	// Every shard of the target ring must have a live leader before the
	// double-read window is allowed to close.
	for s := 0; s < st.To; s++ {
		if err := co.waitLeader(ctx, s); err != nil {
			return err
		}
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(co.cfg.CutoverHold):
	}
	co.hook(PhaseCutover, "retire")
	if err := co.retireMoved(ctx, st); err != nil {
		return err
	}
	if err := co.publishEpoch(ctx, EpochState{
		Epoch: st.Epoch + 1, Shards: st.To, VNodes: st.VNodes, Phase: PhaseStable,
	}); err != nil {
		return err
	}
	if err := co.clearControlState(ctx, *st); err != nil {
		return err
	}
	st.Phase = PhaseStable
	return nil
}

// copyMoved copies every call key whose owner changes to the target ring.
// countProgress tracks Copied/Total and checkpoints (the bulk pass); the
// delta pass skips the bookkeeping.
func (co *Coordinator) copyMoved(ctx context.Context, st *ReshardState, phase string, countProgress bool) error {
	start, sinceCheckpoint := 0, 0
	var shardDone func(s int) error
	if countProgress {
		start = st.NextShard
		shardDone = func(s int) error {
			st.NextShard, sinceCheckpoint = s+1, 0
			return co.checkpoint(ctx, st)
		}
	}
	return co.eachMoved(ctx, st, phase, start, func(src, dst string) error {
		if countProgress {
			st.Total++
		}
		if err := co.retry(ctx, phase+".copy", func(ctx context.Context) error {
			return co.locked(func() error {
				_, herr := co.cfg.Store.HCopyContext(ctx, src, dst)
				return herr
			})
		}); err != nil {
			return err
		}
		if countProgress {
			st.Copied++
			if sinceCheckpoint++; sinceCheckpoint >= reshardCheckpointEvery {
				sinceCheckpoint = 0
				if err := co.checkpoint(ctx, st); err != nil {
					return err
				}
			}
		}
		co.hook(phase, "copied:"+src)
		return nil
	}, shardDone)
}

// retireMoved deletes moved keys from their source prefixes, each only after
// verifying its copy exists under the new owner.
func (co *Coordinator) retireMoved(ctx context.Context, st *ReshardState) error {
	return co.eachMoved(ctx, st, "retire", 0, func(src, dst string) error {
		return co.retry(ctx, "retire.del", func(ctx context.Context) error {
			return co.locked(func() error {
				h, herr := co.cfg.Store.HGetAllContext(ctx, dst)
				if herr != nil {
					return herr
				}
				if len(h) == 0 {
					// The copy is missing (a write landed after the delta —
					// see the failure matrix). Keep the source key: a stale
					// duplicate is recoverable, a deleted original is not.
					co.logf(slog.LevelWarn, "retire skipped: destination copy missing", "key", src)
					return nil
				}
				return co.cfg.Store.DelContext(ctx, src)
			})
		})
	}, nil)
}

// eachMoved scans the call keys of source shards start..From-1 and calls
// moved(src, dst) for each key whose owner changes on the target ring, then
// shardDone(s), when non-nil, once shard s is walked.
func (co *Coordinator) eachMoved(ctx context.Context, st *ReshardState, phase string, start int, moved func(src, dst string) error, shardDone func(s int) error) error {
	oldRing, err := NewRing(st.From, st.VNodes)
	if err != nil {
		return err
	}
	newRing, err := NewRing(st.To, st.VNodes)
	if err != nil {
		return err
	}
	for s := start; s < st.From; s++ {
		prefix := controller.CallKeyPrefix(KeyPrefix(s))
		var keys []string
		if err := co.retry(ctx, phase+".scan", func(ctx context.Context) error {
			return co.locked(func() error {
				var kerr error
				keys, kerr = co.cfg.Store.KeysPrefixContext(ctx, prefix)
				return kerr
			})
		}); err != nil {
			return err
		}
		for _, k := range keys {
			id, perr := strconv.ParseUint(strings.TrimPrefix(k, prefix), 10, 64)
			if perr != nil {
				continue // not call state (a lease under the shard prefix)
			}
			if dst := newRing.Lookup(id); dst != oldRing.Lookup(id) {
				if err := moved(k, controller.CallKey(KeyPrefix(dst), id)); err != nil {
					return err
				}
			}
		}
		if shardDone != nil {
			if err := shardDone(s); err != nil {
				return err
			}
		}
	}
	return nil
}

// clearControlState removes the checkpoint and the per-shard acks.
//
//sblint:fencepath
func (co *Coordinator) clearControlState(ctx context.Context, st ReshardState) error {
	return co.retry(ctx, "clear-state", func(ctx context.Context) error {
		return co.locked(func() error {
			if err := co.cfg.Store.DelContext(ctx, ReshardStateKey); err != nil {
				return err
			}
			for s := 0; s < st.From; s++ {
				if err := co.cfg.Store.DelContext(ctx, AckKey(s)); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// waitLeader polls until shard s's lease has a live owner.
func (co *Coordinator) waitLeader(ctx context.Context, s int) error {
	for {
		var owner string
		err := co.locked(func() error {
			var lerr error
			owner, _, _, lerr = co.cfg.Store.GetLease(LeaseKey(s))
			return lerr
		})
		if err == nil && owner != "" {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("shard: waiting for shard %d leader: %w", s, ctx.Err())
		case <-time.After(co.cfg.Poll):
		}
	}
}

// waitAcks blocks until every source shard's handoff ack matches its current
// lease epoch, returning the matched epochs. A shard whose leader died
// mid-drain re-acks at the successor's epoch (the successor drains its own
// journal before serving), so the wait converges as long as leaders keep
// getting elected.
func (co *Coordinator) waitAcks(ctx context.Context, st *ReshardState) (map[int]int64, error) {
	acked := make(map[int]int64, st.From)
	for {
		all := true
		for s := 0; s < st.From; s++ {
			var owner string
			var epoch int64
			var raw string
			err := co.locked(func() error {
				var lerr error
				owner, epoch, _, lerr = co.cfg.Store.GetLease(LeaseKey(s))
				if lerr != nil || owner == "" {
					return lerr
				}
				raw, lerr = co.cfg.Store.GetContext(ctx, AckKey(s))
				return lerr
			})
			if err != nil || owner == "" {
				all = false
				continue
			}
			ack, perr := strconv.ParseInt(raw, 10, 64)
			if perr != nil || ack != epoch {
				all = false
				continue
			}
			acked[s] = ack
		}
		if all {
			return acked, nil
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("shard: waiting for journal-handoff acks: %w", ctx.Err())
		case <-time.After(co.cfg.Poll):
		}
	}
}

// acksStillCurrent re-checks that no source shard's leadership moved since
// its ack was collected.
func (co *Coordinator) acksStillCurrent(ctx context.Context, st *ReshardState, acked map[int]int64) (bool, error) {
	for s := 0; s < st.From; s++ {
		var owner string
		var epoch int64
		err := co.locked(func() error {
			var lerr error
			owner, epoch, _, lerr = co.cfg.Store.GetLease(LeaseKey(s))
			return lerr
		})
		if err != nil || owner == "" || epoch != acked[s] {
			if ctx.Err() != nil {
				return false, ctx.Err()
			}
			return false, nil
		}
	}
	return true, nil
}

// retry runs one coordinator step with capped, deterministically jittered
// backoff. Fenced errors abort immediately: the store has already granted
// the reshard lease to a successor, and retrying a superseded coordinator's
// write would race the resumed migration.
func (co *Coordinator) retry(ctx context.Context, step string, f func(ctx context.Context) error) error {
	for attempt := 1; ; attempt++ {
		err := f(ctx)
		if err == nil {
			return nil
		}
		if kvstore.IsFencedError(err) {
			return fmt.Errorf("shard: reshard step %s superseded: %w", step, err)
		}
		if attempt >= co.cfg.MaxAttempts {
			return fmt.Errorf("shard: reshard step %s: %w (after %d attempts)", step, err, attempt)
		}
		if co.cfg.Metrics != nil {
			co.cfg.Metrics.ReshardRetries.Inc()
		}
		co.logf(slog.LevelWarn, "reshard step retrying", "step", step, "attempt", attempt, "err", err)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(co.backoff(attempt)):
		}
	}
}

// backoff is capped exponential with deterministic jitter (splitmix of the
// attempt counter — no global randomness, so drills replay identically).
func (co *Coordinator) backoff(attempt int) time.Duration {
	d := co.cfg.BackoffBase << (attempt - 1)
	if d > co.cfg.BackoffMax || d <= 0 {
		d = co.cfg.BackoffMax
	}
	jitter := time.Duration(mix64(uint64(attempt)) % uint64(d/2+1))
	return d/2 + jitter
}

// phaseSpan opens a tracing span for one phase.
func (co *Coordinator) phaseSpan(ctx context.Context, phase string) (context.Context, *span.Span) {
	if co.cfg.Tracer == nil {
		return ctx, nil
	}
	return co.cfg.Tracer.Start(ctx, "reshard."+phase)
}
