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
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/kvstore"
	"switchboard/internal/obs/span"
)

// Coordinator step-pacing defaults.
const (
	// DefaultReshardAttempts bounds one step's retries before the run fails
	// (the checkpoint survives; a later run resumes).
	DefaultReshardAttempts = 8
	// reshardCheckpointEvery is how many copied keys between progress
	// checkpoints mid-shard.
	reshardCheckpointEvery = 16
)

// CoordinatorConfig parameterizes a reshard Coordinator.
type CoordinatorConfig struct {
	// Dial opens a store client the coordinator owns. It is called twice:
	// one client carries the phase machine's writes under the reshard
	// lease's fence, the other is the lease elector's own. Required.
	Dial func() (*kvstore.Client, error)
	// ID identifies this coordinator as the reshard lease owner (the node's
	// advertised address). Required.
	ID string
	// BootShards/BootVNodes describe the serving ring when no EpochState has
	// ever been stored (a fleet still on its boot ring). Required.
	BootShards int
	BootVNodes int
	// TTL is the coordinator lease's duration (zero means
	// kvstore.DefaultLeaseTTL); a crashed coordinator is superseded one TTL
	// after its last renewal. The wait loops poll at its timing's EpochPoll
	// (the cadence nodes ack phase flips at), step retries back off within
	// its backoff bounds, and cutover serves double reads for two TTLs.
	TTL time.Duration
	// MaxAttempts bounds one step's retries; zero means
	// DefaultReshardAttempts.
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
	cfg CoordinatorConfig
	// store is used only by the goroutine calling LeaseHolder, Run or Abort;
	// leaseStore only by the elector those runs start.
	store, leaseStore *kvstore.Client
}

// NewCoordinator validates cfg and dials the coordinator's two clients.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Dial == nil {
		return nil, errConfig("coordinator Dial is required")
	}
	if cfg.ID == "" {
		return nil, errConfig("coordinator ID is required")
	}
	if cfg.BootShards <= 0 {
		return nil, errConfig("coordinator BootShards is required")
	}
	if cfg.TTL <= 0 {
		cfg.TTL = kvstore.DefaultLeaseTTL
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultReshardAttempts
	}
	store, err := cfg.Dial()
	if err != nil {
		return nil, err
	}
	leaseStore, err := cfg.Dial()
	if err != nil {
		_ = store.Close()
		return nil, err
	}
	return &Coordinator{cfg: cfg, store: store, leaseStore: leaseStore}, nil
}

// LeaseHolder reports who currently holds the reshard coordinator lease (""
// when free, or when the store does not answer by ctx's deadline).
// Advisory: the lease itself arbitrates, this only lets an API answer 409
// instead of silently queueing behind a live coordinator.
func (co *Coordinator) LeaseHolder(ctx context.Context) string {
	owner, _, _, err := co.store.GetLeaseContext(ctx, ReshardLeaseKey)
	if err != nil {
		return ""
	}
	return owner
}

// Close releases the coordinator's store clients.
func (co *Coordinator) Close() error {
	return errors.Join(co.store.Close(), co.leaseStore.Close())
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
func (co *Coordinator) Run(ctx context.Context, target int) (st ReshardState, err error) {
	err = co.lead(ctx, func(ctx context.Context) error {
		st, err = co.run(ctx, target)
		return err
	})
	return st, err
}

// run is Run's phase machine, entered while holding the lease.
func (co *Coordinator) run(ctx context.Context, target int) (ReshardState, error) {
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
func (co *Coordinator) Abort(ctx context.Context) (st ReshardState, err error) {
	err = co.lead(ctx, func(ctx context.Context) error {
		st, err = co.abort(ctx)
		return err
	})
	return st, err
}

// abort is Abort's rollback, entered while holding the lease.
func (co *Coordinator) abort(ctx context.Context) (ReshardState, error) {
	st, ok, err := LoadReshard(ctx, co.store)
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
			keys, err := co.store.KeysPrefixContext(ctx, prefix)
			if err != nil {
				return err
			}
			for _, k := range keys {
				if err := co.store.DelContext(ctx, k); err != nil {
					return err
				}
			}
			return nil
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

// lead runs body while this coordinator holds the reshard lease, through
// the same controller.Elector that holds every shard lease. It waits for
// leadership until ctx ends (a live coordinator is waited out; a dead one is
// taken over one TTL after its last renewal), arms the phase client's fence
// with the granted epoch so a superseded run's writes are rejected by the
// store, and cancels body's context if the lease is lost. On return the
// elector resigns the lease and the fence is cleared.
func (co *Coordinator) lead(ctx context.Context, body func(ctx context.Context) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	won := make(chan int64, 1)
	el := controller.NewElector(controller.ElectorConfig{
		Store: co.leaseStore,
		Key:   ReshardLeaseKey,
		ID:    co.cfg.ID,
		TTL:   co.cfg.TTL,
		OnLead: func(epoch int64) {
			// Non-blocking: only the first grant is read, and a later
			// re-grant follows a loss, which has already cancelled the run.
			select {
			case won <- epoch:
			default:
			}
		},
		OnLose: cancel,
		Logger: co.cfg.Logger,
	})
	go el.Run()
	defer func() {
		el.Stop()
		<-el.Done()
		co.store.ClearFence()
	}()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case epoch := <-won:
		co.store.SetFence(ReshardLeaseKey, epoch)
	}
	return body(ctx)
}

// loadOrInit resumes the checkpointed migration or initializes a fresh one
// from the serving epoch.
func (co *Coordinator) loadOrInit(ctx context.Context, target int) (ReshardState, bool, error) {
	st, ok, err := LoadReshard(ctx, co.store)
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
	es, haveEpoch, err := LoadEpoch(ctx, co.store)
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
		return saveReshard(ctx, co.store, *st)
	})
}

// publishEpoch moves the whole fleet: every Manager derives its routing from
// this record on its next poll (fenced).
//
//sblint:fencepath
func (co *Coordinator) publishEpoch(ctx context.Context, es EpochState) error {
	return co.retry(ctx, "publish-epoch", func(ctx context.Context) error {
		return SaveEpoch(ctx, co.store, es)
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
	case <-time.After(2 * co.cfg.TTL):
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
			_, err := co.store.HCopyContext(ctx, src, dst)
			return err
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
			h, err := co.store.HGetAllContext(ctx, dst)
			if err != nil {
				return err
			}
			if len(h) == 0 {
				// The copy is missing (a write landed after the delta — see
				// the failure matrix). Keep the source key: a stale
				// duplicate is recoverable, a deleted original is not.
				co.logf(slog.LevelWarn, "retire skipped: destination copy missing", "key", src)
				return nil
			}
			return co.store.DelContext(ctx, src)
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
			var err error
			keys, err = co.store.KeysPrefixContext(ctx, prefix)
			return err
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
		if err := co.store.DelContext(ctx, ReshardStateKey); err != nil {
			return err
		}
		for s := 0; s < st.From; s++ {
			if err := co.store.DelContext(ctx, AckKey(s)); err != nil {
				return err
			}
		}
		return nil
	})
}

// waitLeader polls until shard s's lease has a live owner.
func (co *Coordinator) waitLeader(ctx context.Context, s int) error {
	for {
		if owner, _, _, err := co.store.GetLeaseContext(ctx, LeaseKey(s)); err == nil && owner != "" {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("shard: waiting for shard %d leader: %w", s, ctx.Err())
		case <-time.After(kvstore.TimingFor(co.cfg.TTL).EpochPoll):
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
			owner, epoch, _, err := co.store.GetLeaseContext(ctx, LeaseKey(s))
			if err != nil || owner == "" {
				all = false
				continue
			}
			raw, err := co.store.GetContext(ctx, AckKey(s))
			if err != nil {
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
		case <-time.After(kvstore.TimingFor(co.cfg.TTL).EpochPoll):
		}
	}
}

// acksStillCurrent re-checks that no source shard's leadership moved since
// its ack was collected.
func (co *Coordinator) acksStillCurrent(ctx context.Context, st *ReshardState, acked map[int]int64) (bool, error) {
	for s := 0; s < st.From; s++ {
		owner, epoch, _, err := co.store.GetLeaseContext(ctx, LeaseKey(s))
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
	t := kvstore.TimingFor(co.cfg.TTL)
	d := t.BackoffMin << (attempt - 1)
	if d > t.BackoffMax || d <= 0 {
		d = t.BackoffMax
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
