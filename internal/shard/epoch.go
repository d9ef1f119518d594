// Ring epochs: the fleet-shared record of which consistent-hash ring is
// serving, stored in the kvstore so every node routes from the same ring
// without coordination beyond a poll. A stable fleet runs one ring at one
// epoch; a live reshard walks the record through
// prepare → copy → journal-handoff → cutover → stable, and every node's
// Manager derives its routing (dual rings, write holds, double reads) purely
// from the last record it observed. The record is only ever written by the
// reshard coordinator under the coordinator lease's fence, so a deposed
// coordinator cannot flip the fleet's ring.

package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	"switchboard/internal/kvstore"
)

// Store keys for the resharding control state. They live outside every
// shard's KeyPrefix namespace (shard prefixes are "shard/<i>/"), so shard
// scans and migrations never sweep them up.
const (
	// EpochKey holds the fleet's serving EpochState (JSON).
	EpochKey = "shard/epoch"
	// ReshardStateKey holds the coordinator's checkpoint (JSON), present
	// only while a reshard is in flight.
	ReshardStateKey = "shard/reshard/state"
	// ReshardLeaseKey is the lease the migration coordinator holds; its
	// fencing epoch makes a crashed-and-resumed coordinator supersede the
	// old one's straggling writes.
	ReshardLeaseKey = "shard/reshard/leader"
	// ackPrefix prefixes the per-source-shard journal-handoff acks.
	ackPrefix = "shard/reshard/ack/"
)

// Reshard phases, in order. A fleet at PhaseStable serves one ring; every
// other phase is a step of a live split (see DESIGN.md "Resharding" for the
// state machine and the per-phase failure matrix).
const (
	PhaseStable  = "stable"
	PhasePrepare = "prepare"
	PhaseCopy    = "copy"
	// PhaseHandoff is the journal-handoff barrier: writes to moving keys are
	// held (503 + Retry-After) while every source shard's leader acks at its
	// lease epoch, after which the coordinator delta copies the quiesced
	// keys. The name is older than the barrier's current form; it is
	// persisted in EpochState and shown by /v1/shards and sbtop, so it stays.
	PhaseHandoff = "journal-handoff"
	// PhaseCutover serves writes from the target ring while reads double up
	// on the previous owner's prefix for calls not yet recovered.
	PhaseCutover = "cutover"
)

// AckKey returns the key source shard s's leader acks the journal-handoff barrier under.
func AckKey(shard int) string {
	return ackPrefix + strconv.Itoa(shard)
}

// EpochState is the fleet-shared serving-ring record at EpochKey. Epoch
// counts ring generations (the boot ring is epoch 1) and bumps exactly once
// per reshard, at cutover.
type EpochState struct {
	Epoch  int64  `json:"epoch"`
	Shards int    `json:"shards"`
	VNodes int    `json:"vnodes"`
	Phase  string `json:"phase"`
	// TargetShards is the ring width being migrated to; set during
	// prepare/copy/journal-handoff, zero when stable.
	TargetShards int `json:"target_shards,omitempty"`
	// PrevShards is the pre-cutover ring width double reads fall back to;
	// set only during cutover.
	PrevShards int `json:"prev_shards,omitempty"`
}

// ReshardState is the coordinator's resumable checkpoint at ReshardStateKey:
// enough for any node to pick the migration up mid-phase after a coordinator
// crash. Copy progress is checkpointed per source shard; rescanning a
// partially copied shard is idempotent (HCOPY replaces the destination).
type ReshardState struct {
	From   int    `json:"from"`
	To     int    `json:"to"`
	VNodes int    `json:"vnodes"`
	Epoch  int64  `json:"epoch"` // serving epoch when the reshard began
	Phase  string `json:"phase"`
	// NextShard is the next source shard the copy scan will visit.
	NextShard int `json:"next_shard"`
	// Copied and Total track moved keys for progress reporting; Total grows
	// as scans discover keys, so Copied/Total is a live fraction, not a
	// promise.
	Copied int `json:"copied"`
	Total  int `json:"total"`
}

// LoadEpoch reads the fleet's EpochState; ok is false when no reshard has
// ever written one (a boot-ring fleet).
func LoadEpoch(ctx context.Context, c *kvstore.Client) (es EpochState, ok bool, err error) {
	raw, err := c.GetContext(ctx, EpochKey)
	if err == kvstore.ErrNil {
		return EpochState{}, false, nil
	}
	if err != nil {
		return EpochState{}, false, err
	}
	if err := json.Unmarshal([]byte(raw), &es); err != nil {
		return EpochState{}, false, fmt.Errorf("shard: corrupt %s: %w", EpochKey, err)
	}
	if es.Shards <= 0 || es.Epoch <= 0 {
		return EpochState{}, false, fmt.Errorf("shard: invalid %s: %+v", EpochKey, es)
	}
	return es, true, nil
}

// SaveEpoch publishes es to the fleet. The caller's client must have the
// coordinator lease's fence armed: the write is how a reshard moves the whole
// fleet, so only the live coordinator may perform it.
//
//sblint:fencepath
func SaveEpoch(ctx context.Context, c *kvstore.Client, es EpochState) error {
	raw, err := json.Marshal(es)
	if err != nil {
		return err
	}
	return c.SetContext(ctx, EpochKey, string(raw))
}

// LoadReshard reads the coordinator checkpoint; ok is false when no reshard
// is in flight.
func LoadReshard(ctx context.Context, c *kvstore.Client) (st ReshardState, ok bool, err error) {
	raw, err := c.GetContext(ctx, ReshardStateKey)
	if err == kvstore.ErrNil {
		return ReshardState{}, false, nil
	}
	if err != nil {
		return ReshardState{}, false, err
	}
	if err := json.Unmarshal([]byte(raw), &st); err != nil {
		return ReshardState{}, false, fmt.Errorf("shard: corrupt %s: %w", ReshardStateKey, err)
	}
	return st, true, nil
}

// saveReshard checkpoints the coordinator state (fenced like SaveEpoch).
//
//sblint:fencepath
func saveReshard(ctx context.Context, c *kvstore.Client, st ReshardState) error {
	raw, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return c.SetContext(ctx, ReshardStateKey, string(raw))
}
