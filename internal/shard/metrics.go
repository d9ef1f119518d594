package shard

import (
	"strconv"

	"switchboard/internal/controller"
	"switchboard/internal/obs"
)

// Metrics is the sharded-control-plane telemetry bundle: per-shard leadership
// gauges plus fleet-level counters aggregated across every shard's elector.
// Nil-safe like the rest of the obs sinks.
type Metrics struct {
	// Leader and Epoch are per-shard: sb_shard_leader{shard="2"} is 1 while
	// this process leads shard 2, and sb_shard_epoch carries that
	// leadership's fencing epoch.
	Leader *obs.GaugeVec
	Epoch  *obs.GaugeVec
	// Owned is how many shards this process currently leads.
	Owned *obs.Gauge
	// Renewals/Losses/Takeovers aggregate the per-shard elector counters.
	Renewals  *obs.Counter
	Losses    *obs.Counter
	Takeovers *obs.Counter
	// Handoffs counts orderly shard handoffs (lease resigned) on Stop.
	Handoffs *obs.Counter
	// RingEpoch is the serving ring's epoch as last observed by this node
	// (1 for the boot ring; bumps once per completed reshard).
	RingEpoch *obs.Gauge
	// ReshardPhase is the observed reshard phase: 0 stable, 1 prepare,
	// 2 copy, 3 journal-handoff, 4 cutover.
	ReshardPhase *obs.Gauge
	// ReshardCopied / ReshardTotal mirror the coordinator's moved-key
	// progress (both 0 when no reshard is in flight).
	ReshardCopied *obs.Gauge
	ReshardTotal  *obs.Gauge
	// ReshardRetries counts coordinator step retries (capped jittered
	// backoff on store trouble).
	ReshardRetries *obs.Counter
	// HandoffHeld counts writes 503'd by the journal-handoff write pause.
	HandoffHeld *obs.Counter
	// ProxyHopsExhausted counts requests bounced between nodes until the
	// proxy hop budget ran out (typed 503 instead of serving).
	ProxyHopsExhausted *obs.Counter
}

// NewMetrics registers the shard metric families on r (nil r yields a usable
// all-nil Metrics).
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Leader: r.GaugeVec("sb_shard_leader",
			"1 while this process holds the shard's leadership lease.", "shard"),
		Epoch: r.GaugeVec("sb_shard_epoch",
			"Lease epoch of the shard leadership (0 when not leading).", "shard"),
		Owned: r.Gauge("sb_shard_owned",
			"Shards this process currently leads."),
		Renewals: r.Counter("sb_shard_lease_renewals_total",
			"Successful shard-lease acquisitions and renewals, all shards."),
		Losses: r.Counter("sb_shard_lease_losses_total",
			"Shard leadership losses, all shards."),
		Takeovers: r.Counter("sb_shard_lease_takeovers_total",
			"Shard leaderships acquired over a lapsed lease, all shards."),
		Handoffs: r.Counter("sb_shard_handoffs_total",
			"Orderly shard handoffs (lease resigned on Stop)."),
		RingEpoch: r.Gauge("sb_shard_ring_epoch",
			"Serving ring epoch as last observed (1 = boot ring)."),
		ReshardPhase: r.Gauge("sb_shard_reshard_phase",
			"Observed reshard phase: 0 stable, 1 prepare, 2 copy, 3 journal-handoff, 4 cutover."),
		ReshardCopied: r.Gauge("sb_reshard_keys_copied",
			"Moved call-state keys copied so far by the running reshard."),
		ReshardTotal: r.Gauge("sb_reshard_keys_total",
			"Moved call-state keys discovered so far by the running reshard."),
		ReshardRetries: r.Counter("sb_reshard_retries_total",
			"Reshard coordinator step retries (capped jittered backoff)."),
		HandoffHeld: r.Counter("sb_shard_handoff_held_total",
			"Writes held (503) by the journal-handoff pause on moving keys."),
		ProxyHopsExhausted: r.Counter("sb_shard_proxy_hops_exhausted_total",
			"Requests that exhausted the shard proxy hop budget."),
	}
}

// ringEpochGauge, phaseGauge, and reshardGauges dodge nil-Metrics checks at
// the watcher's update sites.
func (m *Metrics) ringEpochGauge() *obs.Gauge {
	if m == nil {
		return nil
	}
	return m.RingEpoch
}

func (m *Metrics) phaseGauge() *obs.Gauge {
	if m == nil {
		return nil
	}
	return m.ReshardPhase
}

func (m *Metrics) reshardGauges(copied, total float64) {
	if m == nil {
		return
	}
	m.ReshardCopied.Set(copied)
	m.ReshardTotal.Set(total)
}

// ownedGauge dodges nil-Metrics checks at the Manager's lead/lose sites.
func (m *Metrics) ownedGauge() *obs.Gauge {
	if m == nil {
		return nil
	}
	return m.Owned
}

// electorMetrics adapts the bundle into the per-shard view one
// controller.Elector updates: its own leader/epoch gauges, shared counters.
func (m *Metrics) electorMetrics(shard int) *controller.ElectorMetrics {
	if m == nil {
		return nil
	}
	label := strconv.Itoa(shard)
	return &controller.ElectorMetrics{
		Leader:    m.Leader.With(label),
		Epoch:     m.Epoch.With(label),
		Renewals:  m.Renewals,
		Losses:    m.Losses,
		Takeovers: m.Takeovers,
	}
}
