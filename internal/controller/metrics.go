package controller

import (
	"time"

	"switchboard/internal/obs"
	"switchboard/internal/obs/span"
)

// Metrics is the controller's telemetry bundle. Every field is nil-safe, so
// a zero-value Metrics (telemetry off) costs one nil check per sink call on
// the hot path — measured at well under 5% of placement cost even when on
// (see TestObsOverheadOnPlacement).
type Metrics struct {
	Started    *obs.Counter
	Frozen     *obs.Counter
	Migrated   *obs.Counter
	Unplanned  *obs.Counter
	Ended      *obs.Counter
	Predicted  *obs.Counter
	FailedOver *obs.Counter
	// StoreWriteFailures counts call-state writes the store did not take,
	// each of which failed its request.
	StoreWriteFailures *obs.Counter
	// FencedWrites counts call-state writes rejected by the store's fencing
	// check — evidence this controller kept writing after losing leadership.
	FencedWrites *obs.Counter

	ActiveCalls *obs.Gauge

	// PlaceSeconds times the placement decisions (CallStarted and
	// ConfigKnown, excluding store I/O); PersistSeconds times the store
	// write path.
	PlaceSeconds   *obs.Histogram
	PersistSeconds *obs.Histogram
}

// NewMetrics registers the controller metric families on r (nil r yields a
// usable all-nil Metrics).
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Started:    r.Counter("sb_controller_calls_started_total", "Calls assigned on first join."),
		Frozen:     r.Counter("sb_controller_calls_frozen_total", "Calls whose config became known."),
		Migrated:   r.Counter("sb_controller_calls_migrated_total", "Calls moved to a different DC at freeze time."),
		Unplanned:  r.Counter("sb_controller_calls_unplanned_total", "Frozen calls whose config was not in the allocation plan."),
		Ended:      r.Counter("sb_controller_calls_ended_total", "Completed calls."),
		Predicted:  r.Counter("sb_controller_calls_predicted_total", "Calls placed from a series-config prediction at start."),
		FailedOver: r.Counter("sb_controller_calls_failed_over_total", "Live calls drained off failed DCs."),
		StoreWriteFailures: r.Counter("sb_controller_store_write_failures_total",
			"Call-state writes the store did not take; each failed its request with 503."),
		FencedWrites: r.Counter("sb_controller_fenced_writes_total",
			"Call-state writes rejected by lease fencing after leadership loss."),
		ActiveCalls: r.Gauge("sb_controller_active_calls", "In-flight calls."),
		PlaceSeconds: r.Histogram("sb_controller_place_seconds",
			"Placement decision time (start and freeze), excluding store I/O.", nil),
		PersistSeconds: r.Histogram("sb_controller_persist_seconds",
			"Call-state persist time, store round trip included.", nil),
	}
}

// observePlace records a placement-latency sample, stamping the active trace
// ID as the bucket's exemplar so a fleet scrape of a slow bucket links
// straight to the trace that landed there (sbtrace / /debug/spans?trace=).
// sp is the operation's own span (nil when tracing is off).
func (c *Controller) observePlace(sp *span.Span, secs float64) {
	if trace := sp.TraceID(); trace != 0 {
		c.metrics.PlaceSeconds.ObserveExemplar(secs, uint64(trace))
		return
	}
	c.metrics.PlaceSeconds.Observe(secs)
}

// obsStart returns the wall-clock start for a timed section, or the zero
// time when neither metrics timing nor decision tracing is enabled, keeping
// the uninstrumented hot path free of clock reads.
func (c *Controller) obsStart() time.Time {
	if c.obsOn {
		return time.Now()
	}
	return time.Time{}
}

// sinceObs converts an obsStart time into seconds (0 when timing is off).
func sinceObs(start time.Time) (time.Duration, float64) {
	if start.IsZero() {
		return 0, 0
	}
	d := time.Since(start)
	return d, d.Seconds()
}
