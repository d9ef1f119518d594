package obs

import (
	"net/http"
	"time"

	"switchboard/internal/obs/span"
)

// HTTPMetrics instruments HTTP routes with request counts (by route and
// status class), latency histograms (by route), and an in-flight gauge.
// Children are resolved once per route at wrap time, so the per-request cost
// is two atomic ops and one histogram observe — no label lookups, no
// allocations beyond the status-recording writer, which it shares with the
// tracing middleware (see span.StatusWriter).
type HTTPMetrics struct {
	requests *CounterVec   // labels: route, code (status class: "2xx"...)
	latency  *HistogramVec // labels: route
	inflight *Gauge

	// total and err5xx aggregate across routes for the availability SLO
	// (see SLOMonitor). They are plain atomics, not registered families —
	// /metrics already carries the same information per route.
	total  Counter
	err5xx Counter
}

// NewHTTPMetrics registers the HTTP metric families on r. Nil-safe: a nil
// registry yields nil, and (*HTTPMetrics)(nil).Wrap returns the handler
// unchanged.
func NewHTTPMetrics(r *Registry) *HTTPMetrics {
	if r == nil {
		return nil
	}
	return &HTTPMetrics{
		requests: r.CounterVec("sb_http_requests_total",
			"HTTP requests served, by route pattern and status class.", "route", "code"),
		latency: r.HistogramVec("sb_http_request_seconds",
			"HTTP request service time in seconds, by route pattern.", nil, "route"),
		inflight: r.Gauge("sb_http_inflight_requests",
			"HTTP requests currently being served."),
	}
}

// StandbyHeader marks a 503 as correct standby behavior — a replica that is
// not the leader refusing work it must not do — rather than a failure. The
// middleware excludes such responses from the availability SLO's 5xx count:
// a hot standby would otherwise burn its own error budget by existing. The
// per-route status-class counters still see the 503, so the refusals remain
// visible in /metrics.
const StandbyHeader = "X-Switchboard-Standby"

// statusClasses cover every valid status code bucket; resolved per route at
// wrap time so the serve path never touches the vec maps.
var statusClasses = [...]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// Wrap instruments h under the given route label (typically the mux pattern,
// e.g. "POST /v1/call/start").
func (m *HTTPMetrics) Wrap(route string, h http.Handler) http.Handler {
	if m == nil {
		return h
	}
	var byClass [len(statusClasses)]*Counter
	for i, c := range statusClasses {
		byClass[i] = m.requests.With(route, c)
	}
	lat := m.latency.With(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m.inflight.Add(1)
		start := time.Now()
		sw := span.RecordStatus(w)
		h.ServeHTTP(sw, r)
		lat.Observe(time.Since(start).Seconds())
		m.inflight.Add(-1)
		m.total.Inc()
		code := sw.Status()
		if code >= 500 && sw.Header().Get(StandbyHeader) == "" {
			m.err5xx.Inc()
		}
		if i := code/100 - 1; i >= 0 && i < len(byClass) {
			byClass[i].Inc()
		}
	})
}

// Totals returns the all-routes request and 5xx counts, the availability
// SLO's raw inputs. Zero on nil.
func (m *HTTPMetrics) Totals() (total, err5xx uint64) {
	if m == nil {
		return 0, 0
	}
	return m.total.Value(), m.err5xx.Value()
}
