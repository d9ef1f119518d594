package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"switchboard/internal/obs/span"
)

func TestHTTPMiddleware(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg)
	ok := m.Wrap("POST /v1/call/start", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	conflict := m.Wrap("POST /v1/call/start", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "dup", http.StatusConflict)
	}))
	boom := m.Wrap("GET /v1/stats", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	implicit := m.Wrap("GET /healthz", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		// No explicit WriteHeader: implicit 200 must still be counted.
		_, _ = w.Write([]byte("ok"))
	}))

	for _, h := range []http.Handler{ok, ok, conflict, boom, implicit} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	}

	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`sb_http_requests_total{route="POST /v1/call/start",code="2xx"} 2`,
		`sb_http_requests_total{route="POST /v1/call/start",code="4xx"} 1`,
		`sb_http_requests_total{route="GET /v1/stats",code="5xx"} 1`,
		`sb_http_requests_total{route="GET /healthz",code="2xx"} 1`,
		`sb_http_request_seconds_count{route="POST /v1/call/start"} 3`,
		`sb_http_inflight_requests 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestStandby503ExemptFromBurn: a 503 carrying the StandbyHeader is correct
// replica behavior, not an outage — it must stay out of the availability
// SLO's 5xx aggregate while remaining visible in the per-route counters.
func TestStandby503ExemptFromBurn(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg)
	standby := m.Wrap("POST /v1/call/start", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set(StandbyHeader, "1")
		http.Error(w, "standby", http.StatusServiceUnavailable)
	}))
	outage := m.Wrap("POST /v1/call/start", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusServiceUnavailable)
	}))
	for _, h := range []http.Handler{standby, standby, outage} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/call/start", nil))
	}
	total, err5xx := m.Totals()
	if total != 3 {
		t.Fatalf("total = %d, want 3", total)
	}
	if err5xx != 1 {
		t.Fatalf("err5xx = %d, want 1 (standby 503s must not burn)", err5xx)
	}
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `sb_http_requests_total{route="POST /v1/call/start",code="5xx"} 3`) {
		t.Fatalf("per-route counter lost the standby 503s:\n%s", sb.String())
	}
}

// TestMiddlewaresShareStatusWriter: the metrics middleware around the
// tracing one wraps the response writer once, and both read the status the
// handler wrote through that one writer.
func TestMiddlewaresShareStatusWriter(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg)
	ring := span.NewRing(8)
	rec := httptest.NewRecorder()
	var wraps int
	h := m.Wrap("POST /v1/call/start", span.NewTracer(1, ring).WrapHTTP("POST /v1/call/start",
		http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			inner := w
			for {
				sw, ok := inner.(*span.StatusWriter)
				if !ok {
					break
				}
				wraps++
				inner = sw.ResponseWriter
			}
			if inner != rec {
				t.Errorf("handler's writer wraps %T, want the recorder", inner)
			}
			http.Error(w, "boom", http.StatusInternalServerError)
		})))
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/call/start", nil))
	if wraps != 1 {
		t.Fatalf("handler's writer is wrapped %d times, want once", wraps)
	}
	if _, err5xx := m.Totals(); err5xx != 1 {
		t.Errorf("err5xx = %d, want 1", err5xx)
	}
	recs := ring.Snapshot(0)
	if len(recs) != 1 || recs[0].Attrs.Get("http.status") != "500" || recs[0].Status != "error" {
		t.Fatalf("request span = %+v, want http.status 500 and status error", recs)
	}
}
