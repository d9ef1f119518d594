package span

import (
	"net/http"
	"strconv"
)

// WrapHTTP wraps h so each request runs under a fresh root span named after
// the route, with the request context carrying the span for everything
// downstream (controller, kvstore). The final HTTP status lands in the
// http.status attr; 5xx marks the span errored. A nil tracer returns h
// unchanged, so wiring is unconditional.
func (t *Tracer) WrapHTTP(route string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	name := "http " + route
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		ctx, sp := t.Start(req.Context(), name)
		sw := RecordStatus(w)
		h.ServeHTTP(sw, req.WithContext(ctx))
		sp.SetAttr("http.status", statusAttr(sw.code))
		if sw.code >= 500 {
			sp.SetStatus("error")
		}
		sp.End()
	})
}

// statusAttr renders a status code, without allocating for a 200.
func statusAttr(code int) string {
	if code == http.StatusOK {
		return "200"
	}
	return strconv.Itoa(code)
}

// StatusWriter records the status code its handler writes. WrapHTTP and
// obs.HTTPMetrics.Wrap share one per request: the outer middleware wraps
// the writer and the inner one reads the same record (see RecordStatus).
// It deliberately implements only http.ResponseWriter: the API serves small
// JSON bodies, so Flusher/Hijacker passthrough is not needed on its routes.
type StatusWriter struct {
	http.ResponseWriter
	code int
}

// RecordStatus returns w as a StatusWriter: w itself when it already is one,
// else a new one wrapping it.
func RecordStatus(w http.ResponseWriter) *StatusWriter {
	if sw, ok := w.(*StatusWriter); ok {
		return sw
	}
	return &StatusWriter{ResponseWriter: w, code: http.StatusOK}
}

// WriteHeader records code and passes it on.
func (w *StatusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Status returns the status code written so far (200 until WriteHeader).
func (w *StatusWriter) Status() int { return w.code }
