package obs

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"switchboard/internal/obs/span"
)

// Decision records one realtime placement/migration/failover decision: what
// the controller was asked, which DCs it considered, what it chose and why,
// and what the store path looked like when it decided. The ring of recent
// decisions is the "why did call X land on DC Y" debugging surface the
// /v1/stats aggregates cannot answer.
type Decision struct {
	// Seq is a monotonically increasing sequence number (ring-local).
	Seq uint64 `json:"seq"`
	// Time is when the decision was taken.
	Time time.Time `json:"time"`
	// Kind is the decision type: "start", "freeze", "failover".
	Kind string `json:"kind"`
	// Call is the call ID the decision concerns.
	Call uint64 `json:"call"`
	// Config is the call's config key when known ("" before freeze).
	Config string `json:"config,omitempty"`
	// Candidates are the DCs that were considered, in preference order.
	Candidates []int `json:"candidates,omitempty"`
	// Chosen is the DC the call is on after the decision (-1: none).
	Chosen int `json:"chosen"`
	// Prev is the DC the call was on before the decision (-1: new call).
	Prev int `json:"prev"`
	// Planned reports whether the choice debits an allocation-plan slot.
	Planned bool `json:"planned"`
	// Migrated reports whether the decision moved the call.
	Migrated bool `json:"migrated"`
	// Reason explains the choice: "first-joiner", "predicted", "plan",
	// "unplanned-majority", "reroute-failed-dc", "drain", "keep".
	Reason string `json:"reason"`
	// Shard is the control-plane shard that took the decision (-1 when the
	// controller is unsharded).
	Shard int `json:"shard"`
	// Duration is how long the decision took end to end.
	Duration time.Duration `json:"duration_ns"`
}

// DecisionRing is a bounded ring buffer of recent decisions. Record
// overwrites the oldest entry once full, so memory is fixed regardless of
// call volume. Nil-safe: Record and Snapshot are no-ops on nil, letting
// callers wire "tracing off" as a nil ring.
type DecisionRing struct {
	mu   sync.Mutex
	buf  []Decision // guarded by mu; ring storage
	next int        // guarded by mu; index of the slot Record writes next
	size int        // guarded by mu; live entries (≤ len(buf))
	seq  uint64     // guarded by mu; total decisions ever recorded
}

// DefaultRingCapacity bounds the decision ring when callers pass 0.
const DefaultRingCapacity = 1024

// NewDecisionRing returns a ring holding the last capacity decisions
// (DefaultRingCapacity when capacity <= 0).
func NewDecisionRing(capacity int) *DecisionRing {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &DecisionRing{buf: make([]Decision, capacity)}
}

// Record appends a decision, stamping its sequence number.
func (r *DecisionRing) Record(d Decision) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.seq++
	d.Seq = r.seq
	r.buf[r.next] = d
	r.next = (r.next + 1) % len(r.buf)
	if r.size < len(r.buf) {
		r.size++
	}
	r.mu.Unlock()
}

// Snapshot returns up to n recent decisions, newest first (n <= 0: all).
func (r *DecisionRing) Snapshot(n int) []Decision {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 || n > r.size {
		n = r.size
	}
	out := make([]Decision, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// Total returns how many decisions were ever recorded (including ones the
// ring has since overwritten).
func (r *DecisionRing) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Handler serves the ring as JSON: {"total": N, "decisions": [...]} with the
// newest decision first. ?n=K limits the dump to the K most recent; invalid
// values answer 400 (validation shared with /debug/spans via
// span.ParseLimit).
func (r *DecisionRing) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		n, err := span.ParseLimit(req.URL.Query().Get("n"))
		if err != nil {
			http.Error(w, `{"error":"`+err.Error()+`"}`, http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"total":     r.Total(),
			"decisions": r.Snapshot(n),
		})
	})
}
