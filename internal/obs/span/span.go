// Package span is Switchboard's request-scoped tracing substrate: 64-bit
// trace/span IDs propagated through context.Context, so one placement's
// journey — HTTP edge, controller decision, persist, kvstore wire — is
// reconstructable as a single trace. It complements internal/obs: metrics
// answer "how many / how slow in aggregate", the decision ring answers "what
// did the controller choose", and spans answer "where did *this* call's time
// go".
//
// Design rules, mirroring internal/obs:
//
//   - Nil-safe everywhere: a nil *Tracer starts no spans, a nil *Span
//     swallows every method. "Tracing off" is a nil tracer and costs zero
//     allocations on the hot path — instrumented code never branches on a
//     config flag, it just calls Child/End unconditionally.
//   - Spans flow via context.Context. Creating a child requires only the
//     context (the parent carries its tracer), so packages deep in the call
//     tree (kvstore) need no tracer wiring of their own.
//   - Stdlib-only, and imported by internal/obs (not the reverse), so every
//     layer can depend on it without cycles.
//
// ID format: trace and span IDs are 64-bit values rendered as 16 hex digits.
// Generation is deterministic per tracer (a seeded splitmix64 sequence), so
// tests replay byte-identical traces. The trace ID never goes on the
// kvstore wire (see internal/kvstore); in logs it appears as the `trace_id`
// attribute (see LogHandler).
package span

import (
	"context"
	"encoding/json"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
	"unsafe"
)

// ID is a 64-bit trace or span identifier, rendered as 16 hex digits.
type ID uint64

// String renders the ID in the canonical zero-padded hex form.
func (id ID) String() string {
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[id&0xf]
		id >>= 4
	}
	return string(b[:]) //sblint:allowalloc(renders an ID for export or wire prefixing; only runs when tracing is active)
}

// ParseID parses the canonical hex form (as produced by String; leading
// zeros optional).
func ParseID(s string) (ID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	return ID(v), err
}

// MarshalJSON renders the ID as a hex string.
func (id ID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + id.String() + `"`), nil
}

// UnmarshalJSON accepts the hex string form.
func (id *ID) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	v, err := ParseID(s)
	if err != nil {
		return err
	}
	*id = v
	return nil
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// Attrs is a span's annotation list, marshalled as a JSON object (insertion
// order is preserved in memory; JSON object keys lose it, which is fine for
// the consumers — sbtrace and humans).
type Attrs []Attr

// MarshalJSON renders the list as {"k":"v",...}.
func (a Attrs) MarshalJSON() ([]byte, error) {
	out := []byte{'{'}
	for i, kv := range a {
		if i > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendQuote(out, kv.Key)
		out = append(out, ':')
		out = strconv.AppendQuote(out, kv.Value)
	}
	return append(out, '}'), nil
}

// UnmarshalJSON accepts the object form. Decoded attrs come back sorted by
// key (JSON objects do not preserve insertion order).
func (a *Attrs) UnmarshalJSON(b []byte) error {
	m := map[string]string{}
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	out := (*a)[:0]
	for k, v := range m {
		out = append(out, Attr{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	*a = out
	return nil
}

// Get returns the value for key ("" when absent).
func (a Attrs) Get(key string) string {
	for _, kv := range a {
		if kv.Key == key {
			return kv.Value
		}
	}
	return ""
}

// Record is one finished span — the unit every sink receives and the JSONL
// schema cmd/sbtrace reads. Duration marshals as integer nanoseconds.
type Record struct {
	Trace    ID            `json:"trace"`
	Span     ID            `json:"span"`
	Parent   ID            `json:"parent,omitempty"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"dur_ns"`
	// Status is "" while healthy, "error" after SetError/SetStatus.
	Status string `json:"status,omitempty"`
	Attrs  Attrs  `json:"attrs,omitempty"`
}

// End returns the span's end time.
func (r Record) End() time.Time { return r.Start.Add(r.Duration) }

// Sink receives finished spans. Implementations must be safe for concurrent
// use; ExportSpan is fire-and-forget by contract (telemetry failure is not an
// error the traced code can act on).
type Sink interface {
	ExportSpan(Record)
}

// Tracer creates root spans and generates IDs. A nil Tracer is "tracing
// off": Start returns the context unchanged and a nil span.
type Tracer struct {
	state atomic.Uint64 // splitmix64 counter state
	sinks []Sink
}

// NewTracer returns a tracer whose ID sequence is a pure function of seed
// and whose finished spans fan out to sinks (nil sinks are skipped).
func NewTracer(seed int64, sinks ...Sink) *Tracer {
	t := &Tracer{}
	t.state.Store(uint64(seed))
	for _, s := range sinks {
		if s != nil {
			t.sinks = append(t.sinks, s)
		}
	}
	return t
}

// nextID steps the splitmix64 sequence. The golden-gamma increment visits
// every uint64 before repeating; the output mix makes consecutive IDs look
// unrelated. Zero outputs are skipped so 0 can mean "no parent".
func (t *Tracer) nextID() ID {
	for {
		x := t.state.Add(0x9e3779b97f4a7c15)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return ID(x)
		}
	}
}

func (t *Tracer) export(r Record) {
	for _, s := range t.sinks {
		s.ExportSpan(r) //sblint:allowalloc(sinks are caller-supplied; export cost is the tracer owner's choice)
	}
}

// Span is one in-flight timed operation. A span is owned by the goroutine
// that started it; End publishes it to the tracer's sinks. All methods are
// no-ops on a nil receiver.
type Span struct {
	t   *Tracer
	rec Record
	// attrsBuf backs the first attrs in place, so the usual one- or
	// two-attr span (a call ID, a status) annotates without a heap grow;
	// spans are never reused after End, so exported Records may alias it.
	attrsBuf [2]Attr
	// numBuf backs SetAttrUint's digit string the same way.
	numBuf [20]byte
	// ended makes End idempotent, so a hot path can publish the span early
	// (EndWithDuration) while a deferred End stays as the error-path net.
	ended bool
}

// TraceID returns the span's trace ID (0 on nil).
func (s *Span) TraceID() ID {
	if s == nil {
		return 0
	}
	return s.rec.Trace
}

// SpanID returns the span's own ID (0 on nil).
func (s *Span) SpanID() ID {
	if s == nil {
		return 0
	}
	return s.rec.Span
}

// StartTime returns when the span started (zero on nil) — instrumented
// callers reuse it instead of reading the clock a second time.
func (s *Span) StartTime() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.rec.Start
}

// SetAttr appends a key/value annotation.
func (s *Span) SetAttr(key, value string) {
	if s != nil {
		s.rec.Attrs = append(s.rec.Attrs, Attr{key, value}) //sblint:allowalloc(span annotation; reached only when tracing is active (nil spans no-op))
	}
}

// SetAttrUint appends a key with v's decimal form, encoding the digits into
// span-owned storage so the hot-path annotation (a call ID) never touches the
// heap. At most one uint attr per span — a second call would reuse the bytes
// backing the first one's value.
func (s *Span) SetAttrUint(key string, v uint64) {
	if s == nil {
		return
	}
	b := strconv.AppendUint(s.numBuf[:0], v, 10)
	// The string header aliases numBuf, which is written exactly once and
	// immutable from here on; the span outlives every Record that aliases it
	// (sinks hold the Record, the Record's attr strings hold the span).
	s.rec.Attrs = append(s.rec.Attrs, Attr{key, unsafe.String(&s.numBuf[0], len(b))}) //sblint:allowalloc(appends into the span's inline attr buffer; hot-path spans stay within its capacity)
}

// SetStatus overwrites the span status ("" means ok).
func (s *Span) SetStatus(status string) {
	if s != nil {
		s.rec.Status = status
	}
}

// SetError marks the span failed and records the error text. A nil err is a
// no-op, so call sites can pass the error unconditionally.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.rec.Status = "error"
	s.rec.Attrs = append(s.rec.Attrs, Attr{"error", err.Error()}) //sblint:allowalloc(error annotation on an active span; the error path already allocated)
}

// End stamps the duration and exports the span. End is terminal: the span
// must not be reused, and a second End is a no-op.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.rec.Duration = time.Since(s.rec.Start)
	s.t.export(s.rec)
}

// EndWithDuration publishes the span with an externally measured duration,
// for hot paths that already read the clock for a latency histogram and
// shouldn't pay for a second read. Like End it is terminal and idempotent,
// so a deferred End after it is a no-op.
func (s *Span) EndWithDuration(d time.Duration) {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.rec.Duration = d
	s.t.export(s.rec)
}

// NewChild returns a child span of s without touching any context — the
// shape for loop legs (one span per kvstore attempt) where building a
// context per iteration would be waste. Nil-safe: a nil s yields nil.
func (s *Span) NewChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{t: s.t, rec: Record{ //sblint:allowalloc(one span per traced attempt; nil parents return above without allocating)
		Trace:  s.rec.Trace,
		Span:   s.t.nextID(),
		Parent: s.rec.Span,
		Name:   name,
		// Derive the start from the parent's reading plus the monotonic
		// delta: Add carries the monotonic component forward, and the
		// time.Since fast path is about half the cost of a full time.Now
		// wall read on hosts with slow clocks.
		Start: s.rec.Start.Add(time.Since(s.rec.Start)),
	}}
	c.rec.Attrs = c.attrsBuf[:0]
	return c
}

// ctxKey is the context key for the active span (zero-size, so the
// FromContext lookup never allocates).
type ctxKey struct{}

// Start begins a root span (fresh trace ID) and returns a context carrying
// it. On a nil tracer it returns ctx unchanged and a nil span.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	s := &Span{t: t, rec: Record{
		Trace: t.nextID(),
		Span:  t.nextID(),
		Name:  name,
		Start: time.Now(),
	}}
	s.rec.Attrs = s.attrsBuf[:0]
	return context.WithValue(ctx, ctxKey{}, s), s
}

// ContextWith returns ctx carrying s as the active span (ctx unchanged when
// s is nil). It is Child's context half, for callers that create the span
// first and only need the context on some branches.
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s) //sblint:allowalloc(context wrapper exists only when a span is active)
}

// FromContext returns the active span, or nil when the context carries none.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span) //sblint:allowalloc(Value is dynamic dispatch only; the zero-size key makes the lookup allocation-free)
	return s
}

// Child begins a child of the context's active span and returns a context
// carrying the child. When the context carries no span (tracing off) it
// returns ctx unchanged and nil without allocating — the zero-cost contract
// instrumented hot paths rely on.
func Child(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.NewChild(name)
	return context.WithValue(ctx, ctxKey{}, s), s //sblint:allowalloc(context wrapper exists only when a span is active; tracing-off callers returned above)
}

// ContextTraceID returns the active trace ID and whether one exists, without
// allocating. The kvstore client uses it to decide whether to prefix the
// wire command.
func ContextTraceID(ctx context.Context) (ID, bool) {
	if s := FromContext(ctx); s != nil {
		return s.rec.Trace, true
	}
	return 0, false
}
