package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one op share Op; a child names its
// parent span within the op (parents are unique per op), and a root has no
// parent. Times are nanoseconds since the recorder's base instant.
type span struct {
	Name   string `json:"name"`
	Op     uint64 `json:"op"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run writes them out. Safe for
// concurrent use: the HTTP handler wrapper records from server goroutines.
type recorder struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{base: time.Now(), spans: make([]span, 0, capacity)}
}

// now reads the monotonic clock relative to the recorder's base.
func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

// maxDump bounds the spans a run writes out: a traced callctl_mem run records
// about a million (70 MB of JSONL).
const maxDump = 250_000

// writeJSONL writes the spans, one JSON object per line, to dir/name. Past
// maxDump spans it keeps every span of one op ID in a fixed stride, so each
// op written is whole. It returns the stride.
func (r *recorder) writeJSONL(dir, name string) (uint64, error) {
	spans := r.snapshot()
	stride := max(1, uint64(len(spans)+maxDump-1)/maxDump)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if s.Op%stride != 0 {
			continue
		}
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return 0, err
	}
	return stride, f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children are counted
// once, and a child's time outside its parent's interval is ignored.
func selfTimes(spans []span) []int64 {
	type key struct {
		op     uint64
		parent string
	}
	children := make(map[key][]int)
	for i, s := range spans {
		if s.Parent != "" {
			k := key{s.Op, s.Parent}
			children[k] = append(children[k], i)
		}
	}
	out := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, c := range children[key{s.Op, s.Name}] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		out[i] = s.dur() - covered(iv)
	}
	return out
}

// covered returns the total length of the union of intervals. It sorts iv.
func covered(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	var total, end int64
	first := true
	for _, in := range iv {
		switch {
		case first || in[0] >= end:
			total += in[1] - in[0]
			end = in[1]
			first = false
		case in[1] > end:
			total += in[1] - end
			end = in[1]
		}
	}
	return total
}

// byName collects, for every span with the given name, its duration and
// self time in microseconds, keyed by op.
func byName(spans []span, self []int64, name string) (dur, selfUs map[uint64]float64) {
	dur = make(map[uint64]float64)
	selfUs = make(map[uint64]float64)
	for i, s := range spans {
		if s.Name == name {
			dur[s.Op] = float64(s.dur()) / 1e3
			selfUs[s.Op] = float64(self[i]) / 1e3
		}
	}
	return dur, selfUs
}

// values returns m's values in ascending order.
func values(m map[uint64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// timer records a child span of an op when a recorder is set.
type timer struct {
	rec    *recorder
	op     uint64
	parent string
}

func (t timer) span(name string, f func() error) error {
	if t.rec == nil {
		return f()
	}
	s := t.rec.now()
	err := f()
	t.rec.add(span{Name: name, Op: t.op, Parent: t.parent, Start: s, End: t.rec.now()})
	return err
}

// spanFile names a run's span dump.
func spanFile(workload string, seed int64) string {
	return fmt.Sprintf("%s-seed%d.jsonl", workload, seed)
}
