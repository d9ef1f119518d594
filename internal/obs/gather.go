package obs

import (
	"sort"
)

// This file is the structured (non-text) scrape surface: Gather snapshots a
// registry into JSON-friendly family values, and MergeFamilies folds the
// snapshots of many fleet instances into one label-wise view. Counters and
// histogram buckets merge in exact integer arithmetic, so the merged sums
// equal the per-instance sums; gauges merge by addition too, which is the
// right semantic for the level-style gauges this repo exposes (in-flight
// requests, active calls) — ratio-style gauges (SLO burns)
// should be read per instance.

// SnapExemplar is one histogram bucket's exemplar in a snapshot: the trace ID
// (sbtrace/debug-spans resolvable hex form) and the observed value that
// landed it there.
type SnapExemplar struct {
	Bucket int     `json:"bucket"`
	Trace  string  `json:"trace"`
	Value  float64 `json:"value"`
}

// SnapPoint is one sample (one label set) of a family snapshot. Counters use
// Count (exact integer); gauges use Value; histograms use Buckets (non-
// cumulative, +Inf last) plus Count and Sum.
type SnapPoint struct {
	Labels    []string       `json:"labels,omitempty"`
	Value     float64        `json:"value,omitempty"`
	Count     uint64         `json:"count,omitempty"`
	Sum       float64        `json:"sum,omitempty"`
	Buckets   []uint64       `json:"buckets,omitempty"`
	Exemplars []SnapExemplar `json:"exemplars,omitempty"`
}

// SnapFamily is one metric family snapshot.
type SnapFamily struct {
	Name       string      `json:"name"`
	Help       string      `json:"help,omitempty"`
	Kind       string      `json:"kind"`
	LabelNames []string    `json:"label_names,omitempty"`
	Bounds     []float64   `json:"bounds,omitempty"`
	Points     []SnapPoint `json:"points"`
}

// Gather snapshots every registered family, families sorted by name and
// points sorted by label values — the machine-readable twin of WriteTo, and
// the payload /metrics/instance serves for fleet federation. Nil-safe.
func (r *Registry) Gather() []SnapFamily {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]SnapFamily, 0, len(fams))
	for _, f := range fams {
		sf := SnapFamily{
			Name:       f.name,
			Help:       f.help,
			Kind:       f.kind.String(),
			LabelNames: f.labels,
		}
		if f.labels == nil {
			switch f.kind {
			case kindCounter:
				sf.Points = []SnapPoint{{Count: f.counter.Value()}}
			case kindGauge:
				sf.Points = []SnapPoint{{Value: f.gauge.Value()}}
			case kindHistogram:
				sf.Bounds = f.hist.Bounds()
				sf.Points = []SnapPoint{snapHistogram(f.hist, nil)}
			}
		} else {
			for _, c := range f.sortedChildren() {
				switch f.kind {
				case kindCounter:
					sf.Points = append(sf.Points, SnapPoint{Labels: c.labelVals, Count: c.counter.Value()})
				case kindGauge:
					sf.Points = append(sf.Points, SnapPoint{Labels: c.labelVals, Value: c.gauge.Value()})
				case kindHistogram:
					if sf.Bounds == nil {
						sf.Bounds = c.hist.Bounds()
					}
					sf.Points = append(sf.Points, snapHistogram(c.hist, c.labelVals))
				}
			}
		}
		out = append(out, sf)
	}
	return out
}

// sortedChildren snapshots a vec family's children, sorted by label values.
func (f *family) sortedChildren() []*child {
	m := f.kids.Load()
	if m == nil {
		return nil
	}
	children := make([]*child, 0, len(*m))
	for _, c := range *m {
		children = append(children, c)
	}
	sort.Slice(children, func(i, j int) bool {
		return labelKey(children[i].labelVals) < labelKey(children[j].labelVals)
	})
	return children
}

func snapHistogram(h *Histogram, labels []string) SnapPoint {
	nb := len(h.Bounds()) + 1
	p := SnapPoint{
		Labels:  labels,
		Count:   h.Count(),
		Sum:     h.Sum(),
		Buckets: make([]uint64, nb),
	}
	for i := 0; i < nb; i++ {
		p.Buckets[i] = h.BucketCount(i)
	}
	for i := 0; i < nb; i++ {
		if trace, v, ok := h.Exemplar(i); ok {
			p.Exemplars = append(p.Exemplars, SnapExemplar{
				Bucket: i,
				Trace:  formatTraceID(trace),
				Value:  v,
			})
		}
	}
	return p
}

// formatTraceID renders a 64-bit trace ID in the canonical 16-hex-digit form
// span.ID uses, so exemplars resolve directly against /debug/spans?trace= and
// sbtrace (duplicated here rather than imported to keep obs span-free).
func formatTraceID(id uint64) string {
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// MergeFamilies folds per-instance snapshots into one label-wise merged view.
// Counters sum exactly; histogram buckets, counts, and sums add point-wise;
// gauges add. Exemplars on a merged bucket keep the highest-valued exemplar
// across instances — the slowest observation is the one worth chasing into
// sbtrace. Families and points come back sorted, so the merge is
// deterministic regardless of instance order. Instances whose shapes disagree
// (same family name, different kind or bucket bounds) keep the first-seen
// shape and skip mismatched contributions rather than corrupting sums.
func MergeFamilies(instances ...[]SnapFamily) []SnapFamily {
	byName := map[string]*SnapFamily{}
	points := map[string]map[string]*SnapPoint{} // family -> labelKey -> merged point
	var order []string
	for _, fams := range instances {
		for _, f := range fams {
			mf, ok := byName[f.Name]
			if !ok {
				cp := SnapFamily{Name: f.Name, Help: f.Help, Kind: f.Kind, LabelNames: f.LabelNames, Bounds: f.Bounds}
				byName[f.Name] = &cp
				points[f.Name] = map[string]*SnapPoint{}
				order = append(order, f.Name)
				mf = &cp
			}
			if mf.Kind != f.Kind || !sameBounds(mf.Bounds, f.Bounds) {
				continue // shape mismatch; first-seen shape wins
			}
			for _, p := range f.Points {
				key := labelKey(p.Labels)
				mp, ok := points[f.Name][key]
				if !ok {
					cp := SnapPoint{Labels: p.Labels}
					if p.Buckets != nil {
						cp.Buckets = make([]uint64, len(p.Buckets))
					}
					points[f.Name][key] = &cp
					mp = &cp
				}
				mp.Value += p.Value
				mp.Count += p.Count
				mp.Sum += p.Sum
				if len(mp.Buckets) == len(p.Buckets) {
					for i, b := range p.Buckets {
						mp.Buckets[i] += b
					}
				}
				for _, e := range p.Exemplars {
					mergeExemplar(mp, e)
				}
			}
		}
	}
	sort.Strings(order)
	out := make([]SnapFamily, 0, len(order))
	for _, name := range order {
		mf := byName[name]
		keys := make([]string, 0, len(points[name]))
		for k := range points[name] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			mf.Points = append(mf.Points, *points[name][k])
		}
		out = append(out, *mf)
	}
	return out
}

// mergeExemplar keeps at most one exemplar per bucket: the highest value.
func mergeExemplar(p *SnapPoint, e SnapExemplar) {
	for i, have := range p.Exemplars {
		if have.Bucket == e.Bucket {
			if e.Value > have.Value {
				p.Exemplars[i] = e
			}
			return
		}
	}
	p.Exemplars = append(p.Exemplars, e)
	sort.Slice(p.Exemplars, func(i, j int) bool { return p.Exemplars[i].Bucket < p.Exemplars[j].Bucket })
}

func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
