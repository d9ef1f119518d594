package obs

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"strconv"
)

// WriteTo renders every registered family in Prometheus text exposition
// format (version 0.0.4), families sorted by name and vec children sorted by
// label values, so output is deterministic for a given metric state. It is a
// text encoder over Gather, the snapshot /metrics/instance serves as JSON.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	if r == nil {
		return 0, nil
	}
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw}
	for _, f := range r.Gather() {
		renderFamily(cw, f)
		if cw.err != nil {
			return cw.n, cw.err
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// Handler returns an http.Handler serving the exposition (the /metrics
// endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.WriteTo(w)
	})
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (cw *countingWriter) WriteString(s string) {
	if cw.err != nil {
		return
	}
	n, err := io.WriteString(cw.w, s)
	cw.n += int64(n)
	cw.err = err
}

// renderFamily emits one family snapshot: HELP and TYPE, then one sample
// per point (a histogram point expands to its buckets, _sum and _count).
func renderFamily(w *countingWriter, f SnapFamily) {
	w.WriteString("# HELP " + f.Name + " " + escapeHelp(f.Help) + "\n")
	w.WriteString("# TYPE " + f.Name + " " + f.Kind + "\n")
	for _, p := range f.Points {
		lbl := renderLabels(f.LabelNames, p.Labels)
		switch f.Kind {
		case "counter":
			w.WriteString(f.Name + braced(lbl) + " " + formatUint(p.Count) + "\n")
		case "gauge":
			w.WriteString(f.Name + braced(lbl) + " " + formatFloat(p.Value) + "\n")
		case "histogram":
			renderHistogram(w, f.Name, lbl, f.Bounds, p)
		}
	}
}

// renderHistogram emits the cumulative _bucket series plus _sum and _count.
// extraLabels is a pre-rendered `k="v",...` fragment or "".
func renderHistogram(w *countingWriter, name, extraLabels string, bounds []float64, p SnapPoint) {
	var cum uint64
	for i, b := range bounds {
		cum += p.Buckets[i]
		w.WriteString(name + "_bucket{" + joinLabels(extraLabels, `le="`+formatFloat(b)+`"`) + "} " + formatUint(cum) + "\n")
	}
	cum += p.Buckets[len(bounds)]
	w.WriteString(name + "_bucket{" + joinLabels(extraLabels, `le="+Inf"`) + "} " + formatUint(cum) + "\n")
	w.WriteString(name + "_sum" + braced(extraLabels) + " " + formatFloat(p.Sum) + "\n")
	w.WriteString(name + "_count" + braced(extraLabels) + " " + formatUint(p.Count) + "\n")
}

// braced wraps a non-empty label fragment in braces.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func joinLabels(extra, le string) string {
	if extra == "" {
		return le
	}
	return extra + "," + le
}

func renderLabels(names, vals []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ","
		}
		v := vals[i]
		out += n + `="` + escapeLabel(v) + `"`
	}
	return out
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslash and newline per the exposition format.
func escapeHelp(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}

// escapeLabel escapes backslash, quote, and newline in label values.
func escapeLabel(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}
