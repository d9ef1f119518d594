package obs

import (
	"strings"
	"testing"
)

// goldenRegistry builds a registry holding one metric of every kind, plain
// and labelled, including a vec with no children, help text and label values
// that need escaping, and a histogram exemplar (which the text format does
// not carry). Observed values are dyadic so every sum is exact.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("sb_g_plain_total", "a plain counter").Add(7)
	r.Gauge("sb_g_level", "a gauge with \\ and\nnewline in help").Set(-2.25)
	h := r.Histogram("sb_g_seconds", "a plain histogram", []float64{0.001, 0.5, 2})
	for _, v := range []float64{0.0009765625, 0.25, 0.25, 1.5, 8} {
		h.Observe(v)
	}
	h.ObserveExemplar(0.75, 0xabc)

	cv := r.CounterVec("sb_g_cmds_total", "labelled counter", "cmd", "shard")
	cv.With("HSET", "1").Add(3)
	cv.With("DEL", "0").Inc()
	cv.With(`q"uo\te`, "line\nbreak").Add(2)
	gv := r.GaugeVec("sb_g_depth", "labelled gauge", "dc")
	gv.With("b").Set(1e9)
	gv.With("a").Set(0.125)
	hv := r.HistogramVec("sb_g_cmd_seconds", "labelled histogram", []float64{0.01, 1}, "cmd")
	hv.With("HSET").Observe(0.0078125)
	hv.With("HSET").Observe(3)
	hv.With("GET").Observe(0.5)
	r.CounterVec("sb_g_unused_total", "a vec nobody touched", "k")
	return r
}

const goldenExposition = `# HELP sb_g_cmd_seconds labelled histogram
# TYPE sb_g_cmd_seconds histogram
sb_g_cmd_seconds_bucket{cmd="GET",le="0.01"} 0
sb_g_cmd_seconds_bucket{cmd="GET",le="1"} 1
sb_g_cmd_seconds_bucket{cmd="GET",le="+Inf"} 1
sb_g_cmd_seconds_sum{cmd="GET"} 0.5
sb_g_cmd_seconds_count{cmd="GET"} 1
sb_g_cmd_seconds_bucket{cmd="HSET",le="0.01"} 1
sb_g_cmd_seconds_bucket{cmd="HSET",le="1"} 1
sb_g_cmd_seconds_bucket{cmd="HSET",le="+Inf"} 2
sb_g_cmd_seconds_sum{cmd="HSET"} 3.0078125
sb_g_cmd_seconds_count{cmd="HSET"} 2
# HELP sb_g_cmds_total labelled counter
# TYPE sb_g_cmds_total counter
sb_g_cmds_total{cmd="DEL",shard="0"} 1
sb_g_cmds_total{cmd="HSET",shard="1"} 3
sb_g_cmds_total{cmd="q\"uo\\te",shard="line\nbreak"} 2
# HELP sb_g_depth labelled gauge
# TYPE sb_g_depth gauge
sb_g_depth{dc="a"} 0.125
sb_g_depth{dc="b"} 1e+09
# HELP sb_g_level a gauge with \\ and\nnewline in help
# TYPE sb_g_level gauge
sb_g_level -2.25
# HELP sb_g_plain_total a plain counter
# TYPE sb_g_plain_total counter
sb_g_plain_total 7
# HELP sb_g_seconds a plain histogram
# TYPE sb_g_seconds histogram
sb_g_seconds_bucket{le="0.001"} 1
sb_g_seconds_bucket{le="0.5"} 3
sb_g_seconds_bucket{le="2"} 5
sb_g_seconds_bucket{le="+Inf"} 6
sb_g_seconds_sum 10.7509765625
sb_g_seconds_count 6
# HELP sb_g_unused_total a vec nobody touched
# TYPE sb_g_unused_total counter
`

// TestWriteToGolden pins the text exposition byte for byte.
func TestWriteToGolden(t *testing.T) {
	var sb strings.Builder
	n, err := goldenRegistry().WriteTo(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != goldenExposition {
		t.Fatalf("exposition differs from golden:\n--- got ---\n%s--- want ---\n%s", got, goldenExposition)
	}
	if n != int64(sb.Len()) {
		t.Fatalf("WriteTo returned %d bytes, wrote %d", n, sb.Len())
	}
}
