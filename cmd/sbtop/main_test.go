package main

import (
	"strings"
	"testing"
	"time"

	"switchboard/internal/httpapi"
	"switchboard/internal/obs"
)

func testSample(at time.Time, started uint64) *sample {
	return &sample{
		at: at,
		fleet: httpapi.FleetMetrics{
			Self: "10.0.0.1:8077",
			Instances: []httpapi.FleetInstance{
				{Instance: "10.0.0.1:8077"},
				{Instance: "10.0.0.2:8077"},
				{Instance: "10.0.0.3:8077", Stale: true, AgeMs: 2500, Error: "dial tcp: connection refused"},
			},
			Families: []obs.SnapFamily{
				{Name: "sb_controller_active_calls", Kind: "gauge",
					Points: []obs.SnapPoint{{Value: 12}, {Value: 30}}},
				{Name: "sb_controller_calls_started_total", Kind: "counter",
					Points: []obs.SnapPoint{{Count: started}}},
				{Name: "sb_controller_store_write_failures_total", Kind: "counter",
					Points: []obs.SnapPoint{{Count: 3}}},
				{Name: "sb_controller_place_seconds", Kind: "histogram",
					Bounds: []float64{0.001, 0.01, 0.1},
					Points: []obs.SnapPoint{{
						Count: 100, Sum: 0.5,
						Buckets: []uint64{90, 9, 1, 0},
						Exemplars: []obs.SnapExemplar{
							{Bucket: 2, Trace: "00000000deadbeef", Value: 0.042},
						},
					}}},
				{Name: "slo_placement_latency_burn", Kind: "gauge", LabelNames: []string{"window"},
					Points: []obs.SnapPoint{{Labels: []string{"5m"}, Value: 0.25}}},
			},
		},
		shards: &shardsView{
			Shards:    2,
			Self:      "10.0.0.1:8077",
			RingEpoch: 2,
			Phase:     "journal-handoff",
			Migration: &migration{From: 2, To: 3, Phase: "journal-handoff", Copied: 8, Total: 16},
			Map: []struct {
				Shard  int    `json:"shard"`
				Owned  bool   `json:"owned"`
				Leader string `json:"leader"`
				Epoch  int64  `json:"epoch"`
			}{
				{Shard: 0, Owned: true, Leader: "10.0.0.1:8077", Epoch: 4},
				{Shard: 1, Owned: false, Leader: "10.0.0.2:8077", Epoch: 7},
			},
		},
	}
}

// TestRenderFrame pins the dashboard's load-bearing content: shard leadership
// with epochs, staleness marks, the rate computed from the previous sample,
// the bucket-estimated p99, SLO burn, and the slowest exemplar's trace ID.
func TestRenderFrame(t *testing.T) {
	t0 := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	prev := testSample(t0, 100)
	cur := testSample(t0.Add(2*time.Second), 150)
	frame := renderFrame(prev, cur)

	for _, want := range []string{
		"3 instances (2 live, 1 STALE)",
		"10.0.0.2:8077", // shard 1 leader
		"« here",        // shard 0 is local
		"STALE",
		"last seen 3s ago", // 2500ms rounds to 3s
		"connection refused",
		"placements 25.0/s", // (150-100)/2s
		"p99 place 10.0ms",  // nearest-rank 99 of 100 lands in the (0.001,0.01] bucket
		"store write failures 3",
		"active calls 42",
		"latency[5m]=0.25",
		"trace 00000000deadbeef",
		"slowest placement 42.0ms",
		"ring epoch 2 — RESHARDING (journal-handoff)",
		"2 → 3 shards, 8/16 keys copied (50%)",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q\n%s", want, frame)
		}
	}
	// Epoch column renders both epochs.
	if !strings.Contains(frame, "4") || !strings.Contains(frame, "7") {
		t.Errorf("frame missing epochs:\n%s", frame)
	}

	// First frame: rates degrade to "-" rather than lying.
	first := renderFrame(nil, cur)
	if !strings.Contains(first, "placements -") {
		t.Errorf("first frame should render rate as '-':\n%s", first)
	}

	// A stable fleet renders the epoch line without reshard noise.
	stable := testSample(t0, 100)
	stable.shards.Phase = "stable"
	stable.shards.Migration = nil
	calm := renderFrame(nil, stable)
	if !strings.Contains(calm, "ring epoch 2 — stable") {
		t.Errorf("stable frame missing epoch line:\n%s", calm)
	}
	if strings.Contains(calm, "RESHARDING") {
		t.Errorf("stable frame claims a reshard:\n%s", calm)
	}
}

func TestQuantile(t *testing.T) {
	f := &obs.SnapFamily{
		Bounds: []float64{0.001, 0.01, 0.1},
		Points: []obs.SnapPoint{
			{Buckets: []uint64{50, 0, 0, 0}},
			{Buckets: []uint64{40, 9, 1, 0}},
		},
	}
	if q, ok := quantile(f, 0.5); !ok || q != 0.001 {
		t.Errorf("p50 = %v,%v want 0.001", q, ok)
	}
	if q, ok := quantile(f, 0.99); !ok || q != 0.01 {
		t.Errorf("p99 = %v,%v want 0.01 (rank 99 of 100 is the 99th sample, in bucket 2)", q, ok)
	}
	empty := &obs.SnapFamily{Bounds: []float64{1}, Points: []obs.SnapPoint{{Buckets: []uint64{0, 0}}}}
	if _, ok := quantile(empty, 0.99); ok {
		t.Error("empty histogram must report no quantile")
	}
}
