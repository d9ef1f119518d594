// Command sbtop is a live terminal dashboard for a switchboard fleet. It
// polls one node's /metrics/fleet (the label-wise merged view across every
// shard peer, with per-instance staleness) and /v1/shards (the leadership
// map), and redraws a compact operator view each interval:
//
//   - per-shard leader and lease epoch (an epoch climbing fast means churn)
//   - placement rate (calls/s, from the started-counter delta) and the p99
//     placement latency estimated from the fleet-merged histogram
//   - store write failures, active calls, kv retries, and SLO burn rates
//   - the slowest placement's exemplar trace ID, ready to paste into
//     sbtrace or /debug/spans?trace=
//
// Usage:
//
//	sbtop -addr 127.0.0.1:8077
//	sbtop -addr 127.0.0.1:8077 -once        # one frame, no screen control
//	sbtop -addr 127.0.0.1:8077 -interval 2s
//
// The node answering -addr must serve the fleet endpoints (any switchboard
// node does); a 404 on /v1/shards just means the deployment is unsharded and
// the shard table is omitted.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"strings"
	"time"

	"switchboard/internal/httpapi"
	"switchboard/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8077", "switchboard API address to poll")
	interval := flag.Duration("interval", time.Second, "poll/redraw interval")
	once := flag.Bool("once", false, "print a single frame and exit (no screen control)")
	frames := flag.Int("frames", 0, "exit after this many frames (0 = run until interrupted)")
	flag.Parse()

	client := &http.Client{Timeout: 5 * time.Second}
	var prev *sample
	drawn := 0
	for {
		cur, err := poll(client, *addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sbtop: %v\n", err)
			if *once {
				os.Exit(1)
			}
			time.Sleep(*interval)
			continue
		}
		frame := renderFrame(prev, cur)
		if *once {
			fmt.Print(frame)
			return
		}
		// Home the cursor and clear below, rather than wiping the whole
		// screen: no flicker at 1 Hz redraw.
		fmt.Print("\x1b[H\x1b[J" + frame)
		drawn++
		if *frames > 0 && drawn >= *frames {
			return
		}
		prev = cur
		time.Sleep(*interval)
	}
}

// shardsView is the subset of /v1/shards sbtop renders.
type shardsView struct {
	Shards    int        `json:"shards"`
	Self      string     `json:"self"`
	RingEpoch int64      `json:"ring_epoch"`
	Phase     string     `json:"phase"`
	Migration *migration `json:"migration"`
	Map       []struct {
		Shard  int    `json:"shard"`
		Owned  bool   `json:"owned"`
		Leader string `json:"leader"`
		Epoch  int64  `json:"epoch"`
	} `json:"map"`
}

// migration mirrors /v1/shards' "migration" object: the reshard
// coordinator's live checkpoint, present only while a split is in flight.
type migration struct {
	From   int    `json:"from"`
	To     int    `json:"to"`
	Phase  string `json:"phase"`
	Copied int64  `json:"copied"`
	Total  int64  `json:"total"`
}

// sample is one poll of the fleet: the merged metric families plus the
// leadership map, stamped with the poll time so deltas turn into rates.
type sample struct {
	at     time.Time
	fleet  httpapi.FleetMetrics
	shards *shardsView // nil when the deployment is unsharded
}

func poll(client *http.Client, addr string) (*sample, error) {
	s := &sample{at: time.Now()}
	if err := getJSON(client, "http://"+addr+"/metrics/fleet", &s.fleet); err != nil {
		return nil, err
	}
	var sv shardsView
	err := getJSON(client, "http://"+addr+"/v1/shards", &sv)
	if err == nil {
		s.shards = &sv
	} else if !strings.Contains(err.Error(), "status 404") {
		return nil, err
	}
	return s, nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// renderFrame renders one dashboard frame. prev supplies the previous poll
// for rate columns; nil (first frame) renders rates as "-".
func renderFrame(prev, cur *sample) string {
	var b strings.Builder
	live, stale := 0, 0
	for _, inst := range cur.fleet.Instances {
		if inst.Stale {
			stale++
		} else {
			live++
		}
	}
	fmt.Fprintf(&b, "switchboard fleet @ %s  —  self %s  —  %d instances (%d live",
		cur.at.Format("15:04:05"), cur.fleet.Self, live+stale, live)
	if stale > 0 {
		fmt.Fprintf(&b, ", %d STALE", stale)
	}
	b.WriteString(")\n\n")

	renderShards(&b, cur)
	renderInstances(&b, cur)
	renderRates(&b, prev, cur)
	renderSLO(&b, cur)
	renderExemplar(&b, cur)
	return b.String()
}

func renderShards(b *strings.Builder, cur *sample) {
	if cur.shards == nil {
		return
	}
	sv := cur.shards
	if sv.Phase != "" && sv.Phase != "stable" {
		fmt.Fprintf(b, "ring epoch %d — RESHARDING (%s)", sv.RingEpoch, sv.Phase)
		if mig := sv.Migration; mig != nil {
			fmt.Fprintf(b, "  %d → %d shards", mig.From, mig.To)
			if mig.Total > 0 {
				fmt.Fprintf(b, ", %d/%d keys copied (%d%%)", mig.Copied, mig.Total, 100*mig.Copied/mig.Total)
			}
		}
		b.WriteString("\n")
	} else {
		fmt.Fprintf(b, "ring epoch %d — stable\n", sv.RingEpoch)
	}
	fmt.Fprintf(b, "%-6s %-24s %-8s %s\n", "SHARD", "LEADER", "EPOCH", "")
	for _, m := range cur.shards.Map {
		leader := m.Leader
		if leader == "" {
			leader = "(unknown)"
		}
		note := ""
		if m.Owned {
			note = "« here"
		}
		fmt.Fprintf(b, "%-6d %-24s %-8d %s\n", m.Shard, leader, m.Epoch, note)
	}
	b.WriteString("\n")
}

func renderInstances(b *strings.Builder, cur *sample) {
	fmt.Fprintf(b, "%-24s %-10s %s\n", "INSTANCE", "STATUS", "")
	for _, inst := range cur.fleet.Instances {
		status, note := "live", ""
		if inst.Stale {
			status = "STALE"
			if inst.AgeMs > 0 {
				note = fmt.Sprintf("last seen %s ago", (time.Duration(inst.AgeMs) * time.Millisecond).Round(time.Second))
			} else {
				note = "never scraped"
			}
			if inst.Error != "" {
				note += "  (" + truncate(inst.Error, 48) + ")"
			}
		}
		fmt.Fprintf(b, "%-24s %-10s %s\n", inst.Instance, status, note)
	}
	b.WriteString("\n")
}

func renderRates(b *strings.Builder, prev, cur *sample) {
	started := counterTotal(cur.fleet.Families, "sb_controller_calls_started_total")
	retries := counterTotal(cur.fleet.Families, "sb_kvstore_client_retries_total")
	placeRate, retryRate := "-", "-"
	if prev != nil {
		dt := cur.at.Sub(prev.at).Seconds()
		if dt > 0 {
			placeRate = fmt.Sprintf("%.1f/s", rate(started, counterTotal(prev.fleet.Families, "sb_controller_calls_started_total"), dt))
			retryRate = fmt.Sprintf("%.1f/s", rate(retries, counterTotal(prev.fleet.Families, "sb_kvstore_client_retries_total"), dt))
		}
	}
	p99 := "-"
	if f := findFamily(cur.fleet.Families, "sb_controller_place_seconds"); f != nil {
		if q, ok := quantile(f, 0.99); ok {
			p99 = formatSeconds(q)
		}
	}
	fmt.Fprintf(b, "placements %-12s p99 place %-10s store write failures %-8d active calls %-8.0f kv retries %d (%s)\n\n",
		placeRate, p99,
		counterTotal(cur.fleet.Families, "sb_controller_store_write_failures_total"),
		gaugeTotal(cur.fleet.Families, "sb_controller_active_calls"),
		retries, retryRate)
}

func renderSLO(b *strings.Builder, cur *sample) {
	lat := findFamily(cur.fleet.Families, "slo_placement_latency_burn")
	avail := findFamily(cur.fleet.Families, "slo_availability_burn")
	if lat == nil && avail == nil {
		return
	}
	b.WriteString("SLO burn (×budget, summed across instances):")
	for _, f := range []*obs.SnapFamily{lat, avail} {
		if f == nil {
			continue
		}
		short := "latency"
		if strings.Contains(f.Name, "availability") {
			short = "availability"
		}
		for _, p := range f.Points {
			fmt.Fprintf(b, "  %s[%s]=%.2f", short, strings.Join(p.Labels, ","), p.Value)
		}
	}
	b.WriteString("\n")
}

// renderExemplar surfaces the slowest placement's trace ID — the one-click
// path from "p99 looks bad" to the actual request tree.
func renderExemplar(b *strings.Builder, cur *sample) {
	f := findFamily(cur.fleet.Families, "sb_controller_place_seconds")
	if f == nil {
		return
	}
	var worst *obs.SnapExemplar
	for _, p := range f.Points {
		for i := range p.Exemplars {
			if worst == nil || p.Exemplars[i].Value > worst.Value {
				worst = &p.Exemplars[i]
			}
		}
	}
	if worst != nil {
		fmt.Fprintf(b, "slowest placement %s  trace %s  (sbtrace or /debug/spans?trace=%s)\n",
			formatSeconds(worst.Value), worst.Trace, worst.Trace)
	}
}

func findFamily(fams []obs.SnapFamily, name string) *obs.SnapFamily {
	for i := range fams {
		if fams[i].Name == name {
			return &fams[i]
		}
	}
	return nil
}

func counterTotal(fams []obs.SnapFamily, name string) uint64 {
	f := findFamily(fams, name)
	if f == nil {
		return 0
	}
	var n uint64
	for _, p := range f.Points {
		n += p.Count
	}
	return n
}

func gaugeTotal(fams []obs.SnapFamily, name string) float64 {
	f := findFamily(fams, name)
	if f == nil {
		return 0
	}
	var v float64
	for _, p := range f.Points {
		v += p.Value
	}
	return v
}

func rate(cur, prev uint64, dt float64) float64 {
	if cur < prev {
		return 0 // counter reset (instance restart)
	}
	return float64(cur-prev) / dt
}

// quantile estimates quantile q from a histogram family by summing its points'
// (non-cumulative) buckets and walking to the bucket the target rank falls in,
// reporting that bucket's upper bound — the usual conservative bucket-quantile
// estimate. ok is false when the family holds no observations.
func quantile(f *obs.SnapFamily, q float64) (float64, bool) {
	nb := len(f.Bounds) + 1
	buckets := make([]uint64, nb)
	var total uint64
	for _, p := range f.Points {
		if len(p.Buckets) != nb {
			continue
		}
		for i, c := range p.Buckets {
			buckets[i] += c
			total += c
		}
	}
	if total == 0 {
		return 0, false
	}
	// Nearest-rank: the ceil(q·n)-th observation, 1-indexed.
	target := uint64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range buckets {
		cum += c
		if cum >= target {
			if i < len(f.Bounds) {
				return f.Bounds[i], true
			}
			// Overflow bucket: all we know is it exceeds the last bound.
			return f.Bounds[len(f.Bounds)-1], true
		}
	}
	return f.Bounds[len(f.Bounds)-1], true
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func formatSeconds(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.1fms", s*1e3)
	default:
		return fmt.Sprintf("%.0fµs", s*1e6)
	}
}
