package httpapi

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strconv"
	"testing"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/geo"
	"switchboard/internal/kvstore"
	"switchboard/internal/obs"
	"switchboard/internal/obs/span"
	"switchboard/internal/shard"
)

// fleetNode is one member of an in-process fleet with full telemetry: its own
// registry (controller metrics wired), span ring, and tracer, serving the
// /metrics/instance and /metrics/fleet routes.
type fleetNode struct {
	addr  string
	mgr   *shard.Manager
	api   *Server
	hs    *http.Server
	spans *span.Ring
}

// startFleetNode builds a node on a pre-opened listener so every node can know
// the full peer list (including nodes started after it).
func startFleetNode(t *testing.T, l net.Listener, storeAddr string, ring *shard.Ring, prefer []int, peers []string) *fleetNode {
	t.Helper()
	addr := l.Addr().String()
	world := geo.DefaultWorld()
	reg := obs.NewRegistry()
	metrics := controller.NewMetrics(reg)
	spans := span.NewRing(256)
	ctrls := make([]*controller.Controller, ring.Shards())
	for i := range ctrls {
		kc, err := kvstore.Dial(storeAddr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = kc.Close() })
		ctrls[i], err = controller.New(controller.Config{
			World:     world,
			Store:     kc,
			KeyPrefix: shard.KeyPrefix(i),
			Shard:     i,
			Metrics:   metrics,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	mgr, err := shard.NewManager(shard.Config{
		Ring:        ring,
		ID:          addr,
		Controllers: ctrls,
		ElectorStore: func(i int) (*kvstore.Client, error) {
			return kvstore.Dial(storeAddr)
		},
		Prefer: prefer,
		TTL:    300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		mgr.Stop(ctx)
		cancel()
	})
	s := New(world, nil)
	s.Shards = &ShardRouter{Manager: mgr, Forward: true, Peers: peers}
	s.Registry = reg
	s.Tracer = span.NewTracer(int64(len(peers)+1), spans)
	hs := &http.Server{Handler: s.Mux()}
	go func() { _ = hs.Serve(l) }()
	t.Cleanup(func() { _ = hs.Close() })
	return &fleetNode{addr: addr, mgr: mgr, api: s, hs: hs, spans: spans}
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp.StatusCode
}

func findFamily(fams []obs.SnapFamily, name string) *obs.SnapFamily {
	for i := range fams {
		if fams[i].Name == name {
			return &fams[i]
		}
	}
	return nil
}

func familyCount(fams []obs.SnapFamily, name string) uint64 {
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

// TestFleetMetricsFederation runs a 3-node, 3-shard fleet, places calls on
// every shard, and checks the federated invariants the fleet scrape promises:
// merged counter sums equal the sum of per-instance sums, high-latency
// histogram buckets carry exemplar trace IDs resolvable in the owning node's
// span ring, and killing one node leaves /metrics/fleet serveable with the
// dead instance marked stale — its cached contribution still in the sums.
func TestFleetMetricsFederation(t *testing.T) {
	store := startShardStore(t)
	ring, err := shard.NewRing(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	listeners := make([]net.Listener, 3)
	peers := make([]string, 3)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		peers[i] = l.Addr().String()
	}
	nodes := make([]*fleetNode, 3)
	for i := range nodes {
		nodes[i] = startFleetNode(t, listeners[i], store, ring, []int{i}, peers)
	}
	for _, n := range nodes {
		n.mgr.Start()
	}
	deadline := time.Now().Add(8 * time.Second)
	for settled := false; !settled; {
		settled = true
		for i, n := range nodes {
			if !n.mgr.Owns(i) {
				settled = false
			}
		}
		if !settled {
			if time.Now().After(deadline) {
				t.Fatalf("fleet never split: %v %v %v",
					nodes[0].mgr.Owned(), nodes[1].mgr.Owned(), nodes[2].mgr.Owned())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Place two calls per shard, at each shard's owner.
	const perShard = 2
	var id uint64 = 1
	for sh, n := range nodes {
		for c := 0; c < perShard; c++ {
			id = confOnShard(ring, sh, id)
			if resp := postStart(t, n.addr, id, nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("start on shard %d: %d", sh, resp.StatusCode)
			}
			id++
		}
	}
	total := uint64(perShard * len(nodes))

	// Per-instance sums.
	var instSum uint64
	for _, n := range nodes {
		var inst InstanceMetrics
		if code := getJSON(t, "http://"+n.addr+"/metrics/instance", &inst); code != http.StatusOK {
			t.Fatalf("/metrics/instance on %s: %d", n.addr, code)
		}
		if inst.Instance != n.addr {
			t.Fatalf("instance id = %q, want %q", inst.Instance, n.addr)
		}
		instSum += familyCount(inst.Families, "sb_controller_calls_started_total")
	}
	if instSum != total {
		t.Fatalf("per-instance started sum = %d, want %d", instSum, total)
	}

	// Fleet merge: sums match, all instances live.
	var fleet FleetMetrics
	if code := getJSON(t, "http://"+nodes[0].addr+"/metrics/fleet", &fleet); code != http.StatusOK {
		t.Fatalf("/metrics/fleet: %d", code)
	}
	if got := familyCount(fleet.Families, "sb_controller_calls_started_total"); got != total {
		t.Fatalf("fleet started sum = %d, want %d", got, total)
	}
	if len(fleet.Instances) != 3 {
		t.Fatalf("fleet instances = %d, want 3", len(fleet.Instances))
	}
	for _, inst := range fleet.Instances {
		if inst.Stale || inst.Error != "" {
			t.Fatalf("instance %s unexpectedly stale: %+v", inst.Instance, inst)
		}
	}

	// Exemplars: every placement ran under a root span, so the place-seconds
	// histogram must carry trace IDs, and each must resolve in some node's
	// span ring.
	ph := findFamily(fleet.Families, "sb_controller_place_seconds")
	if ph == nil {
		t.Fatal("fleet snapshot missing sb_controller_place_seconds")
	}
	exemplars := 0
	for _, p := range ph.Points {
		for _, e := range p.Exemplars {
			exemplars++
			if len(e.Trace) != 16 {
				t.Fatalf("exemplar trace %q: want 16 hex digits", e.Trace)
			}
			raw, err := strconv.ParseUint(e.Trace, 16, 64)
			if err != nil || raw == 0 {
				t.Fatalf("exemplar trace %q unparseable: %v", e.Trace, err)
			}
			resolved := false
			for _, n := range nodes {
				if len(n.spans.Trace(span.ID(raw))) > 0 {
					resolved = true
					break
				}
			}
			if !resolved {
				t.Fatalf("exemplar trace %s resolves in no node's span ring", e.Trace)
			}
		}
	}
	if exemplars == 0 {
		t.Fatal("no exemplars on sb_controller_place_seconds; traced placements must stamp them")
	}

	// Kill node 2's API listener (its cached snapshot is warm from the scrape
	// above). The fleet view must stay serveable: the dead instance is marked
	// stale, and its cached counts keep the sums whole.
	_ = nodes[2].hs.Close()
	var after FleetMetrics
	if code := getJSON(t, "http://"+nodes[0].addr+"/metrics/fleet", &after); code != http.StatusOK {
		t.Fatalf("/metrics/fleet with dead peer: %d", code)
	}
	if got := familyCount(after.Families, "sb_controller_calls_started_total"); got != total {
		t.Fatalf("fleet started sum with dead peer = %d, want %d", got, total)
	}
	foundStale := false
	for _, inst := range after.Instances {
		if inst.Instance == nodes[2].addr {
			if !inst.Stale || inst.Error == "" {
				t.Fatalf("dead instance not marked stale: %+v", inst)
			}
			foundStale = true
		} else if inst.Stale {
			t.Fatalf("live instance %s marked stale", inst.Instance)
		}
	}
	if !foundStale {
		t.Fatalf("dead instance missing from fleet view: %+v", after.Instances)
	}
}
