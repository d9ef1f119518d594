package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/geo"
	"switchboard/internal/kvstore"
	"switchboard/internal/obs"
	"switchboard/internal/shard"
)

// shardNode is one member of an in-process sharded fleet: an HTTP server on a
// real port whose address doubles as its lease identity, so peers' forwards
// and redirects actually land here.
type shardNode struct {
	addr string
	mgr  *shard.Manager
	api  *Server
}

func startShardStore(t *testing.T) string {
	t.Helper()
	srv := kvstore.NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })
	return l.Addr().String()
}

func startShardNode(t *testing.T, storeAddr string, ring *shard.Ring, prefer []int, peers []string, forward bool) *shardNode {
	t.Helper()
	return startShardNodeTTL(t, 300*time.Millisecond, storeAddr, ring, prefer, peers, forward)
}

func startShardNodeTTL(t *testing.T, ttl time.Duration, storeAddr string, ring *shard.Ring, prefer []int, peers []string, forward bool) *shardNode {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	world := geo.DefaultWorld()
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
		Prefer:  prefer,
		TTL:     ttl,
		Metrics: shard.NewMetrics(obs.NewRegistry()),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Stop)
	s := New(world, nil)
	s.Shards = &ShardRouter{Manager: mgr, Forward: forward, Peers: peers}
	hs := &http.Server{Handler: s.Mux()}
	go func() { _ = hs.Serve(l) }()
	t.Cleanup(func() { _ = hs.Close() })
	return &shardNode{addr: addr, mgr: mgr, api: s}
}

// noRedirect posts without following 307s, so routing hints can be asserted.
var noRedirect = &http.Client{
	CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
}

func postStart(t *testing.T, addr string, id uint64, hdr map[string]string) *http.Response {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"id": id, "country": "JP"})
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/call/start", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := noRedirect.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func awaitSplit(t *testing.T, a, b *shardNode) {
	t.Helper()
	deadline := time.Now().Add(8 * time.Second)
	for !(a.mgr.Owns(0) && b.mgr.Owns(1) &&
		a.mgr.OwnerHint(1) == b.addr && b.mgr.OwnerHint(0) == a.addr) {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never settled: a owns %v, b owns %v", a.mgr.Owned(), b.mgr.Owned())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func confOnShard(ring *shard.Ring, sh int, from uint64) uint64 {
	for id := from; ; id++ {
		if ring.Lookup(id) == sh {
			return id
		}
	}
}

// TestShardRoutingHints: with forwarding off, a request landing on the wrong
// node answers 307 with the owner's address in Location and
// ShardLeaderHeader, SLO-exempted, while owned requests serve locally.
func TestShardRoutingHints(t *testing.T) {
	store := startShardStore(t)
	ring, _ := shard.NewRing(2, 16)
	a := startShardNode(t, store, ring, []int{0}, nil, false)
	b := startShardNode(t, store, ring, []int{1}, nil, false)
	a.mgr.Start()
	b.mgr.Start()
	awaitSplit(t, a, b)

	// Owned locally: served in place, stamped with its shard.
	own := confOnShard(ring, 0, 1)
	resp := postStart(t, a.addr, own, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owned request: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(ShardHeader); got != "0" {
		t.Fatalf("%s = %q, want 0", ShardHeader, got)
	}

	// Not owned: a 307 routing hint pointing at the owner.
	other := confOnShard(ring, 1, 1)
	resp = postStart(t, a.addr, other, nil)
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("non-owned request: %d, want 307", resp.StatusCode)
	}
	if got := resp.Header.Get(ShardLeaderHeader); got != b.addr {
		t.Fatalf("%s = %q, want %q", ShardLeaderHeader, got, b.addr)
	}
	if loc := resp.Header.Get("Location"); loc != "http://"+b.addr+"/v1/call/start" {
		t.Fatalf("Location = %q", loc)
	}
	if resp.Header.Get(obs.StandbyHeader) == "" {
		t.Fatal("routing hint must carry the SLO exemption header")
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("routing hint must carry Retry-After")
	}
	// Following the hint succeeds: 307 preserves method and body.
	resp = postStart(t, b.addr, other, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request at hinted owner: %d", resp.StatusCode)
	}
}

// TestShardForwarding: with forwarding on, the wrong node proxies to the
// owner and relays its answer — the client sees one 200 regardless of where
// it aimed.
func TestShardForwarding(t *testing.T) {
	store := startShardStore(t)
	ring, _ := shard.NewRing(2, 16)
	a := startShardNode(t, store, ring, []int{0}, nil, true)
	b := startShardNode(t, store, ring, []int{1}, nil, true)
	a.mgr.Start()
	b.mgr.Start()
	awaitSplit(t, a, b)

	other := confOnShard(ring, 1, 1)
	resp := postStart(t, a.addr, other, nil)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("forwarded request: %d %s", resp.StatusCode, body)
	}
	var out StartResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.DCName == "" {
		t.Fatal("forwarded response missing placement")
	}
	// The owner, not the proxy, registered the call: a duplicate start at the
	// owner conflicts.
	resp = postStart(t, b.addr, other, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate at owner after forward: %d, want 409", resp.StatusCode)
	}
}

// TestShardForwardHopBound: a request arriving with the hop budget spent is
// not forwarded or redirected again — it answers the typed hop-exhaustion
// 503 (SLO-exempt, Retry-After from the lease TTL) and bumps the counter, so
// stale hints fleet-wide cannot loop a request forever.
func TestShardForwardHopBound(t *testing.T) {
	store := startShardStore(t)
	ring, _ := shard.NewRing(2, 16)
	a := startShardNode(t, store, ring, []int{0}, nil, true)
	b := startShardNode(t, store, ring, []int{1}, nil, true)
	a.mgr.Start()
	b.mgr.Start()
	awaitSplit(t, a, b)

	other := confOnShard(ring, 1, 1)
	resp := postStart(t, a.addr, other, map[string]string{
		HopsHeader: strconv.Itoa(DefaultMaxHops),
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("hop-capped request: %d, want typed 503", resp.StatusCode)
	}
	if resp.Header.Get(obs.StandbyHeader) == "" {
		t.Fatal("hop-exhaustion 503 must be SLO-exempt")
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("hop-exhaustion 503 must carry Retry-After")
	}
	var out struct {
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Reason != "proxy hop budget exhausted" {
		t.Fatalf("reason = %q", out.Reason)
	}
	if got := a.mgr.Metrics().ProxyHopsExhausted.Value(); got != 1 {
		t.Fatalf("sb_shard_proxy_hops_exhausted_total = %v, want 1", got)
	}
}

// TestShardForwardDeadline: a forward to an owner that accepts the
// connection and never answers ends within the lease TTL with a routing
// answer, instead of waiting out attempt after attempt.
func TestShardForwardDeadline(t *testing.T) {
	const ttl = time.Second
	hole, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hole.Close() })
	go func() {
		var held []net.Conn
		defer func() {
			for _, c := range held {
				_ = c.Close()
			}
		}()
		for {
			c, err := hole.Accept()
			if err != nil {
				return
			}
			held = append(held, c)
		}
	}()
	ring, _ := shard.NewRing(2, 16)
	// The manager never starts: the node owns nothing and knows no leader,
	// so every forward goes to its one peer, the silent listener.
	n := startShardNodeTTL(t, ttl, startShardStore(t), ring, nil, []string{hole.Addr().String()}, true)
	start := time.Now()
	resp := postStart(t, n.addr, 1, nil)
	took := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get(obs.StandbyHeader) == "" {
		t.Fatalf("forward to a silent owner: %d, want the routing 503", resp.StatusCode)
	}
	if took >= ttl {
		t.Fatalf("forward to a silent owner answered after %v, want within the %v lease TTL", took.Round(time.Millisecond), ttl)
	}
}

// TestShardForwardSlowOwner: an owner that is slow but alive has its answer
// relayed, not replaced by a routing 503 for a change it applied. It answers
// after a renew interval, the most one call-state write may wait on a dead
// store path, and 60% more: 80% of the forward deadline.
func TestShardForwardSlowOwner(t *testing.T) {
	const ttl = time.Second
	delay := kvstore.TimingFor(ttl).Renew * 8 / 5
	const answer = `{"dc":1,"dc_name":"slow"}` + "\n"
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, answer)
	}))
	t.Cleanup(owner.Close)
	ring, _ := shard.NewRing(2, 16)
	// As above, every forward goes to the one peer: here the slow owner.
	n := startShardNodeTTL(t, ttl, startShardStore(t), ring, nil, []string{owner.Listener.Addr().String()}, true)
	start := time.Now()
	resp := postStart(t, n.addr, 1, nil)
	took := time.Since(start)
	got, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(got) != answer {
		t.Fatalf("forward to a slow owner (%v): %d %q, want its 200 relayed", took.Round(time.Millisecond), resp.StatusCode, got)
	}
	if took < delay {
		t.Fatalf("answered after %v, before the owner's %v", took, delay)
	}
}

// TestShardLeaderUnknown: a lone node that owns nothing and has no hints or
// peers answers a routing 503, SLO-exempt, with Retry-After derived from the
// lease TTL — not a hard failure.
func TestShardLeaderUnknown(t *testing.T) {
	store := startShardStore(t)
	ring, _ := shard.NewRing(2, 16)
	// Manager never started: owns nothing, knows nobody.
	n := startShardNode(t, store, ring, nil, nil, false)
	resp := postStart(t, n.addr, 1, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("leaderless request: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get(obs.StandbyHeader) == "" {
		t.Fatal("routing 503 must be SLO-exempt")
	}
	// TTL 300ms rounds up to 1 second.
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want 1", got)
	}
}

// TestShardsEndpoint: /v1/shards serves the routing map.
func TestShardsEndpoint(t *testing.T) {
	store := startShardStore(t)
	ring, _ := shard.NewRing(2, 16)
	a := startShardNode(t, store, ring, []int{0}, nil, false)
	b := startShardNode(t, store, ring, []int{1}, nil, false)
	a.mgr.Start()
	b.mgr.Start()
	awaitSplit(t, a, b)

	resp, err := http.Get("http://" + a.addr + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Shards int    `json:"shards"`
		Self   string `json:"self"`
		Owned  []int  `json:"owned"`
		Map    []struct {
			Shard  int    `json:"shard"`
			Owned  bool   `json:"owned"`
			Leader string `json:"leader"`
		} `json:"map"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Shards != 2 || out.Self != a.addr {
		t.Fatalf("shards=%d self=%q", out.Shards, out.Self)
	}
	if len(out.Owned) != 1 || out.Owned[0] != 0 {
		t.Fatalf("owned = %v, want [0]", out.Owned)
	}
	for _, m := range out.Map {
		want := a.addr
		if m.Shard == 1 {
			want = b.addr
		}
		if m.Leader != want {
			t.Fatalf("shard %d leader = %q, want %q", m.Shard, m.Leader, want)
		}
	}
}

// postCall posts a call-control body to addr without following redirects
// and returns the status code.
func postCall(t *testing.T, addr, path string, body any) int {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := noRedirect.Post("http://"+addr+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// ownedShards reads owned_shards from a node's /readyz, which must be 200.
func ownedShards(t *testing.T, addr string) []int {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Owned []int `json:"owned_shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz on %s: %d %v", addr, resp.StatusCode, err)
	}
	return out.Owned
}

// TestHAPairTakeoverKeepsCalls runs an HA pair as a one-shard fleet: two
// managers on a 1-shard ring share a store. The follower proxies a start to
// the leader; when the leader stops, the follower takes the shard over and
// can still freeze and end the call the old leader acked.
func TestHAPairTakeoverKeepsCalls(t *testing.T) {
	store := startShardStore(t)
	ring, _ := shard.NewRing(1, 16)
	a := startShardNode(t, store, ring, []int{0}, nil, true)
	b := startShardNode(t, store, ring, nil, nil, true)
	a.mgr.Start()
	b.mgr.Start()
	deadline := time.Now().Add(8 * time.Second)
	for !(a.mgr.Owns(0) && b.mgr.OwnerHint(0) == a.addr) {
		if time.Now().After(deadline) {
			t.Fatalf("pair never settled: a owns %v, b's hint %q", a.mgr.Owned(), b.mgr.OwnerHint(0))
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The follower is ready, and leads nothing.
	if owned := ownedShards(t, b.addr); len(owned) != 0 {
		t.Fatalf("follower owned_shards = %v, want []", owned)
	}

	// A start sent to the follower is served by the leader.
	resp := postStart(t, b.addr, 1, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("start via follower: %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get(ShardHeader); got != "0" {
		t.Fatalf("%s = %q, want 0", ShardHeader, got)
	}
	if !a.mgr.Controller(0).Knows(1) || b.mgr.Controller(0).Knows(1) {
		t.Fatal("the leader, not the follower, must hold the call")
	}

	// The leader stops; the follower takes over and recovers the call.
	a.mgr.Stop()
	for !b.mgr.Owns(0) {
		if time.Now().After(deadline) {
			t.Fatal("follower never took the shard over")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if owned := ownedShards(t, b.addr); len(owned) != 1 || owned[0] != 0 {
		t.Fatalf("new leader owned_shards = %v, want [0]", owned)
	}
	if code := postCall(t, b.addr, "/v1/call/config", configBody{ID: 1, Config: "video|ID:5,JP:3"}); code != http.StatusOK {
		t.Fatalf("config on the new leader: %d, want 200", code)
	}
	if code := postCall(t, b.addr, "/v1/call/end", endBody{ID: 1}); code != http.StatusOK {
		t.Fatalf("end on the new leader: %d, want 200", code)
	}
}

// TestDCFailIgnoresDeposedShard: a node that lost a shard's lease still
// holds that reign's calls in memory, and the store fences their drain
// moves. Those moves are the successor's to make, so /v1/dc/fail answers 200
// rather than a 503 no retry could clear.
func TestDCFailIgnoresDeposedShard(t *testing.T) {
	store := startShardStore(t)
	ring, _ := shard.NewRing(1, 16)
	a := startShardNode(t, store, ring, []int{0}, nil, true)
	a.mgr.Start()
	awaitCond(t, "a to lead shard 0", func() bool { return a.mgr.Owns(0) })
	resp := postStart(t, a.addr, 1, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("start: %d, want 200", resp.StatusCode)
	}
	var started StartResponse
	if err := json.NewDecoder(resp.Body).Decode(&started); err != nil {
		t.Fatal(err)
	}

	// The lease moves to another owner behind a's back.
	admin, err := kvstore.Dial(store)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	ctx := context.Background()
	if err := admin.DelLease(shard.LeaseKey(0), a.addr); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.SetLeaseContext(ctx, shard.LeaseKey(0), "elsewhere", time.Minute); err != nil {
		t.Fatal(err)
	}
	awaitCond(t, "a to notice it is deposed", func() bool { return !a.mgr.Owns(0) })

	if code := postCall(t, a.addr, "/v1/dc/fail", dcBody{DC: started.DC}); code != http.StatusOK {
		t.Fatalf("dc fail on a node with a deposed shard: %d, want 200", code)
	}
	if a.mgr.Controller(0).Stats().Fenced == 0 {
		t.Fatal("the deposed shard's drain move was not attempted")
	}
}

// TestRewonShardForgetsEndedCall: a node deposed from a shard keeps the
// shard's calls in memory; if its successor ends one and the node later wins
// the shard back, the call stays ended: re-winning reloads the shard from the
// store instead of keeping the earlier reign's memory.
func TestRewonShardForgetsEndedCall(t *testing.T) {
	store := startShardStore(t)
	ring, _ := shard.NewRing(1, 16)
	a := startShardNode(t, store, ring, []int{0}, nil, true)
	a.mgr.Start()
	awaitCond(t, "a to lead shard 0", func() bool { return a.mgr.Owns(0) })
	if resp := postStart(t, a.addr, 1, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("start: %d, want 200", resp.StatusCode)
	}

	admin, err := kvstore.Dial(store)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	ctx := context.Background()
	if err := admin.DelLease(shard.LeaseKey(0), a.addr); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.SetLeaseContext(ctx, shard.LeaseKey(0), "elsewhere", time.Minute); err != nil {
		t.Fatal(err)
	}
	awaitCond(t, "a to notice it is deposed", func() bool { return !a.mgr.Owns(0) })
	if !a.mgr.Controller(0).Knows(1) {
		t.Fatal("the deposed node dropped call 1; this test needs lose to keep it")
	}

	// The successor ends call 1, then gives the shard up.
	if err := admin.HSet(controller.CallKey(shard.KeyPrefix(0), 1), "state", "ended"); err != nil {
		t.Fatal(err)
	}
	if err := admin.DelLease(shard.LeaseKey(0), "elsewhere"); err != nil {
		t.Fatal(err)
	}
	awaitCond(t, "a to win shard 0 back", func() bool { return a.mgr.Owns(0) })

	if code := postCall(t, a.addr, "/v1/call/end", endBody{ID: 1}); code != http.StatusNotFound {
		t.Fatalf("end of a call the successor ended: %d, want 404", code)
	}
	if n := a.mgr.Controller(0).ActiveCalls(); n != 0 {
		t.Fatalf("shard 0's controller holds %d live calls after the re-win, want 0", n)
	}
}

// awaitCond polls cond for up to eight seconds.
func awaitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(8 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRetryAfterSecs(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{200 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1200 * time.Millisecond, "2"},
		{5 * time.Second, "5"},
	}
	for _, c := range cases {
		if got := retryAfterSecs(c.d); got != c.want {
			t.Errorf("retryAfterSecs(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}
