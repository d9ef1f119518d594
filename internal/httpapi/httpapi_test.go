package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/faults"
	"switchboard/internal/geo"
	"switchboard/internal/kvstore"
	"switchboard/internal/model"
	"switchboard/internal/obs"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	world := geo.DefaultWorld()
	ctrl, err := controller.New(controller.Config{
		World: world,
		Placer: &controller.MinACLPlacer{
			ACLOf: func(cfg model.CallConfig, dc int) float64 { return cfg.ACL(world, dc) },
			NDCs:  len(world.DCs()),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(world, ctrl)
	ts := httptest.NewServer(s.Mux())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, map[string]any) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func TestCallLifecycle(t *testing.T) {
	_, ts := newTestServer(t)

	// Start in Japan: assigned to tokyo.
	resp, out := post(t, ts, "/v1/call/start", startBody{ID: 1, Country: "JP"})
	if resp.StatusCode != http.StatusOK || out["dc_name"] != "tokyo" {
		t.Fatalf("start: %d %v", resp.StatusCode, out)
	}
	// Config turns out Indonesia-majority: migrate (the §5.4 example).
	resp, out = post(t, ts, "/v1/call/config", configBody{ID: 1, Config: "video|ID:5,JP:3"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("config: %d %v", resp.StatusCode, out)
	}
	if out["migrated"] != true {
		t.Errorf("expected migration: %v", out)
	}
	resp, _ = post(t, ts, "/v1/call/end", endBody{ID: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("end: %d", resp.StatusCode)
	}

	_, stats := get(t, ts, "/v1/stats")
	if stats["started"].(float64) != 1 || stats["migrated"].(float64) != 1 || stats["active_calls"].(float64) != 0 {
		t.Errorf("stats = %v", stats)
	}
}

func TestErrorPaths(t *testing.T) {
	_, ts := newTestServer(t)
	// Unknown country: a bad request, not a conflict.
	resp, _ := post(t, ts, "/v1/call/start", startBody{ID: 9, Country: "ZZ"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown country -> %d, want 400", resp.StatusCode)
	}
	// Malformed config string.
	post(t, ts, "/v1/call/start", startBody{ID: 2, Country: "US"})
	resp, _ = post(t, ts, "/v1/call/config", configBody{ID: 2, Config: "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad config -> %d, want 400", resp.StatusCode)
	}
	// Duplicate start: conflict.
	resp, _ = post(t, ts, "/v1/call/start", startBody{ID: 2, Country: "US"})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate start -> %d, want 409", resp.StatusCode)
	}
	// Unknown call ID: not found.
	resp, _ = post(t, ts, "/v1/call/end", endBody{ID: 777})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown call end -> %d, want 404", resp.StatusCode)
	}
	// Unknown JSON field rejected.
	resp, err := http.Post(ts.URL+"/v1/call/start", "application/json",
		bytes.NewReader([]byte(`{"id":3,"country":"US","bogus":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field -> %d, want 400", resp.StatusCode)
	}
	// Wrong method.
	resp, err = http.Get(ts.URL + "/v1/call/start")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on POST route -> %d, want 405", resp.StatusCode)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t)
	big := bytes.Repeat([]byte("x"), maxRequestBody+1024)
	cases := []struct {
		name   string
		path   string
		body   string
		want   int
		reason string // the error text, when the case pins it
	}{
		{"malformed json", "/v1/call/start", `{"id":`, http.StatusBadRequest, ""},
		{"wrong type", "/v1/call/start", `{"id":"one","country":"US"}`, http.StatusBadRequest, `"id" must be an unsigned decimal integer from 0 to 18446744073709551615`},
		{"unknown field", "/v1/call/start", `{"id":3,"country":"US","bogus":1}`, http.StatusBadRequest, "unknown field for this route"},
		{"trailing garbage", "/v1/call/start", `{"id":3,"country":"US"} extra`, http.StatusBadRequest, "trailing data after JSON body"},
		{"trailing brace", "/v1/call/start", `{"id":8,"country":"US"}}`, http.StatusBadRequest, ""},
		{"trailing bracket", "/v1/call/start", `{"id":8,"country":"US"}]`, http.StatusBadRequest, ""},
		{"trailing brace dc fail", "/v1/dc/fail", `{"dc":1}}`, http.StatusBadRequest, ""},
		{"trailing bracket dc fail", "/v1/dc/fail", `{"dc":1}]`, http.StatusBadRequest, ""},
		{"oversized body", "/v1/call/start", `{"id":3,"country":"` + string(big) + `"}`, http.StatusRequestEntityTooLarge, ""},
		{"unknown call config", "/v1/call/config", `{"id":555,"config":"audio|US:2"}`, http.StatusNotFound, ""},
		{"unknown call end", "/v1/call/end", `{"id":556}`, http.StatusNotFound, ""},
		{"bad dc fail", "/v1/dc/fail", `{"dc":-3}`, http.StatusBadRequest, `"dc" must be an unsigned decimal integer from 0 to 65535`},
		{"bad dc recover", "/v1/dc/recover", `{"dc":9999}`, http.StatusBadRequest, "controller: invalid DC: 9999"},
		{"empty dc fail", "/v1/dc/fail", `{}`, http.StatusBadRequest, `missing field "dc"`},
		{"empty dc recover", "/v1/dc/recover", `{}`, http.StatusBadRequest, `missing field "dc"`},
		{"missing id", "/v1/call/start", `{"country":"US"}`, http.StatusBadRequest, `missing field "id"`},
		{"upper-case key", "/v1/call/end", `{"ID":7}`, http.StatusBadRequest, "unknown field for this route"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s %s -> %d, want %d", tc.path, tc.name, resp.StatusCode, tc.want)
			}
			var out map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out["error"] == "" {
				t.Errorf("error body = %v, %v; want an error field", out, err)
			}
			if tc.reason != "" && out["error"] != tc.reason {
				t.Errorf("%s %s error = %q, want %q", tc.path, tc.name, out["error"], tc.reason)
			}
			// A refused body fails no DC.
			_, stats := get(t, ts, "/v1/stats")
			if dcs, _ := stats["failed_dcs"].([]any); len(dcs) != 0 {
				t.Errorf("failed_dcs after %s %s = %v, want none", tc.path, tc.name, dcs)
			}
		})
	}
}

// storeBehindProxy boots a kvstore behind a faults.Proxy, so a test can cut
// the store off and restore it with its data intact, and serves a controller
// writing through it. It returns the proxy, a direct client for audits, the
// controller and the API.
func storeBehindProxy(t *testing.T) (*faults.Proxy, *kvstore.Client, *controller.Controller, *httptest.Server) {
	t.Helper()
	world := geo.DefaultWorld()
	srv := kvstore.NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	proxy, err := faults.NewProxy(l.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	client, err := kvstore.DialOptions(proxy.Addr(), kvstore.Options{
		DialTimeout: 250 * time.Millisecond,
		IOTimeout:   250 * time.Millisecond,
		MaxRetries:  -1,
		BackoffMin:  10 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	audit, err := kvstore.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { audit.Close() })
	ctrl, err := controller.New(controller.Config{
		World: world,
		Placer: &controller.MinACLPlacer{
			ACLOf: func(cfg model.CallConfig, dc int) float64 { return cfg.ACL(world, dc) },
			NDCs:  len(world.DCs()),
		},
		Store: client,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(world, ctrl).Mux())
	t.Cleanup(ts.Close)
	return proxy, audit, ctrl, ts
}

// wantShed checks a 503 for a write the store did not take: Retry-After: 1
// and no standby header, so the refusal burns the availability SLO.
func wantShed(t *testing.T, what string, resp *http.Response) {
	t.Helper()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("%s with the store cut -> %d, want 503", what, resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("%s 503 Retry-After = %q, want \"1\"", what, got)
	}
	if resp.Header.Get(obs.StandbyHeader) != "" {
		t.Errorf("%s 503 carries %s; a shed write must burn the SLO", what, obs.StandbyHeader)
	}
}

// retryUntilOK re-sends a request, as a client honouring Retry-After would,
// until it answers 200; anything but 200 or 503 fails the test.
func retryUntilOK(t *testing.T, ts *httptest.Server, path string, body any) map[string]any {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, out := post(t, ts, path, body)
		switch {
		case resp.StatusCode == http.StatusOK:
			return out
		case resp.StatusCode != http.StatusServiceUnavailable:
			t.Fatalf("%s retry -> %d %v, want 200 or 503", path, resp.StatusCode, out)
		case time.Now().After(deadline):
			t.Fatalf("%s still 503 five seconds after the store came back", path)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShedWritesAnswer503: with the store cut off, each call transition
// answers 503 and leaves nothing behind in memory that the store lacks; once
// the store is back, re-sending each one answers 200, and the store agrees
// with every 200 the server gave.
func TestShedWritesAnswer503(t *testing.T) {
	proxy, audit, ctrl, ts := storeBehindProxy(t)
	// Call 10 awaits its config, call 20 its end.
	for _, id := range []uint64{10, 20} {
		if resp, out := post(t, ts, "/v1/call/start", startBody{ID: id, Country: "JP"}); resp.StatusCode != http.StatusOK {
			t.Fatalf("start %d: %d %v", id, resp.StatusCode, out)
		}
	}
	if resp, out := post(t, ts, "/v1/call/config", configBody{ID: 20, Config: "audio|JP:2"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("config 20: %d %v", resp.StatusCode, out)
	}

	proxy.Cut()
	resp, _ := post(t, ts, "/v1/call/start", startBody{ID: 2, Country: "JP"})
	wantShed(t, "start", resp)
	if n := ctrl.ActiveCalls(); n != 2 {
		t.Errorf("active calls after a shed start = %d, want 2", n)
	}
	resp, _ = post(t, ts, "/v1/call/config", configBody{ID: 10, Config: "video|ID:5,JP:3"})
	wantShed(t, "config", resp)
	resp, _ = post(t, ts, "/v1/call/end", endBody{ID: 20})
	wantShed(t, "end", resp)
	if !ctrl.Knows(20) {
		t.Error("a shed end took the call out of memory")
	}
	// Readiness does not follow the store: each write answers for itself.
	if resp, out := get(t, ts, "/readyz"); resp.StatusCode != http.StatusOK || out["ready"] != true {
		t.Errorf("readyz with the store cut -> %d %v, want 200 ready", resp.StatusCode, out)
	}
	if _, stats := get(t, ts, "/v1/stats"); stats["store_write_failures"].(float64) < 3 {
		t.Errorf("stats store_write_failures = %v, want >= 3", stats["store_write_failures"])
	}

	proxy.Restore()
	start := retryUntilOK(t, ts, "/v1/call/start", startBody{ID: 2, Country: "JP"})
	if dc, err := audit.HGet("call:2", "dc"); err != nil || dc != strconv.Itoa(int(start["dc"].(float64))) {
		t.Errorf("call 2 answered dc %v, store holds %q (%v)", start["dc"], dc, err)
	}
	config := retryUntilOK(t, ts, "/v1/call/config", configBody{ID: 10, Config: "video|ID:5,JP:3"})
	if got, err := audit.HGet("call:10", "config"); err != nil || got != "video|ID:5,JP:3" {
		t.Errorf("call 10 config answered 200, store holds %q (%v)", got, err)
	}
	if dc, err := audit.HGet("call:10", "dc"); err != nil || dc != strconv.Itoa(int(config["dc"].(float64))) {
		t.Errorf("call 10 answered dc %v, store holds %q (%v)", config["dc"], dc, err)
	}
	if config["migrated"] != true {
		t.Errorf("call 10's retried config answered %v; the freeze migrated it", config)
	}
	retryUntilOK(t, ts, "/v1/call/end", endBody{ID: 20})
	if state, err := audit.HGet("call:20", "state"); err != nil || state != "ended" {
		t.Errorf("call 20 end answered 200, store holds state %q (%v)", state, err)
	}
	if ctrl.Knows(20) {
		t.Error("call 20 still live after its end answered 200")
	}
}

// TestFencedWriteAnswers503: a controller whose lease moved to another owner
// has its writes fenced by the store, and each answers 503 instead of 200.
func TestFencedWriteAnswers503(t *testing.T) {
	_, audit, ctrl, ts := storeBehindProxy(t)
	ctx := context.Background()
	epoch, err := audit.SetLeaseContext(ctx, "leader", "node-a", 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.SetLease("leader", epoch)
	if resp, out := post(t, ts, "/v1/call/start", startBody{ID: 1, Country: "JP"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("start while leading: %d %v", resp.StatusCode, out)
	}
	time.Sleep(100 * time.Millisecond) // node-a's grant lapses
	if _, err := audit.SetLeaseContext(ctx, "leader", "node-b", time.Minute); err != nil {
		t.Fatal(err)
	}
	resp, _ := post(t, ts, "/v1/call/start", startBody{ID: 2, Country: "JP"})
	wantShed(t, "deposed start", resp)
	if ctrl.Stats().Fenced != 1 {
		t.Errorf("fenced writes = %d, want 1", ctrl.Stats().Fenced)
	}
	if h, err := audit.HGetAll("call:2"); err != nil || len(h) != 0 {
		t.Errorf("fenced start landed: %v, %v", h, err)
	}
}

// TestStatsKVCounters checks that the client's robustness counters surface
// in /v1/stats once the API is handed the store client, and that a store
// outage actually moves them.
func TestStatsKVCounters(t *testing.T) {
	world := geo.DefaultWorld()
	srv := kvstore.NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	client, err := kvstore.DialOptions(l.Addr().String(), kvstore.Options{
		DialTimeout: 250 * time.Millisecond,
		IOTimeout:   250 * time.Millisecond,
		MaxRetries:  -1,
		BackoffMin:  10 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctrl, err := controller.New(controller.Config{World: world, Store: client})
	if err != nil {
		t.Fatal(err)
	}
	s := New(world, ctrl)
	s.KV = client
	ts := httptest.NewServer(s.Mux())
	defer ts.Close()

	_, stats := get(t, ts, "/v1/stats")
	for _, k := range []string{"kv_redials", "kv_retries", "kv_poisonings"} {
		if _, ok := stats[k].(float64); !ok {
			t.Fatalf("stats missing %s: %v", k, stats)
		}
	}

	// Sever the store: the shed write poisons the connection.
	srv.Close()
	post(t, ts, "/v1/call/start", startBody{ID: 1, Country: "JP"})
	_, stats = get(t, ts, "/v1/stats")
	if stats["kv_poisonings"].(float64) < 1 {
		t.Errorf("kv_poisonings after outage = %v, want >= 1", stats["kv_poisonings"])
	}
}

// TestMuxMetrics routes requests through the obs middleware and checks the
// per-route counters and latency histograms in the exposition, including a
// 4xx outcome.
func TestMuxMetrics(t *testing.T) {
	s, _ := newTestServer(t)
	reg := obs.NewRegistry()
	s.HTTP = obs.NewHTTPMetrics(reg)
	ts := httptest.NewServer(s.Mux())
	defer ts.Close()

	if resp, _ := post(t, ts, "/v1/call/start", startBody{ID: 1, Country: "JP"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("start: %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts, "/v1/call/start", startBody{ID: 2, Country: "ZZ"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad start: %d", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/v1/stats"); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}

	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`sb_http_requests_total{route="POST /v1/call/start",code="2xx"} 1`,
		`sb_http_requests_total{route="POST /v1/call/start",code="4xx"} 1`,
		`sb_http_requests_total{route="GET /v1/stats",code="2xx"} 1`,
		`sb_http_request_seconds_count{route="POST /v1/call/start"} 2`,
		"sb_http_inflight_requests 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestDCFailEndpointDrains(t *testing.T) {
	_, ts := newTestServer(t)
	resp, out := post(t, ts, "/v1/call/start", startBody{ID: 1, Country: "JP"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("start: %d", resp.StatusCode)
	}
	dc := int(out["dc"].(float64))

	resp, out = post(t, ts, "/v1/dc/fail", dcBody{DC: dc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fail: %d %v", resp.StatusCode, out)
	}
	if out["drained"].(float64) != 1 {
		t.Errorf("drained = %v, want 1", out["drained"])
	}
	_, stats := get(t, ts, "/v1/stats")
	if stats["failed_over"].(float64) != 1 {
		t.Errorf("failed_over = %v", stats["failed_over"])
	}
	dcs, ok := stats["failed_dcs"].([]any)
	if !ok || len(dcs) != 1 || int(dcs[0].(float64)) != dc {
		t.Errorf("failed_dcs = %v", stats["failed_dcs"])
	}
	// A new JP call avoids the failed DC.
	resp, out = post(t, ts, "/v1/call/start", startBody{ID: 2, Country: "JP"})
	if resp.StatusCode != http.StatusOK || int(out["dc"].(float64)) == dc {
		t.Errorf("post-fail start: %d %v", resp.StatusCode, out)
	}

	resp, _ = post(t, ts, "/v1/dc/recover", dcBody{DC: dc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recover: %d", resp.StatusCode)
	}
	_, stats = get(t, ts, "/v1/stats")
	if dcs, _ := stats["failed_dcs"].([]any); len(dcs) != 0 {
		t.Errorf("failed_dcs after recover = %v", stats["failed_dcs"])
	}
}

func TestWorldAndHealth(t *testing.T) {
	_, ts := newTestServer(t)
	resp, out := get(t, ts, "/v1/world")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("world: %d", resp.StatusCode)
	}
	dcs, ok := out["dcs"].([]any)
	if !ok || len(dcs) != 12 {
		t.Errorf("world dcs = %v", out["dcs"])
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()
}
