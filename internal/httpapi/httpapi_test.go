package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"switchboard/internal/controller"
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
	resp, out := post(t, ts, "/v1/call/start", StartRequest{ID: 1, Country: "JP"})
	if resp.StatusCode != http.StatusOK || out["dc_name"] != "tokyo" {
		t.Fatalf("start: %d %v", resp.StatusCode, out)
	}
	// Config turns out Indonesia-majority: migrate (the §5.4 example).
	resp, out = post(t, ts, "/v1/call/config", ConfigRequest{ID: 1, Config: "video|ID:5,JP:3"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("config: %d %v", resp.StatusCode, out)
	}
	if out["migrated"] != true {
		t.Errorf("expected migration: %v", out)
	}
	resp, _ = post(t, ts, "/v1/call/end", EndRequest{ID: 1})
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
	resp, _ := post(t, ts, "/v1/call/start", StartRequest{ID: 9, Country: "ZZ"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown country -> %d, want 400", resp.StatusCode)
	}
	// Malformed config string.
	post(t, ts, "/v1/call/start", StartRequest{ID: 2, Country: "US"})
	resp, _ = post(t, ts, "/v1/call/config", ConfigRequest{ID: 2, Config: "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad config -> %d, want 400", resp.StatusCode)
	}
	// Duplicate start: conflict.
	resp, _ = post(t, ts, "/v1/call/start", StartRequest{ID: 2, Country: "US"})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate start -> %d, want 409", resp.StatusCode)
	}
	// Unknown call ID: not found.
	resp, _ = post(t, ts, "/v1/call/end", EndRequest{ID: 777})
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
		name string
		path string
		body string
		want int
	}{
		{"malformed json", "/v1/call/start", `{"id":`, http.StatusBadRequest},
		{"wrong type", "/v1/call/start", `{"id":"one","country":"US"}`, http.StatusBadRequest},
		{"unknown field", "/v1/call/start", `{"id":3,"country":"US","bogus":1}`, http.StatusBadRequest},
		{"trailing garbage", "/v1/call/start", `{"id":3,"country":"US"} extra`, http.StatusBadRequest},
		{"oversized body", "/v1/call/start", `{"id":3,"country":"` + string(big) + `"}`, http.StatusRequestEntityTooLarge},
		{"unknown call config", "/v1/call/config", `{"id":555,"config":"audio|US:2"}`, http.StatusNotFound},
		{"unknown call end", "/v1/call/end", `{"id":556}`, http.StatusNotFound},
		{"bad dc fail", "/v1/dc/fail", `{"dc":-3}`, http.StatusBadRequest},
		{"bad dc recover", "/v1/dc/recover", `{"dc":9999}`, http.StatusBadRequest},
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
		})
	}
}

func TestReadyzTracksDegradation(t *testing.T) {
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
	ctrl, err := controller.New(controller.Config{World: world, Store: client, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(world, ctrl).Mux())
	defer ts.Close()

	// Healthy: both probes pass.
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s while healthy: %v %v", path, err, resp)
		}
		resp.Body.Close()
	}

	// Kill the store and force a degraded write.
	srv.Close()
	post(t, ts, "/v1/call/start", StartRequest{ID: 1, Country: "JP"})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while degraded: %v %v", err, resp)
	}
	resp.Body.Close()
	resp, out := get(t, ts, "/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while degraded -> %d, want 503", resp.StatusCode)
	}
	if out["ready"] != false || out["journal_depth"].(float64) < 1 {
		t.Errorf("readyz body = %v", out)
	}
	_, stats := get(t, ts, "/v1/stats")
	if stats["degraded"].(float64) < 1 || stats["journal_depth"].(float64) < 1 {
		t.Errorf("stats while degraded = %v", stats)
	}

	// Recover: restart the store on the same address, drain the journal, and
	// readiness must flip back to 200.
	srv2 := kvstore.NewServer()
	addr := l.Addr().String()
	var l2 net.Listener
	for i := 0; ; i++ {
		l2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 50 {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	go srv2.Serve(l2)
	defer srv2.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := ctrl.ReplayJournal(context.Background()); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("journal did not drain after store restart")
		}
		time.Sleep(20 * time.Millisecond)
	}
	resp, out = get(t, ts, "/readyz")
	if resp.StatusCode != http.StatusOK || out["ready"] != true {
		t.Errorf("readyz after recovery -> %d %v, want 200 ready", resp.StatusCode, out)
	}
	_, stats = get(t, ts, "/v1/stats")
	if stats["journal_depth"].(float64) != 0 {
		t.Errorf("journal_depth after drain = %v, want 0", stats["journal_depth"])
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
	ctrl, err := controller.New(controller.Config{World: world, Store: client, ProbeInterval: time.Hour})
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

	// Sever the store: the degraded write poisons the connection.
	srv.Close()
	post(t, ts, "/v1/call/start", StartRequest{ID: 1, Country: "JP"})
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

	if resp, _ := post(t, ts, "/v1/call/start", StartRequest{ID: 1, Country: "JP"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("start: %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts, "/v1/call/start", StartRequest{ID: 2, Country: "ZZ"}); resp.StatusCode != http.StatusBadRequest {
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
	resp, out := post(t, ts, "/v1/call/start", StartRequest{ID: 1, Country: "JP"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("start: %d", resp.StatusCode)
	}
	dc := int(out["dc"].(float64))

	resp, out = post(t, ts, "/v1/dc/fail", DCRequest{DC: dc})
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
	resp, out = post(t, ts, "/v1/call/start", StartRequest{ID: 2, Country: "JP"})
	if resp.StatusCode != http.StatusOK || int(out["dc"].(float64)) == dc {
		t.Errorf("post-fail start: %d %v", resp.StatusCode, out)
	}

	resp, _ = post(t, ts, "/v1/dc/recover", DCRequest{DC: dc})
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
