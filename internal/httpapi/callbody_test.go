package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/geo"
	"switchboard/internal/model"
	"switchboard/internal/obs"
	"switchboard/internal/obs/span"
)

// referenceDecode is the route's reference decoder: encoding/json with
// DisallowUnknownFields and the trailing-data check, as decodeBytes runs it.
func referenceDecode(body []byte, fields uint8) (callBody, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var (
		req callBody
		err error
	)
	switch fields {
	case startFields:
		var v StartRequest
		err = dec.Decode(&v)
		req = callBody{id: v.ID, country: []byte(v.Country), seriesID: v.SeriesID}
	case configFields:
		var v ConfigRequest
		err = dec.Decode(&v)
		req = callBody{id: v.ID, config: []byte(v.Config)}
	default:
		var v EndRequest
		err = dec.Decode(&v)
		req = callBody{id: v.ID}
	}
	if err == nil && dec.More() {
		err = errors.New("trailing data after JSON body")
	}
	return req, err
}

var routeFields = []struct {
	name   string
	fields uint8
}{{"start", startFields}, {"config", configFields}, {"end", endFields}}

func sameBody(a, b callBody) bool {
	return a.id == b.id && a.seriesID == b.seriesID &&
		bytes.Equal(a.country, b.country) && bytes.Equal(a.config, b.config)
}

// FuzzCallBodies: whenever the byte-level parser accepts a body for a route,
// the reference decoder accepts it too, with identical field values.
func FuzzCallBodies(f *testing.F) {
	for _, b := range []string{
		// The benchmark generator's bodies: IDs right-aligned in spaces.
		`{"id":      4711,"country":"JP","series_id":7}`,
		`{"id":        12,"config":"video|ID:5,JP:3"}`,
		`{"id":         9}`,
		` { "id" : 1 , "country" : "US" } `, "\t{\"id\":1}\r\n",
		`{}`, `{"id":0}`, `{"id":18446744073709551615}`, `{"id":18446744073709551616}`,
		`{"id":01}`, `{"id":-1}`, `{"id":1.0}`, `{"id":1e3}`, `{"id":"1"}`, `{"id":null}`,
		`{"ID":1}`, `{"Id":1,"Country":"JP"}`, `{"id":1,"id":2}`, `{"id":1,"bogus":2}`,
		`{"id":1} extra`, `{"id":1}}`, `{"id":1}]`, `{"id":1}{"id":2}`, `{"id":1,}`,
		`{"id":1,"country":"JP"}`, `{"id":1,"country":"J\"P"}`, `{"id":1,"country":"日本"}`,
		"{\"id\":1,\"country\":\"J\x01P\"}", "{\"id\":1,\"country\":\"\xff\"}",
		`{"id":1,"config":"audio|US:2","series_id":3}`, `{"id":1,"country":null}`,
		`{"id":1`, `{"id"`, `{`, ``, `null`, `[]`, `{"id":1 2}`,
	} {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, r := range routeFields {
			got, ok := parseCallBody(body, r.fields)
			if !ok {
				continue
			}
			want, err := referenceDecode(body, r.fields)
			if err != nil {
				t.Fatalf("%s: parser accepted %q, reference decoder refused it: %v", r.name, body, err)
			}
			if !sameBody(got, want) {
				t.Fatalf("%s: %q parsed as %+v, reference decoder read %+v", r.name, body, got, want)
			}
		}
	})
}

// TestCallBodyFastPath pins what the byte-level parser takes itself and what
// it leaves to the reference decoder, so the fuzz property above cannot hold
// vacuously.
func TestCallBodyFastPath(t *testing.T) {
	for _, tc := range []struct {
		fields uint8
		body   string
		want   *callBody // nil: declined
	}{
		{startFields, `{"id":      4711,"country":"JP","series_id":7}`, &callBody{id: 4711, country: []byte("JP"), seriesID: 7}},
		{startFields, ` { "country" : "US" , "id" : 0 } `, &callBody{country: []byte("US")}},
		{configFields, `{"id":18446744073709551615,"config":"video|ID:5,JP:3"}`, &callBody{id: 1<<64 - 1, config: []byte("video|ID:5,JP:3")}},
		{endFields, "{\"id\":3}\n", &callBody{id: 3}},
		{endFields, `{}`, &callBody{}},
		{endFields, `{"id":18446744073709551616}`, nil},
		{endFields, `{"id":03}`, nil},
		{endFields, `{"id":3.0}`, nil},
		{endFields, `{"ID":3}`, nil},
		{endFields, `{"id":3,"id":4}`, nil},
		{endFields, `{"id":3,"country":"US"}`, nil},
		{endFields, `{"id":3} `, &callBody{id: 3}},
		{endFields, `{"id":3}}`, nil},
		{startFields, `{"id":3,"country":"U\u0053"}`, nil},
		{startFields, `{"id":3,"country":null}`, nil},
		{configFields, `{"id":3,"series_id":1}`, nil},
	} {
		got, ok := parseCallBody([]byte(tc.body), tc.fields)
		switch {
		case tc.want == nil && ok:
			t.Errorf("%q: parsed as %+v, want it declined", tc.body, got)
		case tc.want != nil && (!ok || !sameBody(got, *tc.want)):
			t.Errorf("%q: parsed as %+v (ok=%v), want %+v", tc.body, got, ok, *tc.want)
		}
	}
}

// TestReplyBodiesGolden: every precomputed reply is byte for byte what
// json.NewEncoder wrote for the same wire value, HTML escaping included.
func TestReplyBodiesGolden(t *testing.T) {
	dcs := append([]geo.DC(nil), geo.DefaultWorld().DCs()...)
	dcs = append(dcs, geo.DC{Name: `a<b>&"c"`}, geo.DC{Name: "ü "})
	start, config := replyBodies(dcs)
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for i, dc := range dcs {
		if want := encode(StartResponse{DC: i, DCName: dc.Name}); !bytes.Equal(start[i], want) {
			t.Errorf("start reply for DC %d = %q, want %q", i, start[i], want)
		}
		for m, migrated := range []bool{false, true} {
			want := encode(ConfigResponse{DC: i, DCName: dc.Name, Migrated: migrated})
			if !bytes.Equal(config[m][i], want) {
				t.Errorf("config reply for DC %d migrated=%v = %q, want %q", i, migrated, config[m][i], want)
			}
		}
	}
	if want := encode(map[string]bool{"ok": true}); !bytes.Equal(endReply, want) {
		t.Errorf("end reply = %q, want %q", endReply, want)
	}
}

// discardWriter is a reusable ResponseWriter that keeps only the status.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// callRouteAllocBounds are the measured allocations of one request on each
// call route, through Mux with metrics and tracing on and a plan placer
// behind the controller. They include the request's context and span, the
// call state and the decision record; encoding/json on the path would add
// a dozen more.
var callRouteAllocBounds = map[string]float64{"start": 8, "config": 10, "end": 6}

// TestCallRouteAllocs bounds the allocations of each call route's request.
func TestCallRouteAllocs(t *testing.T) {
	world := geo.DefaultWorld()
	cfg, err := model.ParseConfigKey("video|ID:5,JP:3")
	if err != nil {
		t.Fatal(err)
	}
	slots := make([]float64, len(world.DCs()))
	for i := range slots {
		slots[i] = 1e6
	}
	placer := controller.NewPlanPlacer([]model.CallConfig{cfg}, [][][]float64{{slots}},
		func(c model.CallConfig, dc int) float64 { return c.ACL(world, dc) }, len(world.DCs()))
	reg := obs.NewRegistry()
	ctrl, err := controller.New(controller.Config{
		World:     world,
		Placer:    placer,
		Metrics:   controller.NewMetrics(reg),
		Decisions: obs.NewDecisionRing(obs.DefaultRingCapacity),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(world, ctrl)
	s.HTTP = obs.NewHTTPMetrics(reg)
	s.Tracer = span.NewTracer(1, span.NewRing(span.DefaultRingCapacity))
	now := time.Date(2024, 1, 2, 14, 0, 0, 0, time.UTC)
	s.Now = func() time.Time { return now }
	mux := s.Mux()

	const runs = 200
	bodies := map[string]string{
		"start":  `{"id":%10d,"country":"JP","series_id":7}`,
		"config": `{"id":%10d,"config":"video|ID:5,JP:3"}`,
		"end":    `{"id":%10d}`,
	}
	w := &discardWriter{h: make(http.Header)}
	for _, route := range []string{"start", "config", "end"} {
		// AllocsPerRun makes one warm-up call before its runs.
		reqs := make([]*http.Request, runs+1)
		for i := range reqs {
			body := fmt.Sprintf(bodies[route], i+1)
			reqs[i], _ = http.NewRequest(http.MethodPost, "/v1/call/"+route, strings.NewReader(body))
		}
		next := 0
		got := testing.AllocsPerRun(runs, func() {
			w.code = http.StatusOK
			mux.ServeHTTP(w, reqs[next])
			next++
			if w.code != http.StatusOK {
				t.Fatalf("%s answered %d", route, w.code)
			}
		})
		if bound := callRouteAllocBounds[route]; got > bound {
			t.Errorf("a %s request allocates %.1f times, want at most %v", route, got, bound)
		} else {
			t.Logf("a %s request allocates %.1f times (bound %v)", route, got, bound)
		}
	}
}

// TestReadBodyPaths: a body is read the same whichever path readBody takes
// — presized (small declared length) or grown as it arrives (larger declared
// length or chunked) — and a chunked body past the cap still answers 413.
func TestReadBodyPaths(t *testing.T) {
	_, ts := newTestServer(t)
	pad := func(n int) string { return strings.Repeat(" ", n) }
	for i, tc := range []struct {
		name    string
		body    string
		chunked bool
		want    int
	}{
		{"at the presize limit", `{"id":2,"country":"US"}` + pad(maxPresizedBody-23), false, http.StatusOK},
		{"past the presize limit", `{"id":3,"country":"US"}` + pad(maxPresizedBody), false, http.StatusOK},
		{"chunked", `{"id":4,"country":"US"}`, true, http.StatusOK},
		{"oversized chunked", `{"id":6,"country":"US"}` + pad(maxRequestBody), true, http.StatusRequestEntityTooLarge},
	} {
		var body io.Reader = strings.NewReader(tc.body)
		if tc.chunked {
			body = io.MultiReader(body) // hides the length: sent chunked
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/call/start", body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("case %d (%s, %d bytes): %d, want %d", i, tc.name, len(tc.body), resp.StatusCode, tc.want)
		}
	}
}
