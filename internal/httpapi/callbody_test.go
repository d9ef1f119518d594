package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/geo"
	"switchboard/internal/model"
	"switchboard/internal/obs"
	"switchboard/internal/obs/span"
)

// The bodies the routes take, as encoding/json structs: tests build
// request bodies with them, and referenceDecode decodes with them.
type (
	startBody struct {
		ID       uint64 `json:"id"`
		Country  string `json:"country"`
		SeriesID uint64 `json:"series_id,omitempty"`
	}
	configBody struct {
		ID     uint64 `json:"id"`
		Config string `json:"config"`
	}
	endBody struct {
		ID uint64 `json:"id"`
	}
	dcBody struct {
		DC int `json:"dc"`
	}
	reshardBody struct {
		TargetShards int `json:"target_shards"`
	}
)

// referenceDecode decodes body with encoding/json into the route's body
// struct, with DisallowUnknownFields and nothing but whitespace after the
// document.
func referenceDecode(body []byte, fields uint8) (callBody, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var (
		req callBody
		err error
	)
	switch fields {
	case startFields:
		var v startBody
		err = dec.Decode(&v)
		req = callBody{id: v.ID, country: []byte(v.Country), seriesID: v.SeriesID}
	case configFields:
		var v configBody
		err = dec.Decode(&v)
		req = callBody{id: v.ID, config: []byte(v.Config)}
	case endFields:
		var v endBody
		err = dec.Decode(&v)
		req = callBody{id: v.ID}
	case dcFields:
		var v dcBody
		err = dec.Decode(&v)
		req = callBody{dc: v.DC}
	default:
		var v reshardBody
		err = dec.Decode(&v)
		req = callBody{targetShards: v.TargetShards}
	}
	if err == nil && len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		err = errors.New("trailing data after JSON body")
	}
	return req, err
}

// The grammar as regular expressions: a whole body, and one member of it.
// Strings hold no quote, so the members of a body that refBody matches are
// found left to right without ambiguity.
const (
	refSpace  = `[ \t\r\n]*`
	refMember = `"([a-z_]*)"` + refSpace + `:` + refSpace + `("[ !#-\[\]-~]*"|0|[1-9][0-9]*)`
)

var (
	refBody    = regexp.MustCompile(`^` + refSpace + `\{` + refSpace + `(?:` + refMember + `(?:` + refSpace + `,` + refSpace + refMember + `)*` + refSpace + `)?\}` + refSpace + `$`)
	refMembers = regexp.MustCompile(refMember)
)

// refField is one field as the recognizer knows it: whether its value is a
// string, its bound when it is a number, and whether a body may leave it out.
type refField struct {
	str      bool
	max      uint64
	optional bool
}

var refRoutes = map[uint8]map[string]refField{
	startFields:   {"id": {max: math.MaxUint64}, "country": {str: true}, "series_id": {max: math.MaxUint64, optional: true}},
	configFields:  {"id": {max: math.MaxUint64}, "config": {str: true}},
	endFields:     {"id": {max: math.MaxUint64}},
	dcFields:      {"dc": {max: 65535}},
	reshardFields: {"target_shards": {max: 1024}},
}

// recognize is the reference recognizer of the grammar, written apart from
// the parser: it reports whether body is a body of the route and, if so,
// its field values.
func recognize(body []byte, fields uint8) (callBody, bool) {
	if !refBody.Match(body) {
		return callBody{}, false
	}
	route := refRoutes[fields]
	var req callBody
	seen := map[string]bool{}
	for _, m := range refMembers.FindAllSubmatch(body, -1) {
		name, val := string(m[1]), m[2]
		f, ok := route[name]
		if !ok || seen[name] || f.str != (val[0] == '"') {
			return callBody{}, false
		}
		seen[name] = true
		if f.str {
			val = val[1 : len(val)-1]
			if name == "country" {
				req.country = val
			} else {
				req.config = val
			}
			continue
		}
		v, err := strconv.ParseUint(string(val), 10, 64)
		if err != nil || v > f.max {
			return callBody{}, false
		}
		switch name {
		case "id":
			req.id = v
		case "series_id":
			req.seriesID = v
		case "dc":
			req.dc = int(v)
		default:
			req.targetShards = int(v)
		}
	}
	for name, f := range route {
		if !f.optional && !seen[name] {
			return callBody{}, false
		}
	}
	return req, true
}

var routeFields = []struct {
	name   string
	fields uint8
}{
	{"start", startFields}, {"config", configFields}, {"end", endFields},
	{"dc", dcFields}, {"reshard", reshardFields},
}

func sameBody(a, b callBody) bool {
	return a.id == b.id && a.seriesID == b.seriesID && a.dc == b.dc && a.targetShards == b.targetShards &&
		bytes.Equal(a.country, b.country) && bytes.Equal(a.config, b.config)
}

// FuzzCallBodies checks the parser against two references on every route:
// the grammar's recognizer accepts exactly the bodies the parser accepts,
// with the same field values; and encoding/json accepts every body the
// parser accepts, with the same field values.
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
		// The admin bodies.
		`{"dc":3}`, ` {"dc" : 0}`, `{"dc":65535}`, `{"dc":65536}`, `{"dc":-1}`, `{"dc":"3"}`,
		`{"target_shards":4}`, `{"target_shards":1024}`, `{"target_shards":1025}`, `{"target_shards":4,"dc":1}`,
	} {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, r := range routeFields {
			got, err := parseCallBody(body, r.fields)
			want, ok := recognize(body, r.fields)
			if (err == nil) != ok {
				t.Fatalf("%s: parser says %v on %q, recognizer accepts it: %v", r.name, err, body, ok)
			}
			if !ok {
				continue
			}
			if !sameBody(got, want) {
				t.Fatalf("%s: %q parsed as %+v, recognizer read %+v", r.name, body, got, want)
			}
			ref, err := referenceDecode(body, r.fields)
			if err != nil {
				t.Fatalf("%s: parser accepted %q, encoding/json refused it: %v", r.name, body, err)
			}
			if !sameBody(got, ref) {
				t.Fatalf("%s: %q parsed as %+v, encoding/json read %+v", r.name, body, got, ref)
			}
		}
	})
}

// TestCallBodyFastPath pins what the parser takes and the reason it gives
// for what it refuses, so the fuzz properties above cannot hold vacuously.
func TestCallBodyFastPath(t *testing.T) {
	for _, tc := range []struct {
		fields uint8
		body   string
		want   *callBody // nil: refused with err
		err    error
	}{
		{startFields, `{"id":      4711,"country":"JP","series_id":7}`, &callBody{id: 4711, country: []byte("JP"), seriesID: 7}, nil},
		{startFields, ` { "country" : "US" , "id" : 0 } `, &callBody{country: []byte("US")}, nil},
		{configFields, `{"id":18446744073709551615,"config":"video|ID:5,JP:3"}`, &callBody{id: 1<<64 - 1, config: []byte("video|ID:5,JP:3")}, nil},
		{endFields, "{\"id\":3}\n", &callBody{id: 3}, nil},
		{endFields, `{}`, nil, bodyFields[0].missing},
		{endFields, `{"id":18446744073709551616}`, nil, bodyFields[0].invalid},
		{endFields, `{"id":03}`, nil, bodyFields[0].invalid},
		{endFields, `{"id":3.0}`, nil, bodyFields[0].invalid},
		{endFields, `{"id":3e0}`, nil, bodyFields[0].invalid},
		{endFields, `{"id":null}`, nil, bodyFields[0].invalid},
		{endFields, `{"ID":3}`, nil, errUnknownField},
		{endFields, `{"id":3,"id":4}`, nil, errDuplicateField},
		{endFields, `{"id":3,"country":"US"}`, nil, errUnknownField},
		{endFields, `{"id":3} `, &callBody{id: 3}, nil},
		{endFields, `{"id":3}}`, nil, errTrailing},
		{endFields, `{"id":3 4}`, nil, errSyntax},
		{endFields, `{"id":3,}`, nil, errFieldName},
		{endFields, `[3]`, nil, errNotObject},
		{startFields, `{"id":3}`, nil, bodyFields[1].missing},
		{startFields, `{"id":3,"country":"U\u0053"}`, nil, bodyFields[1].invalid},
		{startFields, `{"id":3,"country":null}`, nil, bodyFields[1].invalid},
		{configFields, `{"id":3,"series_id":1}`, nil, errUnknownField},
		{configFields, `{"id":3}`, nil, bodyFields[3].missing},
		{dcFields, `{"dc":65535}`, &callBody{dc: 65535}, nil},
		{dcFields, `{"dc":65536}`, nil, bodyFields[4].invalid},
		{dcFields, `{}`, nil, bodyFields[4].missing},
		{reshardFields, `{"target_shards":1024}`, &callBody{targetShards: 1024}, nil},
		{reshardFields, `{"target_shards":1025}`, nil, bodyFields[5].invalid},
		{reshardFields, `{"target_shards":-4}`, nil, bodyFields[5].invalid},
	} {
		got, err := parseCallBody([]byte(tc.body), tc.fields)
		switch {
		case tc.want == nil && err != tc.err:
			t.Errorf("%q: parsed as %+v, %v; want refused with %q", tc.body, got, err, tc.err)
		case tc.want != nil && (err != nil || !sameBody(got, *tc.want)):
			t.Errorf("%q: parsed as %+v (%v), want %+v", tc.body, got, err, *tc.want)
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
