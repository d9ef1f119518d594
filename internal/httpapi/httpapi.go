// Package httpapi exposes the realtime controller over HTTP — the service
// surface cmd/switchboard serves. Handlers are plain net/http so they can be
// tested with httptest and embedded in other binaries.
package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/geo"
	"switchboard/internal/kvstore"
	"switchboard/internal/model"
	"switchboard/internal/obs"
	"switchboard/internal/obs/span"
)

// maxRequestBody caps request bodies; call-control messages are tiny, so
// anything larger is hostile or broken.
const maxRequestBody = 64 << 10

// maxPresizedBody is the largest declared Content-Length readBody allocates
// up front. It covers every call-control body; a larger declaration is read
// as its bytes arrive, so a client that declares much and sends little pins
// no more than this per connection.
const maxPresizedBody = 4 << 10

// Server wires the controller to HTTP routes.
type Server struct {
	world *geo.World
	ctrl  *controller.Controller
	// Now returns the current time; overridable for tests.
	Now func() time.Time
	// HTTP, when non-nil, wraps every route in request-count/latency/status
	// middleware (see obs.NewHTTPMetrics). Set before calling Mux.
	HTTP *obs.HTTPMetrics
	// KV, when non-nil, contributes the store client's retry/redial/poison
	// counters to /v1/stats. Set before serving.
	KV *kvstore.Client
	// Tracer, when non-nil, starts a root span per request; the request
	// context carries it through the controller into the kvstore wire. Set
	// before calling Mux.
	Tracer *span.Tracer
	// SLO, when non-nil, contributes burn-rate summaries to /readyz. Set
	// before serving.
	SLO *obs.SLOMonitor
	// Registry, when non-nil, serves this node's metric snapshot as JSON on
	// /metrics/instance and the fleet-wide label-merged view on
	// /metrics/fleet (see fleet.go). Set before calling Mux.
	Registry *obs.Registry
	// Instance names this node in fleet metric snapshots. Defaults to the
	// shard manager's ID when sharded, else "self". Set before serving.
	Instance string
	// FleetTimeout bounds each peer scrape during a /metrics/fleet fan-out
	// (DefaultFleetTimeout when 0).
	FleetTimeout time.Duration
	// Shards, when non-nil, makes this node one of a sharded fleet:
	// call-control requests resolve their owning shard from the conference ID
	// and are served locally, proxied to the owner, or answered with routing
	// hints (see ShardRouter). An HA pair is a one-shard fleet. Set before
	// calling Mux.
	Shards *ShardRouter
	// Reshard, when non-nil, registers the reshard admin endpoints
	// (POST/GET /v1/reshard, POST /v1/reshard/abort). Requires Shards. Set
	// before calling Mux.
	Reshard *ReshardAdmin

	fleet fleetCache // last-good peer snapshots for /metrics/fleet

	// Built by Mux: the call routes' reply bodies by DC (see replyBodies)
	// and the world's country codes, so a start interns its country
	// instead of copying it out of the body.
	startReplies  [][]byte
	configReplies [2][][]byte // [migrated][dc]
	countries     map[string]geo.CountryCode
}

// New returns a Server for the given world and controller.
func New(world *geo.World, ctrl *controller.Controller) *Server {
	return &Server{world: world, ctrl: ctrl, Now: time.Now}
}

// Mux returns the route table:
//
//	POST /v1/call/start  {"id":1,"country":"JP","series_id":7}
//	POST /v1/call/config {"id":1,"config":"video|ID:5,JP:3"}
//	POST /v1/call/end    {"id":1}
//	POST /v1/dc/fail     {"dc":3}
//	POST /v1/dc/recover  {"dc":3}
//	GET  /v1/stats
//	GET  /v1/world
//	GET  /healthz
//	GET  /readyz
//
// /healthz answers 200 whenever the process serves requests (liveness).
// /readyz additionally demands the store path be healthy: while the
// controller runs degraded (journaling writes) it answers 503, so load
// balancers stop steering new call-control traffic at this replica without
// killing it — the journal still needs to drain.
func (s *Server) Mux() *http.ServeMux {
	s.startReplies, s.configReplies = replyBodies(s.world.DCs())
	s.countries = make(map[string]geo.CountryCode, len(s.world.Countries()))
	for _, c := range s.world.Countries() {
		s.countries[string(c.Code)] = c.Code
	}
	mux := http.NewServeMux()
	// handle routes through the tracing then metrics middleware; the route
	// pattern doubles as the metric label and span name. Nil s.HTTP or
	// s.Tracer each wrap to the bare handler, so the stack degrades to
	// nothing when telemetry is off.
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.HTTP.Wrap(pattern, s.Tracer.WrapHTTP(pattern, h)))
	}
	handle("POST /v1/call/start", s.callRoute(startFields, s.handleStart))
	handle("POST /v1/call/config", s.callRoute(configFields, s.handleConfig))
	handle("POST /v1/call/end", s.callRoute(endFields, s.handleEnd))
	handle("POST /v1/dc/fail", s.handleDCFail)
	handle("POST /v1/dc/recover", s.handleDCRecover)
	handle("GET /v1/stats", s.handleStats)
	handle("GET /v1/world", s.handleWorld)
	if s.Shards != nil {
		handle("GET /v1/shards", s.handleShards)
	}
	if s.Reshard != nil {
		handle("POST /v1/reshard", s.handleReshardStart)
		handle("GET /v1/reshard", s.handleReshardStatus)
		handle("POST /v1/reshard/abort", s.handleReshardAbort)
	}
	if s.Registry != nil {
		handle("GET /metrics/instance", s.handleMetricsInstance)
		handle("GET /metrics/fleet", s.handleMetricsFleet)
	}
	handle("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = fmt.Fprintln(w, "ok")
	})
	handle("GET /readyz", s.handleReadyz)
	return mux
}

// statusFor maps controller errors onto HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, controller.ErrUnknownCall):
		return http.StatusNotFound
	case errors.Is(err, controller.ErrDuplicateCall):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

// callHandler is a call-control handler bound late to a controller: the
// route wrapper picks which controller serves the request (the fleet-wide one
// when unsharded, the owning shard's otherwise) and hands over the decoded
// body.
type callHandler func(ctrl *controller.Controller, req *callBody, w http.ResponseWriter, r *http.Request)

// callRoute wraps a call-control handler with body decoding and shard
// routing. The body is read up front: routing needs the conference ID before
// dispatch, and forwarding needs the raw bytes. fields names the route's
// body fields (startFields, configFields or endFields).
func (s *Server) callRoute(fields uint8, h callHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, ok := s.readBody(w, r)
		if !ok {
			return
		}
		req, parsed := parseCallBody(body, fields)
		if s.Shards == nil {
			if parsed || s.decodeCall(w, body, fields, &req) {
				h(s.ctrl, &req, w, r)
			}
			return
		}
		// Routing only needs the conference ID; the handler's strict decode
		// still validates the full body once the request lands on its owner.
		id := req.id
		if !parsed {
			var probe struct {
				ID uint64 `json:"id"`
			}
			if err := json.Unmarshal(body, &probe); err != nil {
				httpError(w, http.StatusBadRequest, err)
				return
			}
			id = probe.ID
		}
		m := s.Shards.Manager
		// BeginWrite pins the request to the current ring epoch: while a
		// reshard is copying, writes to moving keys are registered so the
		// journal-handoff barrier can wait them out; during the barrier
		// itself they are Held (503, nothing admitted, nothing to lose).
		d, release := m.BeginWrite(id)
		if release != nil {
			defer release()
		}
		w.Header().Set(ShardHeader, strconv.Itoa(d.Shard))
		if d.Held {
			s.Shards.heldResponse(d, w)
			return
		}
		// An unknown call stays a clean 404 after the cutover double-read.
		if ctrl := m.Serving(r.Context(), id, d); ctrl != nil {
			if parsed || s.decodeCall(w, body, fields, &req) {
				h(ctrl, &req, w, r)
			}
			return
		}
		s.Shards.relay(d, body, w, r)
	}
}

// decodeCall decodes a call body parseCallBody declined through the
// reference decoder into the route's request type, answering 400 on error.
func (s *Server) decodeCall(w http.ResponseWriter, body []byte, fields uint8, req *callBody) bool {
	switch fields {
	case startFields:
		var v StartRequest
		if !s.decodeBytes(w, body, &v) {
			return false
		}
		*req = callBody{id: v.ID, country: []byte(v.Country), seriesID: v.SeriesID}
	case configFields:
		var v ConfigRequest
		if !s.decodeBytes(w, body, &v) {
			return false
		}
		*req = callBody{id: v.ID, config: []byte(v.Config)}
	default:
		var v EndRequest
		if !s.decodeBytes(w, body, &v) {
			return false
		}
		*req = callBody{id: v.ID}
	}
	return true
}

// controllers returns every controller this process hosts: the single
// fleet-wide one, or one per shard.
func (s *Server) controllers() []*controller.Controller {
	if s.Shards != nil {
		return s.Shards.Manager.Controllers()
	}
	return []*controller.Controller{s.ctrl}
}

// StartRequest is the body of POST /v1/call/start.
type StartRequest struct {
	ID       uint64 `json:"id"`
	Country  string `json:"country"`
	SeriesID uint64 `json:"series_id,omitempty"`
}

// StartResponse is the reply to POST /v1/call/start.
type StartResponse struct {
	DC     int    `json:"dc"`
	DCName string `json:"dc_name"`
}

func (s *Server) handleStart(ctrl *controller.Controller, req *callBody, w http.ResponseWriter, r *http.Request) {
	country, ok := s.countries[string(req.country)]
	if !ok {
		country = geo.CountryCode(req.country)
	}
	dc, err := ctrl.CallStartedWithSeries(r.Context(), req.id, country, req.seriesID, s.Now())
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	writeJSON(w, s.startReplies[dc])
}

// ConfigRequest is the body of POST /v1/call/config.
type ConfigRequest struct {
	ID     uint64 `json:"id"`
	Config string `json:"config"`
}

// ConfigResponse is the reply to POST /v1/call/config.
type ConfigResponse struct {
	DC       int    `json:"dc"`
	DCName   string `json:"dc_name"`
	Migrated bool   `json:"migrated"`
}

func (s *Server) handleConfig(ctrl *controller.Controller, req *callBody, w http.ResponseWriter, r *http.Request) {
	cfg, err := model.ParseConfigKey(string(req.config))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	dc, migrated, err := ctrl.ConfigKnown(r.Context(), req.id, cfg, s.Now())
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	m := 0
	if migrated {
		m = 1
	}
	writeJSON(w, s.configReplies[m][dc])
}

// EndRequest is the body of POST /v1/call/end.
type EndRequest struct {
	ID uint64 `json:"id"`
}

// endReply is the reply to POST /v1/call/end.
var endReply = []byte("{\"ok\":true}\n")

func (s *Server) handleEnd(ctrl *controller.Controller, req *callBody, w http.ResponseWriter, r *http.Request) {
	if err := ctrl.CallEnded(r.Context(), req.id); err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	writeJSON(w, endReply)
}

// replyBodies renders every start and config reply once. A start reply is a
// function of the DC, a config reply of the DC and the migrated flag, and
// each body is exactly what json.NewEncoder(w).Encode wrote for it: the
// json.Marshal bytes (HTML-escaped the same way) and a newline.
func replyBodies(dcs []geo.DC) (start [][]byte, config [2][][]byte) {
	line := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // two ints, a string and a bool always marshal
		}
		return append(b, '\n')
	}
	start = make([][]byte, len(dcs))
	config = [2][][]byte{make([][]byte, len(dcs)), make([][]byte, len(dcs))}
	for i, dc := range dcs {
		start[i] = line(StartResponse{DC: i, DCName: dc.Name})
		config[0][i] = line(ConfigResponse{DC: i, DCName: dc.Name})
		config[1][i] = line(ConfigResponse{DC: i, DCName: dc.Name, Migrated: true})
	}
	return start, config
}

// DCRequest is the body of POST /v1/dc/fail and /v1/dc/recover.
type DCRequest struct {
	DC int `json:"dc"`
}

func (s *Server) handleDCFail(w http.ResponseWriter, r *http.Request) {
	var req DCRequest
	if !s.decode(w, r, &req) {
		return
	}
	// A DC failure is world state, not call state: every controller this
	// process hosts (one per shard when sharded) drains its own calls.
	moved := 0
	for _, c := range s.controllers() {
		n, err := c.FailDC(r.Context(), req.DC)
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		moved += n
	}
	s.reply(w, map[string]any{"failed": req.DC, "drained": moved})
}

func (s *Server) handleDCRecover(w http.ResponseWriter, r *http.Request) {
	var req DCRequest
	if !s.decode(w, r, &req) {
		return
	}
	for _, c := range s.controllers() {
		if err := c.RecoverDC(req.DC); err != nil {
			httpError(w, statusFor(err), err)
			return
		}
	}
	s.reply(w, map[string]any{"recovered": req.DC})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	// A sharded node is degraded only if a shard it LEADS is journaling;
	// standby shards journal by design and must not fail readiness — that
	// would let one dead shard 503 the whole fleet.
	degraded, depth := false, 0
	if s.Shards != nil {
		for _, sh := range s.Shards.Manager.Owned() {
			if c := s.Shards.Manager.Controller(sh); c.Degraded() {
				degraded = true
				depth += c.JournalDepth()
			}
		}
	} else if s.ctrl.Degraded() {
		degraded, depth = true, s.ctrl.JournalDepth()
	}
	if degraded {
		w.Header().Set("Content-Type", "application/json")
		// Degraded is a real (if survivable) failure — unlike a routing
		// 503 it carries no exemption header and burns the availability SLO;
		// Retry-After reflects the journal-replay probe cadence.
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		out := map[string]any{
			"ready":         false,
			"reason":        "store degraded; journaling call-state writes",
			"journal_depth": depth,
		}
		if s.SLO != nil {
			out["slo"] = s.SLO.Summary()
		}
		_ = json.NewEncoder(w).Encode(out)
		return
	}
	out := map[string]any{"ready": true}
	if s.Shards != nil {
		out["owned_shards"] = s.Shards.Manager.Owned()
	}
	if s.SLO != nil {
		out["slo"] = s.SLO.Summary()
	}
	s.reply(w, out)
}

// handleShards serves the routing map: every shard, whether this node leads
// it, and the best-known leader address otherwise.
func (s *Server) handleShards(w http.ResponseWriter, _ *http.Request) {
	m := s.Shards.Manager
	type shardDTO struct {
		Shard  int    `json:"shard"`
		Owned  bool   `json:"owned"`
		Leader string `json:"leader,omitempty"`
		Epoch  int64  `json:"epoch,omitempty"`
	}
	shardMap := make([]shardDTO, m.Ring().Shards())
	for i := range shardMap {
		d := shardDTO{Shard: i, Owned: m.Owns(i), Epoch: m.Epoch(i)}
		if d.Owned {
			d.Leader = m.ID()
		} else {
			d.Leader = m.OwnerHint(i)
		}
		shardMap[i] = d
	}
	out := map[string]any{
		"shards":     m.Ring().Shards(),
		"self":       m.ID(),
		"owned":      m.Owned(),
		"map":        shardMap,
		"ring_epoch": m.RingEpoch(),
		"phase":      m.Phase(),
	}
	if st, ok := m.Reshard(); ok {
		out["migration"] = map[string]any{
			"from": st.From, "to": st.To, "phase": st.Phase,
			"copied": st.Copied, "total": st.Total,
		}
	}
	s.reply(w, out)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	ctrls := s.controllers()
	var st controller.Stats
	active := 0
	for _, c := range ctrls {
		st.Accumulate(c.Stats())
		active += c.ActiveCalls()
	}
	out := map[string]any{
		"started":                  st.Started,
		"frozen":                   st.Frozen,
		"migrated":                 st.Migrated,
		"unplanned":                st.Unplanned,
		"ended":                    st.Ended,
		"predicted":                st.Predicted,
		"migration_rate":           st.MigrationRate(),
		"recurring_migration_rate": st.RecurringMigrationRate(),
		"active_calls":             active,
		"degraded":                 st.Degraded,
		"journal_depth":            st.JournalDepth,
		"replayed":                 st.Replayed,
		"dropped":                  st.Dropped,
		"failed_over":              st.FailedOver,
		"fenced":                   st.Fenced,
		"failed_dcs":               ctrls[0].FailedDCs(),
	}
	if s.Shards != nil {
		out["shards"] = s.Shards.Manager.Ring().Shards()
		out["owned_shards"] = s.Shards.Manager.Owned()
	}
	if s.KV != nil {
		out["kv_redials"] = s.KV.Redials()
		out["kv_retries"] = s.KV.Retries()
		out["kv_poisonings"] = s.KV.Poisonings()
	}
	s.reply(w, out)
}

func (s *Server) handleWorld(w http.ResponseWriter, _ *http.Request) {
	type dcDTO struct {
		ID      int     `json:"id"`
		Name    string  `json:"name"`
		Country string  `json:"country"`
		Region  string  `json:"region"`
		Cost    float64 `json:"core_cost"`
	}
	out := make([]dcDTO, 0, len(s.world.DCs()))
	for _, dc := range s.world.DCs() {
		out = append(out, dcDTO{
			ID: dc.ID, Name: dc.Name, Country: string(dc.Country),
			Region: dc.Region.String(), Cost: dc.CoreCost,
		})
	}
	s.reply(w, map[string]any{"dcs": out, "countries": len(s.world.Countries()), "links": len(s.world.Links())})
}

// readBody slurps the (bounded) request body; routing and forwarding need
// the raw bytes before any handler decodes them. A body of known length up
// to maxPresizedBody is read into one exactly sized buffer; any other goes
// through http.MaxBytesReader, which answers 413 past the cap.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if n := r.ContentLength; n >= 0 && n <= maxPresizedBody {
		body := make([]byte, n)
		if _, err := io.ReadFull(r.Body, body); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return nil, false
		}
		return body, true
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, err)
		} else {
			httpError(w, http.StatusBadRequest, err)
		}
		return nil, false
	}
	return body, true
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	body, ok := s.readBody(w, r)
	if !ok {
		return false
	}
	return s.decodeBytes(w, body, v)
}

// decodeBytes strictly unmarshals one JSON document from body.
func (s *Server) decodeBytes(w http.ResponseWriter, body []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return false
	}
	// Exactly one JSON document per request: trailing garbage is a client
	// bug we refuse rather than silently ignore.
	if dec.More() {
		httpError(w, http.StatusBadRequest, errors.New("trailing data after JSON body"))
		return false
	}
	return true
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// jsonContentType is the Content-Type of every JSON reply. writeJSON
// installs this one slice instead of letting Header.Set allocate a new one
// per reply; nothing in net/http writes into header value slices.
var jsonContentType = []string{"application/json"}

// writeJSON sends a pre-rendered JSON body in one Write.
func writeJSON(w http.ResponseWriter, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	_, _ = w.Write(body)
}

func (s *Server) reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
