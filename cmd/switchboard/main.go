// Command switchboard runs the realtime MP-selection controller as an HTTP
// service. On startup it bootstraps itself the way the paper's daily offline
// stage does: it builds (or replays) a demand history, runs the provisioning
// LP with failure scenarios, computes the daily allocation plan, and starts
// serving placement decisions backed by a RESP kvstore (in-process by
// default, or an external Redis-compatible store via -kv).
//
// API (see internal/httpapi):
//
//	POST /v1/call/start  {"id": 1, "country": "JP"}
//	  -> {"dc": 8, "dc_name": "tokyo"}
//	POST /v1/call/config {"id": 1, "config": "video|ID:5,JP:3"}
//	  -> {"dc": 9, "dc_name": "singapore", "migrated": true}
//	POST /v1/call/end    {"id": 1}
//	POST /v1/dc/fail     {"dc": 3}
//	POST /v1/dc/recover  {"dc": 3}
//	GET  /v1/stats
//	GET  /v1/world
//	GET  /v1/shards      (sharded: ownership map, ring epoch, migration)
//	POST /v1/reshard     {"target_shards": 4}  (online split; 202 accepted)
//	GET  /v1/reshard     (ring epoch, phase, copy progress)
//	POST /v1/reshard/abort  (pre-cutover rollback)
//	GET  /healthz        (liveness: process is serving)
//	GET  /readyz         (readiness: 503 while the store path is degraded;
//	                      includes SLO burn rates)
//
// With -debug-addr a second listener serves operator endpoints (see
// internal/obs and DESIGN.md "Observability" / "Tracing"):
//
//	GET  /metrics        (Prometheus text exposition 0.0.4, incl. SLO burn gauges)
//	GET  /debug/trace    (last N placement/migration/failover decisions)
//	GET  /debug/spans    (recent spans; ?trace=<hex id> pulls one request's tree)
//	GET  /debug/pprof/*  (net/http/pprof)
//
// Every request through the API is traced (see internal/obs/span): the root
// span fans out to controller and kvstore child spans.
// -span-log additionally appends every finished span to a JSONL file that
// cmd/sbtrace turns into waterfalls and critical-path breakdowns. Logs go
// through log/slog and carry trace_id/span_id when the context has a span.
// -profile-dir harvests a bounded ring of rotated pprof snapshots (CPU +
// heap) for post-hoc analysis; it is off by default.
//
// Try it:
//
//	switchboard -addr 127.0.0.1:8077 -debug-addr 127.0.0.1:8078 -span-log spans.jsonl &
//	curl -s -d '{"id":1,"country":"JP"}' localhost:8077/v1/call/start
//	curl -s localhost:8078/debug/spans | python3 -m json.tool
//	sbtrace -f spans.jsonl
//
// High availability (see README "Running an HA pair" and DESIGN.md
// "Failover"): -repl-role primary|standby replicates the in-process store
// across two nodes (-repl-peer points the standby at the primary's
// -kv-listen address), -kv takes a comma-separated address list the client
// fails over across. Controller leadership is a one-shard fleet: -shards 1
// with -shard-id 0 on one node and -1 on the other, each naming the other in
// -peers, so the leader serves call control and the follower proxies to it.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"switchboard"
	"switchboard/internal/controller"
	"switchboard/internal/faults"
	"switchboard/internal/httpapi"
	"switchboard/internal/kvstore"
	"switchboard/internal/kvstore/replica"
	"switchboard/internal/obs"
	"switchboard/internal/obs/span"
	"switchboard/internal/shard"
)

// fatal logs err at ERROR and exits. The slog equivalent of log.Fatal — kept
// tiny so startup error paths stay one line.
func fatal(msg string, err error) {
	slog.Error(msg, "err", err)
	os.Exit(1)
}

// errFlag turns a bad flag value into an error for fatal.
type errFlag string

func (e errFlag) Error() string { return string(e) }

func main() {
	addr := flag.String("addr", "127.0.0.1:8077", "HTTP listen address")
	kvAddr := flag.String("kv", "", "RESP store address, or a comma-separated failover list like primary,standby (empty starts an in-process kvstore)")
	kvListen := flag.String("kv-listen", "127.0.0.1:0", "in-process kvstore listen address (make it reachable when a standby peer replicates from this node)")
	replRole := flag.String("repl-role", "", "in-process kvstore replication role: 'primary' or 'standby' (empty disables replication)")
	replPeer := flag.String("repl-peer", "", "primary kvstore address a standby replicates from (required with -repl-role standby)")
	replAck := flag.String("repl-ack", "standby", "primary write acks: 'standby' (semi-synchronous; acked writes survive failover) or 'relaxed' (local-only acks)")
	shards := flag.Int("shards", 0, "shard the control plane: partition the conference-ID space across this many shards, each with its own leadership lease (0 disables; 1 is one leader group, such as an HA pair; >=2 makes this node one of a sharded fleet)")
	shardID := flag.Int("shard-id", -1, "shard this node is the preferred owner of (its elector races immediately; others wait a TTL), -1 for none")
	peers := flag.String("peers", "", "comma-separated API addresses of the other nodes in the sharded fleet (forward fallback when a shard's leader is unknown)")
	shardForward := flag.Bool("shard-forward", true, "proxy call-control requests to the owning shard's leader (false answers 307 + X-Switchboard-Shard-Leader hints instead)")
	shardTakeover := flag.Duration("shard-takeover", 0, "how long this node leaves a non-preferred shard's lease to its preferred owner before racing for it (0 = one lease TTL); size it to cover the fleet's boot stagger or the first node up grabs every shard")
	shardVnodes := flag.Int("shard-vnodes", 0, "virtual nodes per shard on the consistent-hash ring (0 = default)")
	leaseID := flag.String("lease-id", "", "this node's shard lease owner ID (default: -addr)")
	leaseTTL := flag.Duration("lease-ttl", kvstore.DefaultLeaseTTL, "shard leadership lease TTL (bounds the leaderless window after a crash); every store, replication and lease deadline derives from it (see DESIGN.md \"Timing\")")
	warmupDays := flag.Int("warmup-days", 2, "days of synthetic history for the bootstrap plan")
	callsPerDay := flag.Int("calls", 4000, "synthetic history calls per day")
	seed := flag.Int64("seed", 1, "synthetic history seed")
	worldPath := flag.String("world", "", "JSON world definition (default: the built-in world)")
	journalCap := flag.Int("journal-cap", 8192, "degraded-mode write-behind journal capacity (-1 disables)")
	debugAddr := flag.String("debug-addr", "", "debug HTTP listen address serving /metrics, /debug/trace, /debug/spans, and pprof (empty disables)")
	traceCap := flag.Int("trace-cap", obs.DefaultRingCapacity, "decision trace ring capacity")
	spanCap := flag.Int("span-cap", span.DefaultRingCapacity, "span ring capacity behind /debug/spans")
	spanLog := flag.String("span-log", "", "append finished spans as JSONL to this file for cmd/sbtrace (empty disables)")
	profileDir := flag.String("profile-dir", "", "harvest rotated pprof snapshots (CPU + heap) into this directory for post-hoc analysis (empty disables)")
	profileInterval := flag.Duration("profile-interval", obs.DefaultProfileInterval, "how often -profile-dir harvests a snapshot pair")
	profileKeep := flag.Int("profile-keep", obs.DefaultProfileKeep, "how many snapshots of each kind -profile-dir keeps (older slots are overwritten)")
	chaosProb := flag.Float64("chaos-prob", 0, "per-operation probability of an injected store-path latency fault (0 disables; a live resilience drill, see internal/faults)")
	chaosDelay := flag.Duration("chaos-latency", time.Millisecond, "injected latency per chaos fault")
	flag.Parse()

	// Logs carry trace_id/span_id whenever the context has a span, so a
	// degraded-store warning can be joined to the request that tripped it.
	slog.SetDefault(slog.New(span.NewLogHandler(slog.NewTextHandler(os.Stderr, nil))))

	timing := kvstore.TimingFor(*leaseTTL)
	if err := timing.Validate(); err != nil {
		fatal("bad -lease-ttl", err)
	}
	slog.Info("timing", "derived", timing, "takeover_ms", timing.Takeover().Milliseconds())

	// Telemetry. The registry, decision ring, span ring, and tracer are always
	// built — the serve path's instrumentation is a few atomic ops per request
	// — but the debug listener only starts when -debug-addr is set.
	reg := obs.NewRegistry()
	ring := obs.NewDecisionRing(*traceCap)
	spans := span.NewRing(*spanCap)
	sinks := []span.Sink{spans}
	if *spanLog != "" {
		exp, err := span.OpenJSONL(*spanLog)
		if err != nil {
			fatal("opening -span-log", err)
		}
		defer func() { _ = exp.Close() }()
		slog.Info("exporting spans", "path", *spanLog)
		sinks = append(sinks, exp)
	}
	tracer := span.NewTracer(*seed, sinks...)

	// Continuous profiling: off unless -profile-dir names a directory. The
	// harvester keeps a bounded ring of CPU/heap snapshots so "what was it
	// doing an hour ago" is answerable without an operator attached to
	// /debug/pprof at the time.
	if *profileDir != "" {
		prof, err := obs.NewProfiler(obs.ProfileConfig{
			Dir:      *profileDir,
			Interval: *profileInterval,
			Keep:     *profileKeep,
			Logger:   slog.Default(),
		})
		if err != nil {
			fatal("starting profiler", err)
		}
		go prof.Run()
		defer prof.Stop()
		slog.Info("profile harvester on", "dir", *profileDir, "interval", *profileInterval, "keep", *profileKeep)
	}

	world := switchboard.DefaultWorld()
	if *worldPath != "" {
		f, err := os.Open(*worldPath)
		if err != nil {
			fatal("opening -world", err)
		}
		world, err = switchboard.ReadWorld(f)
		_ = f.Close()
		if err != nil {
			fatal("reading -world", err)
		}
	}

	// Offline stage: history -> demand -> provisioning LP -> daily plan.
	slog.Info("bootstrapping", "days", *warmupDays, "calls_per_day", *callsPerDay)
	tc := switchboard.DefaultTraceConfig()
	tc.Days = *warmupDays
	tc.CallsPerDay = *callsPerDay
	tc.Seed = *seed
	tc.World = world
	gen, err := switchboard.NewGenerator(tc)
	if err != nil {
		fatal("building generator", err)
	}
	db := switchboard.NewRecordsDB(tc.Start, world)
	gen.EachCall(func(r *switchboard.CallRecord) bool { db.Add(r); return true })
	est := db.Estimator(20)
	in := &switchboard.ProvisionInputs{
		World:              world,
		Latency:            est,
		Demand:             db.PeakEnvelope(25),
		LatencyThresholdMs: 120,
		WithBackup:         true,
		SlotStride:         8,
	}
	lm, err := switchboard.NewLoadModel(in)
	if err != nil {
		fatal("building load model", err)
	}
	plan, err := switchboard.Provision(in)
	if err != nil {
		fatal("provisioning", err)
	}
	alloc, err := switchboard.BuildAllocationPlan(lm, plan.Cores, plan.LinkGbps)
	if err != nil {
		fatal("building allocation plan", err)
	}
	slog.Info("plan ready", "cores", plan.TotalCores(), "gbps", plan.TotalGbps(), "mean_acl_ms", alloc.MeanACL)

	// State store. kvAddrs is the client's failover list; the in-process
	// store (when started) joins it — first for a primary (writes should
	// land locally), last for a standby (writes chase the peer until it
	// falls silent and this node promotes).
	var kvAddrs []string
	if *kvAddr != "" {
		kvAddrs = strings.Split(*kvAddr, ",")
	}
	if *kvAddr == "" || *replRole != "" {
		srv := switchboard.NewKVServer()
		srv.SetMetrics(kvstore.NewServerMetrics(reg))
		l, err := net.Listen("tcp", *kvListen)
		if err != nil {
			fatal("listening for kvstore", err)
		}
		go func() { _ = srv.Serve(l) }()
		local := l.Addr().String()
		ackMode := replica.AckStandby
		if *replAck == "relaxed" {
			ackMode = replica.AckRelaxed
		} else if *replAck != "standby" {
			fatal("bad -repl-ack", errFlag(*replAck))
		}
		primaryOpts, standbyOpts := replica.OptionsFor(timing)
		primaryOpts.AckMode, primaryOpts.Metrics = ackMode, replica.NewMetrics(reg)
		switch *replRole {
		case "":
			kvAddrs = append([]string{local}, kvAddrs...)
			slog.Info("in-process kvstore", "addr", local)
		case "primary":
			replica.NewPrimary(srv, 0, primaryOpts)
			kvAddrs = append([]string{local}, kvAddrs...)
			slog.Info("in-process kvstore replicating as primary", "addr", local, "ack", *replAck)
		case "standby":
			if *replPeer == "" {
				fatal("-repl-role standby", errFlag("needs -repl-peer"))
			}
			standbyOpts.Promote, standbyOpts.Metrics, standbyOpts.Logger = primaryOpts, primaryOpts.Metrics, slog.Default()
			standby := replica.NewStandby(srv, *replPeer, standbyOpts)
			go standby.Run()
			defer standby.Stop()
			if len(kvAddrs) == 0 {
				kvAddrs = []string{*replPeer}
			}
			kvAddrs = append(kvAddrs, local)
			slog.Info("in-process kvstore standing by", "addr", local, "primary", *replPeer)
		default:
			fatal("bad -repl-role", errFlag(*replRole))
		}
	}
	// The injection family is registered up front (zero-valued when the drill
	// is off) so scrapers and dashboards always see it.
	injections := faults.NewInjectionCounter(reg)
	if *chaosProb > 0 {
		inj := faults.NewInjector(*seed, faults.Rule{Kind: faults.Latency, Prob: *chaosProb, Delay: *chaosDelay})
		inj.SetMetrics(injections)
		// The drill wraps the preferred store; failover addresses stay direct.
		proxy, err := faults.NewProxy(kvAddrs[0], inj)
		if err != nil {
			fatal("starting chaos proxy", err)
		}
		defer func() { _ = proxy.Close() }()
		slog.Info("chaos drill on", "via", proxy.Addr(), "prob", *chaosProb, "latency", *chaosDelay)
		kvAddrs[0] = proxy.Addr()
	}
	kvOpts := timing.Client(*seed)
	kvOpts.Metrics = kvstore.NewClientMetrics(reg)
	kv, err := switchboard.DialKVFailover(kvAddrs, kvOpts)
	if err != nil {
		fatal("dialing kvstore", err)
	}
	defer func() { _ = kv.Close() }()

	aclOf := func(cfg switchboard.CallConfig, dc int) float64 { return est.ACL(cfg, dc) }
	placer := switchboard.NewPlanPlacer(lm.Demand().Configs, alloc.Alloc, aclOf, len(world.DCs()))
	ctrlMetrics := controller.NewMetrics(reg)
	// dialKV dials one more failover client; seedOff keeps the clients'
	// backoff jitter apart.
	dialKV := func(seedOff int64) (*kvstore.Client, error) {
		return switchboard.DialKVFailover(kvAddrs, timing.Client(*seed+seedOff))
	}
	newCtrl := func(store *switchboard.KVClient, prefix string, sh int) *switchboard.Controller {
		c, err := switchboard.NewController(switchboard.ControllerConfig{
			World:         world,
			Placer:        placer,
			Store:         store,
			KeyPrefix:     prefix,
			Shard:         sh,
			JournalCap:    *journalCap,
			ProbeInterval: timing.ProbeInterval,
			Metrics:       ctrlMetrics,
			Decisions:     ring,
			Logger:        slog.Default(),
		})
		if err != nil {
			fatal("building controller", err)
		}
		return c
	}
	// shardCtrl builds one shard's controller with its own store client:
	// fencing epochs are per-client state and differ per shard. Used for the
	// boot ring and again by the manager when a live reshard widens it.
	shardCtrl := func(i int) (*switchboard.Controller, error) {
		skv, err := dialKV(int64(2 + i))
		if err != nil {
			return nil, err
		}
		return newCtrl(skv, shard.KeyPrefix(i), i), nil
	}

	// Sharded control plane: one controller + lease race per shard, all
	// sharing the placer and the world. Each shard fences its own epoch.
	var ctrl *switchboard.Controller
	var mgr *shard.Manager
	if *shards > 0 {
		shardRing, err := shard.NewRing(*shards, *shardVnodes)
		if err != nil {
			fatal("building shard ring", err)
		}
		id := *leaseID
		if id == "" {
			id = *addr
		}
		ctrls := make([]*switchboard.Controller, *shards)
		for i := range ctrls {
			if ctrls[i], err = shardCtrl(i); err != nil {
				fatal("dialing kvstore for shard", err)
			}
		}
		var prefer []int
		if *shardID >= 0 {
			prefer = []int{*shardID}
		}
		mgr, err = shard.NewManager(shard.Config{
			Ring:         shardRing,
			ID:           id,
			Controllers:  ctrls,
			ElectorStore: func(i int) (*kvstore.Client, error) { return dialKV(int64(100 + i)) },
			// The epoch watcher and live-growth factory make this node a
			// reshard participant: it observes phase flips from the store and
			// can host shards the boot ring did not name.
			WatchStore:    func() (*kvstore.Client, error) { return dialKV(200) },
			NewController: shardCtrl,
			Prefer:        prefer,
			TTL:           *leaseTTL,
			TakeoverDelay: *shardTakeover,
			Metrics:       shard.NewMetrics(reg),
			Logger:        slog.Default(),
			Tracer:        tracer,
		})
		if err != nil {
			fatal("building shard manager", err)
		}
		mgr.Start()
		slog.Info("sharded control plane on", "shards", *shards, "prefer", *shardID, "id", id, "ttl", *leaseTTL)
	} else {
		ctrl = newCtrl(kv, "", 0)
	}

	if *debugAddr != "" {
		debug := &http.Server{
			Addr:              *debugAddr,
			Handler:           obs.DebugMux(reg, ring, spans),
			ReadHeaderTimeout: 5 * time.Second,
		}
		slog.Info("debug endpoints up", "url", "http://"+*debugAddr, "paths", "/metrics /debug/trace /debug/spans /debug/pprof")
		go func() { fatal("debug listener", debug.ListenAndServe()) }()
	}

	api := httpapi.New(world, ctrl)
	api.HTTP = obs.NewHTTPMetrics(reg)
	api.KV = kv
	api.Tracer = tracer
	api.Registry = reg
	api.Instance = *addr
	if mgr != nil {
		var peerList []string
		if *peers != "" {
			peerList = strings.Split(*peers, ",")
		}
		api.Shards = &httpapi.ShardRouter{Manager: mgr, Forward: *shardForward, Peers: peerList}
		// Reshard admin: any node of the fleet can accept POST /v1/reshard;
		// the coordinator lease (not the node) decides who actually drives.
		mgrID := mgr.ID()
		api.Reshard = &httpapi.ReshardAdmin{
			Manager: mgr,
			NewCoordinator: func() (*shard.Coordinator, error) {
				return shard.NewCoordinator(shard.CoordinatorConfig{
					Dial:       func() (*kvstore.Client, error) { return dialKV(300) },
					ID:         mgrID,
					BootShards: *shards,
					BootVNodes: *shardVnodes,
					TTL:        *leaseTTL,
					Metrics:    mgr.Metrics(),
					Logger:     slog.Default(),
					Tracer:     tracer,
				})
			},
			Logger: slog.Default(),
		}
	}

	// SLO burn gauges: placement latency from the controller histogram,
	// availability from the API's all-routes totals.
	slo := obs.NewSLOMonitor(reg, obs.SLOConfig{
		Latency: ctrlMetrics.PlaceSeconds,
		HTTP:    api.HTTP,
	})
	go slo.Run(obs.DefaultSLOSampleInterval)
	defer slo.Stop()
	api.SLO = slo
	server := &http.Server{
		Addr:              *addr,
		Handler:           api.Mux(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	// Orderly stop: SIGINT/SIGTERM hands owned shards off (journal drain
	// while the fence is still valid, then lease resignation so successors
	// promote within a renew interval) before the listener closes.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		if mgr != nil {
			slog.Info("shutting down; handing off shards")
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			mgr.Stop(ctx)
			cancel()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = server.Shutdown(ctx)
		cancel()
	}()
	slog.Info("controller serving", "url", "http://"+*addr)
	if err := server.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fatal("api listener", err)
	}
	slog.Info("shutdown complete")
}
