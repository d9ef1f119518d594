// Realtime controller demo: start the RESP kvstore, build a Switchboard
// allocation plan, then replay a day of call events through the realtime
// controller (§5.4) — first-joiner assignment, config freeze at A = 300 s,
// slot accounting, migrations — persisting every call transition to the
// store.
package main

import (
	"fmt"
	"log"
	"net"

	"switchboard"
)

func main() {
	world := switchboard.DefaultWorld()

	// A day of calls.
	tc := switchboard.DefaultTraceConfig()
	tc.Days = 1
	tc.CallsPerDay = 4000
	gen, err := switchboard.NewGenerator(tc)
	if err != nil {
		log.Fatal(err)
	}
	var recs []*switchboard.CallRecord
	db := switchboard.NewRecordsDB(tc.Start, world)
	gen.EachCall(func(r *switchboard.CallRecord) bool {
		db.Add(r)
		recs = append(recs, r)
		return true
	})

	// Provision and build the daily allocation plan.
	in := &switchboard.ProvisionInputs{
		World:              world,
		Latency:            db.Estimator(20),
		Demand:             db.PeakEnvelope(25),
		LatencyThresholdMs: 120,
		WithBackup:         true,
		SlotStride:         8,
	}
	lm, err := switchboard.NewLoadModel(in)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := switchboard.Provision(in)
	if err != nil {
		log.Fatal(err)
	}
	alloc, err := switchboard.BuildAllocationPlan(lm, plan.Cores, plan.LinkGbps)
	if err != nil {
		log.Fatal(err)
	}

	// Start the kvstore the controller writes call state to.
	srv := switchboard.NewKVServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer func() { _ = srv.Close() }()
	client, err := switchboard.DialKV(l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	fmt.Printf("kvstore listening on %s\n", l.Addr())

	// Replay the day through the controller following the plan.
	est := db.Estimator(20)
	aclOf := func(cfg switchboard.CallConfig, dc int) float64 { return est.ACL(cfg, dc) }
	placer := switchboard.NewPlanPlacer(lm.Demand().Configs, alloc.Alloc, aclOf, len(world.DCs()))
	ctrl, err := switchboard.NewController(switchboard.ControllerConfig{
		World:  world,
		Placer: placer,
		Store:  client,
	})
	if err != nil {
		log.Fatal(err)
	}
	events := switchboard.BuildEvents(recs, ctrl.Freeze())
	stats, err := ctrl.Replay(events)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreplayed %d events for %d calls\n", len(events), stats.Started)
	fmt.Printf("  frozen configs:   %d\n", stats.Frozen)
	fmt.Printf("  migrations:       %d (%.2f%% of calls)\n", stats.Migrated, 100*stats.MigrationRate())
	fmt.Printf("  unplanned configs: %d\n", stats.Unplanned)
	fmt.Printf("  kvstore ops:      %d\n", srv.OpsServed())

	fmt.Printf("\nwrite throughput vs worker threads (Fig 10): go run ./cmd/sbexp -exp fig10\n")
}
