package eval

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/kvstore"
	"switchboard/internal/model"
	"switchboard/internal/shard"
)

// drillMaxCalls bounds the replayed call set so a live drill (a full replay
// plus a per-call audit) stays fast.
const drillMaxCalls = 1500

// drillPoll paces every wait and watcher a drill runs.
const drillPoll = 5 * time.Millisecond

// drill is the harness the live drills (Chaos, PartitionDrill, ShardDrill,
// ReshardDrill) share: the eval window's event stream, loopback stores and
// controllers, one timed replay loop, polling waits and the terminal-state
// audit. What a drill boots is torn down, last-in first-out, by close.
//
// A drill measures real wall-clock throughput, stalls and failover latency
// of a live fleet: the clock IS the measurement, not hidden state leaking
// into replayed outputs.
type drill struct {
	env    *Env
	name   string
	recs   []*model.CallRecord
	events []controller.Event

	done     chan struct{} // closed by close; stops the when watchers
	watchers sync.WaitGroup

	mu       sync.Mutex
	teardown []func() // guarded by mu; a fleet may dial from its own goroutines
}

// newDrill slices the eval window to drillMaxCalls calls and builds their
// event stream. An empty stream is an error: a drill over nothing would pass
// vacuously or wait forever for a fault point it never reaches.
func newDrill(env *Env, name string) (*drill, error) {
	recs := env.EvalRecords
	if len(recs) > drillMaxCalls {
		recs = recs[:drillMaxCalls]
	}
	events := controller.BuildEvents(recs, controller.DefaultFreeze)
	if len(events) == 0 {
		return nil, fmt.Errorf("eval: %s has no events to replay (it needs KeepEvalRecords and a non-empty eval window)", name)
	}
	return &drill{env: env, name: name, recs: recs, events: events, done: make(chan struct{})}, nil
}

// onClose registers a teardown for close.
func (d *drill) onClose(f func()) {
	d.mu.Lock()
	d.teardown = append(d.teardown, f)
	d.mu.Unlock()
}

// close stops the watchers, then runs the teardowns last-in first-out.
func (d *drill) close() {
	close(d.done)
	d.watchers.Wait()
	d.mu.Lock()
	teardown := d.teardown
	d.mu.Unlock()
	for i := len(teardown) - 1; i >= 0; i-- {
		teardown[i]()
	}
}

// store boots a kvstore server on a loopback port.
func (d *drill) store() (*kvstore.Server, string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := kvstore.NewServer()
	go func() { _ = srv.Serve(l) }()
	d.onClose(func() { _ = srv.Close() })
	return srv, l.Addr().String(), nil
}

// dial connects a store client; given several addresses, a failover client.
func (d *drill) dial(opts kvstore.Options, addrs ...string) (*kvstore.Client, error) {
	c, err := kvstore.DialFailover(addrs, opts)
	if err != nil {
		return nil, err
	}
	d.onClose(func() { _ = c.Close() })
	return c, nil
}

// controller builds a MinACL controller persisting to store under the key
// namespace prefix ("" for the unsharded layout), probing a degraded store
// at t's interval.
func (d *drill) controller(store *kvstore.Client, t kvstore.Timing, shard int, prefix string) (*controller.Controller, error) {
	world := d.env.World
	return controller.New(controller.Config{
		World: world,
		Placer: &controller.MinACLPlacer{
			ACLOf: func(cfg model.CallConfig, dc int) float64 { return cfg.ACL(world, dc) },
			NDCs:  len(world.DCs()),
		},
		Store:         store,
		KeyPrefix:     prefix,
		Shard:         shard,
		ProbeInterval: t.ProbeInterval,
	})
}

// fleet is the timing of the chaos drill and the sharded drills' fleets: a
// 300 ms lease TTL and every other deadline derived from it.
var fleet = kvstore.TimingFor(300 * time.Millisecond)

// shardController builds shard i's controller over its own client to via.
func (d *drill) shardController(via string, seed int64, i int) (*controller.Controller, error) {
	store, err := d.dial(fleet.Client(seed+int64(i)), via)
	if err != nil {
		return nil, err
	}
	return d.controller(store, fleet, i, shard.KeyPrefix(i))
}

// manager builds and starts a shard manager that stops when the drill closes.
func (d *drill) manager(cfg shard.Config) (*shard.Manager, error) {
	m, err := shard.NewManager(cfg)
	if err != nil {
		return nil, err
	}
	m.Start()
	d.onClose(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		m.Stop(ctx)
	})
	return m, nil
}

// unsharded names the unsharded key namespace for every call.
func unsharded(uint64) string { return "" }

// to routes every event to one controller.
func to(ctrl *controller.Controller) func(controller.Event) (*controller.Controller, func(), error) {
	return func(controller.Event) (*controller.Controller, func(), error) { return ctrl, nil, nil }
}

// replay drives the event stream once and returns the sustained events/s.
// before(i) runs ahead of event i (nil for none); route picks the controller
// serving an event plus an optional release to call once it is applied;
// stall gets each op's wall-clock time, routing included.
func (d *drill) replay(before func(i int), route func(controller.Event) (*controller.Controller, func(), error), stall func(e controller.Event, took time.Duration)) (float64, error) {
	ctx := context.Background()
	start := time.Now() //sblint:allow nondeterminism -- measuring real elapsed time
	for i, e := range d.events {
		if before != nil {
			before(i)
		}
		opStart := time.Now() //sblint:allow nondeterminism -- measuring real per-op stall
		ctrl, release, err := route(e)
		if err == nil {
			err = ctrl.Apply(ctx, e)
		}
		if release != nil {
			release()
		}
		if err != nil {
			return 0, fmt.Errorf("eval: %s replay %v(%d): %w", d.name, e.Kind, e.CallID, err)
		}
		stall(e, time.Since(opStart)) //sblint:allow nondeterminism -- measuring real per-op stall
	}
	return float64(len(d.events)) / time.Since(start).Seconds(), nil //sblint:allow nondeterminism -- measuring real elapsed time
}

// waitUntil polls cond until it holds, failing after timeout.
func (d *drill) waitUntil(timeout time.Duration, what string, cond func() bool) error {
	if cond() {
		return nil
	}
	deadline := time.After(timeout)
	for {
		select {
		case <-deadline:
			return fmt.Errorf("eval: %s: %s not reached within %v", d.name, what, timeout)
		case <-time.After(drillPoll):
		}
		if cond() {
			return nil
		}
	}
}

// when starts a watcher polling cond in the background; the channel delivers
// the wall-clock time cond first held. The watcher stops when the drill
// closes, whether or not cond ever held.
func (d *drill) when(cond func() bool) <-chan time.Time {
	at := make(chan time.Time, 1)
	d.watchers.Add(1)
	go func() {
		defer d.watchers.Done()
		for !cond() {
			select {
			case <-d.done:
				return
			case <-time.After(drillPoll):
			}
		}
		at <- time.Now() //sblint:allow nondeterminism -- the moment a watched fleet condition took hold
	}()
	return at
}

// drainJournal replays ctrl's journal until it drains, retrying through the
// store client's backoff.
func (d *drill) drainJournal(ctrl *controller.Controller) error {
	return d.waitUntil(10*time.Second, "journal drain", func() bool {
		_, err := ctrl.ReplayJournal(context.Background())
		return err == nil
	})
}

// lost audits the store at addr and counts the drill's calls whose state is
// not "ended" under the key namespace prefixOf names. A missing call is lost;
// any other read error fails the audit.
func (d *drill) lost(addr string, prefixOf func(id uint64) string) (int, error) {
	reader, err := d.dial(kvstore.Options{}, addr)
	if err != nil {
		return 0, fmt.Errorf("eval: %s audit: %w", d.name, err)
	}
	n := 0
	for _, r := range d.recs {
		v, err := reader.HGet(controller.CallKey(prefixOf(r.ID), r.ID), "state")
		switch {
		case errors.Is(err, kvstore.ErrNil):
			n++
		case err != nil:
			return 0, fmt.Errorf("eval: %s audit of call %d: %w", d.name, r.ID, err)
		case v != "ended":
			n++
		}
	}
	return n, nil
}
