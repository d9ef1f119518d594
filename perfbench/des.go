package main

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"time"

	"switchboard/internal/des"
	"switchboard/internal/geo"
)

const (
	desCalls    = 200_000
	desHeadroom = 1.25
	// desVariants is how many workloads, of consecutive variant seeds, a run
	// simulates in turn: a day's cost depends on its seed's config universe.
	desVariants = 16
)

// desRig is the simulated fleet: capacity at desHeadroom times the
// workload's expected peak, and one DC failure mid-day that recovers later.
type desRig struct {
	world    *geo.World
	fleet    *des.Fleet
	failures []des.DCFailure
	synth    des.SynthConfig
	digest   uint64
}

func setupDES(seed int64) (*desRig, error) {
	w := geo.DefaultWorld()
	r := &desRig{world: w, synth: des.SynthConfig{Seed: seed, Calls: desCalls}}
	src, err := des.NewSynthSource(w, r.synth)
	if err != nil {
		return nil, err
	}
	r.fleet, err = des.NewFleet(w, src.Configs(), 120)
	if err != nil {
		return nil, err
	}
	cores, gbps := src.ExpectedPeakLoad(r.fleet)
	for i := range cores {
		cores[i] *= desHeadroom
	}
	for i := range gbps {
		gbps[i] *= desHeadroom
	}
	if err := r.fleet.SetCapacity(cores, gbps); err != nil {
		return nil, err
	}
	busiest := int32(0)
	for x := 1; x < r.fleet.NumDCs(); x++ {
		if r.fleet.CapCores[x] > r.fleet.CapCores[busiest] {
			busiest = int32(x)
		}
	}
	r.failures = []des.DCFailure{{DC: busiest, At: 13 * time.Hour, Recover: 15 * time.Hour}}

	// The inputs are the config universe and the arrival stream.
	h := fnv.New64a()
	var b []byte
	for _, c := range src.Configs() {
		b = append(b[:0], c.Key()...)
		_, _ = h.Write(b)
	}
	var a des.Arrival
	for src.Next(&a) {
		b = strconv.AppendUint(b[:0], a.ID, 10)
		b = strconv.AppendInt(b, a.At, 10)
		b = strconv.AppendInt(b, a.Dur, 10)
		b = strconv.AppendInt(b, int64(a.Cfg), 10)
		_, _ = h.Write(b)
	}
	r.digest = h.Sum64()
	return r, nil
}

// timedPolicy wraps a placement policy and accumulates the time spent in it.
type timedPolicy struct {
	des.PlacementPolicy
	ns    int64
	calls int64
}

func (p *timedPolicy) Choose(f *des.Fleet, c int32, cands []int32, u *des.Usage, rng *des.Stream) int32 {
	s := time.Now()
	x := p.PlacementPolicy.Choose(f, c, cands, u, rng)
	p.ns += int64(time.Since(s))
	p.calls++
	return x
}

// day simulates one day: a fresh workload source and a full engine run.
func (r *desRig) day(pol des.PlacementPolicy, t timer) (des.Result, error) {
	var src *des.SynthSource
	if err := t.span("des.source", func() (err error) {
		src, err = des.NewSynthSource(r.world, r.synth)
		return err
	}); err != nil {
		return des.Result{}, err
	}
	var res des.Result
	err := t.span("des.run", func() (err error) {
		res, err = des.Run(des.Config{
			Fleet:     r.fleet,
			Source:    src,
			Placement: pol,
			Failures:  r.failures,
			Seed:      r.synth.Seed,
		})
		return err
	})
	return res, err
}

// setupDESes builds the run's simulated fleets.
func setupDESes(seed int64) ([]*desRig, error) {
	var rigs []*desRig
	for v := 0; v < desVariants; v++ {
		r, err := setupDES(variantSeed(seed, v))
		if err != nil {
			return nil, err
		}
		rigs = append(rigs, r)
	}
	return rigs, nil
}

func runDES(run *run) error {
	rigs, setup, err := repeatSetup(run, func() ([]*desRig, error) { return setupDESes(run.seed) },
		func(rs []*desRig) uint64 {
			h := fnv.New64a()
			for _, r := range rs {
				_, _ = fmt.Fprint(h, r.digest)
			}
			return h.Sum64()
		}, func([]*desRig) {})
	if err != nil {
		return err
	}
	var rec *recorder
	var pol des.PlacementPolicy = des.LowestACL{}
	var timed *timedPolicy
	if run.trace {
		rec = newRecorder(1 << 12)
		timed = &timedPolicy{PlacementPolicy: pol}
		pol = timed
	}
	p, err := timeOps(run.duration(), len(rigs), rec, "des.op", func(v int, t timer) (des.Result, error) {
		return rigs[v].day(pol, t)
	})
	if err != nil {
		return err
	}
	run.attempted = int64(len(p.outs))
	for i, res := range p.outs {
		run.check(res.DroppedEvents == 0, "op %d: engine dropped %d events", i, res.DroppedEvents)
		run.check(res.Calls == desCalls && res.Placed+res.Rejected == res.Calls,
			"op %d: simulated %d calls (%d placed, %d rejected), want %d", i, res.Calls, res.Placed, res.Rejected, desCalls)
	}
	checkRepeats(run, p)
	run.info["des"] = p.warm
	run.env(p.ph)
	if run.trace {
		var source, nsPerEvent, events, queue []float64
		for _, s := range rec.snapshot() {
			switch s.Name {
			case "des.source":
				source = append(source, float64(s.dur())/1e6)
			case "des.run":
				res := p.outs[s.Op]
				nsPerEvent = append(nsPerEvent, float64(s.dur())/float64(res.Events))
				events = append(events, float64(res.Events))
				queue = append(queue, float64(res.MaxQueueLen))
			}
		}
		run.layer("des.source_ms", median(source))
		run.layer("des.ns_per_event", median(nsPerEvent))
		run.layer("des.events_per_op", median(events))
		run.layer("des.max_queue_len", median(queue))
		if timed.calls > 0 {
			run.layer("des.placement_ns_per_call", float64(timed.ns)/float64(timed.calls))
		}
		run.layer("runtime.gc_cpu_pct", p.ph.gcCPUPct)
		run.layer("runtime.heap_live_mb", p.ph.heapMB)
		if err := run.writeSpans(rec); err != nil {
			return err
		}
		return planLayers(run)
	}
	sequential(run, p, setup)
	return nil
}
