package controller

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"switchboard/internal/geo"
	"switchboard/internal/kvstore"
	"switchboard/internal/model"
)

// EventKind classifies a replay event.
type EventKind int

// Event kinds in processing order for equal timestamps.
const (
	// EventStart is the first participant joining a call.
	EventStart EventKind = iota
	// EventJoin is a later participant joining (a media change rides on
	// the join in this model).
	EventJoin
	// EventFreeze is the config-known moment, A into the call.
	EventFreeze
	// EventEnd is the call finishing.
	EventEnd
)

func (k EventKind) String() string {
	switch k {
	case EventStart:
		return "start"
	case EventJoin:
		return "join"
	case EventFreeze:
		return "freeze"
	case EventEnd:
		return "end"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one controller input derived from a call record.
type Event struct {
	Time    time.Time
	Kind    EventKind
	CallID  uint64
	Country geo.CountryCode
	Media   model.MediaType
	// SeriesID is set on EventStart for recurring calls; the scheduler
	// knows a meeting's series before anyone joins.
	SeriesID uint64
	// Config is set on EventFreeze: the config as known at A.
	Config model.CallConfig
}

// BuildEvents expands call records into a time-ordered event stream: one
// start, a join per later participant, one freeze at A, one end.
func BuildEvents(recs []*model.CallRecord, freeze time.Duration) []Event {
	var events []Event
	for _, r := range recs {
		if len(r.Legs) == 0 {
			continue
		}
		events = append(events, Event{
			Time: r.Start, Kind: EventStart, CallID: r.ID,
			Country: r.Legs[0].Country, Media: r.Legs[0].Media,
			SeriesID: r.SeriesID,
		})
		for _, leg := range r.Legs[1:] {
			if leg.JoinOffset >= r.Duration {
				continue
			}
			events = append(events, Event{
				Time: r.Start.Add(leg.JoinOffset), Kind: EventJoin, CallID: r.ID,
				Country: leg.Country, Media: leg.Media,
			})
		}
		freezeAt := r.Start.Add(freeze)
		if freeze >= r.Duration {
			freezeAt = r.Start.Add(r.Duration - 1)
		}
		events = append(events, Event{
			Time: freezeAt, Kind: EventFreeze, CallID: r.ID,
			Config: r.ConfigFrozenAt(freezeAt.Sub(r.Start)),
		})
		events = append(events, Event{
			Time: r.Start.Add(r.Duration), Kind: EventEnd, CallID: r.ID,
		})
	}
	sort.Slice(events, func(i, j int) bool {
		if !events[i].Time.Equal(events[j].Time) {
			return events[i].Time.Before(events[j].Time)
		}
		if events[i].Kind != events[j].Kind {
			return events[i].Kind < events[j].Kind
		}
		return events[i].CallID < events[j].CallID
	})
	return events
}

// PeakEventRate returns the highest events-per-second over 30-minute
// windows — the trace's peak arrival rate that Fig 10's throughput is
// normalized against.
func PeakEventRate(events []Event) float64 {
	if len(events) == 0 {
		return 0
	}
	origin := events[0].Time
	counts := make(map[int]int)
	for _, e := range events {
		counts[model.SlotIndex(origin, e.Time)]++
	}
	peak := 0
	for _, n := range counts {
		if n > peak {
			peak = n
		}
	}
	return float64(peak) / model.SlotDuration.Seconds()
}

// Apply feeds one event to the controller: the one mapping from event kinds
// to call-control methods that every replay and drill goes through.
func (c *Controller) Apply(ctx context.Context, e Event) error {
	var err error
	switch e.Kind {
	case EventStart:
		_, err = c.CallStartedWithSeries(ctx, e.CallID, e.Country, e.SeriesID, e.Time)
	case EventJoin:
		c.ParticipantJoined(ctx, e.CallID, e.Country, e.Media)
	case EventFreeze:
		_, _, err = c.ConfigKnown(ctx, e.CallID, e.Config, e.Time)
	case EventEnd:
		err = c.CallEnded(ctx, e.CallID)
	default:
		err = fmt.Errorf("controller: unknown event kind %v", e.Kind)
	}
	return err
}

// Replay feeds events through the controller in order, as the migration
// experiment (§6.4) does. It returns the final stats.
func (c *Controller) Replay(events []Event) (Stats, error) {
	ctx := context.Background()
	for _, e := range events {
		if err := c.Apply(ctx, e); err != nil {
			return c.Stats(), fmt.Errorf("controller: replay %v(%d): %w", e.Kind, e.CallID, err)
		}
	}
	return c.Stats(), nil
}

// ThroughputResult reports one Fig 10 benchmark run.
type ThroughputResult struct {
	Workers int
	// EventsPerSec is the sustained controller throughput.
	EventsPerSec float64
	// Normalized is EventsPerSec divided by the normalization target
	// rate (the production-scale peak); ≥ 1 means the controller keeps
	// up with that peak.
	Normalized float64
	// MinWrite and MaxWrite bound the observed kvstore write latencies.
	MinWrite, MaxWrite time.Duration
	// Events is the number processed.
	Events int
}

// BenchThroughput measures how many events per second the controller's
// write path sustains with the given number of worker threads, each holding
// its own kvstore connection (§6.6). Events are partitioned by call ID so
// one call's events stay ordered within a worker. targetRate is the arrival
// rate (events/second) Normalized is computed against; pass 0 to normalize
// against the replayed trace's own peak rate.
func BenchThroughput(addr string, workers int, events []Event, targetRate float64) (ThroughputResult, error) {
	if workers <= 0 {
		return ThroughputResult{}, fmt.Errorf("controller: workers must be positive")
	}
	clients := make([]*kvstore.Client, workers)
	for i := range clients {
		c, err := kvstore.Dial(addr)
		if err != nil {
			return ThroughputResult{}, err
		}
		defer func() { _ = c.Close() }()
		clients[i] = c
	}
	queues := make([][]Event, workers)
	for _, e := range events {
		wkr := int(e.CallID % uint64(workers))
		queues[wkr] = append(queues[wkr], e)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	minW := make([]time.Duration, workers)
	maxW := make([]time.Duration, workers)
	start := time.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := clients[i]
			minW[i] = time.Hour
			for _, e := range queues[i] {
				key := CallKey("", e.CallID)
				var err error
				switch e.Kind {
				case EventStart:
					err = c.HSet(key, "first", string(e.Country))
				case EventJoin:
					err = c.HSet(key, "join:"+string(e.Country), e.Media.String())
				case EventFreeze:
					err = c.HSet(key, "config", e.Config.Key())
				case EventEnd:
					err = c.Del(key)
				}
				if err != nil {
					errCh <- err
					return
				}
				if rtt := c.LastRTT(); rtt > 0 {
					if rtt < minW[i] {
						minW[i] = rtt
					}
					if rtt > maxW[i] {
						maxW[i] = rtt
					}
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errCh)
	for err := range errCh {
		return ThroughputResult{}, err
	}

	res := ThroughputResult{
		Workers:  workers,
		Events:   len(events),
		MinWrite: time.Hour,
	}
	for i := range minW {
		if len(queues[i]) == 0 {
			continue
		}
		if minW[i] < res.MinWrite {
			res.MinWrite = minW[i]
		}
		if maxW[i] > res.MaxWrite {
			res.MaxWrite = maxW[i]
		}
	}
	if elapsed > 0 {
		res.EventsPerSec = float64(len(events)) / elapsed.Seconds()
	}
	if targetRate <= 0 {
		targetRate = PeakEventRate(events)
	}
	if targetRate > 0 {
		res.Normalized = res.EventsPerSec / targetRate
	}
	return res, nil
}
