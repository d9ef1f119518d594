package controller

import (
	"context"
	"fmt"
	"sort"
	"time"

	"switchboard/internal/geo"
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

// Apply feeds one event to the controller: the one mapping from event kinds
// to call-control methods that every replay and drill goes through.
func (c *Controller) Apply(ctx context.Context, e Event) error {
	var err error
	switch e.Kind {
	case EventStart:
		_, err = c.CallStartedWithSeries(ctx, e.CallID, e.Country, e.SeriesID, e.Time)
	case EventJoin:
		err = c.ParticipantJoined(ctx, e.CallID, e.Country, e.Media)
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
