package controller

import (
	"context"
	"net"
	"testing"
	"time"

	"switchboard/internal/geo"
	"switchboard/internal/kvstore"
	"switchboard/internal/model"
	"switchboard/internal/trace"
)

var world = geo.DefaultWorld()

func aclOf(cfg model.CallConfig, dc int) float64 { return cfg.ACL(world, dc) }

func newController(t *testing.T, placer Placer) *Controller {
	t.Helper()
	c, err := New(Config{World: world, Placer: placer})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func cfgOf(m model.MediaType, counts map[geo.CountryCode]int) model.CallConfig {
	return model.CallConfig{Spread: model.NewSpread(counts), Media: m}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing world should error")
	}
	c, err := New(Config{World: world})
	if err != nil {
		t.Fatal(err)
	}
	if c.Freeze() != DefaultFreeze {
		t.Errorf("freeze = %v, want default", c.Freeze())
	}
}

func TestFirstJoinerAssignment(t *testing.T) {
	c := newController(t, nil)
	now := time.Now()
	dc, err := c.CallStarted(context.Background(), 1, "JP", now)
	if err != nil {
		t.Fatal(err)
	}
	if world.DCs()[dc].Name != "tokyo" {
		t.Errorf("JP first joiner assigned to %s, want tokyo", world.DCs()[dc].Name)
	}
	if _, err := c.CallStarted(context.Background(), 1, "JP", now); err == nil {
		t.Error("duplicate call ID should error")
	}
	if _, err := c.CallStarted(context.Background(), 2, "ZZ", now); err == nil {
		t.Error("unknown country should error")
	}
}

func TestConfigKnownNoPlacerKeepsDC(t *testing.T) {
	c := newController(t, nil)
	now := time.Now()
	dc0, _ := c.CallStarted(context.Background(), 1, "JP", now)
	dc, migrated, err := c.ConfigKnown(context.Background(), 1, cfgOf(model.Video, map[geo.CountryCode]int{"JP": 3}), now)
	if err != nil || migrated || dc != dc0 {
		t.Fatalf("got dc=%d migrated=%v err=%v, want keep %d", dc, migrated, err, dc0)
	}
	// Second freeze is idempotent.
	dc2, migrated2, err := c.ConfigKnown(context.Background(), 1, cfgOf(model.Audio, nil), now)
	if err != nil || migrated2 || dc2 != dc {
		t.Fatal("second ConfigKnown should be a no-op")
	}
	if err := c.CallEnded(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if err := c.CallEnded(context.Background(), 1); err == nil {
		t.Error("double end should error")
	}
	if _, _, err := c.ConfigKnown(context.Background(), 99, cfgOf(model.Audio, nil), now); err == nil {
		t.Error("unknown call should error")
	}
	st := c.Stats()
	if st.Started != 1 || st.Frozen != 1 || st.Migrated != 0 || st.Ended != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMinACLPlacerMigration(t *testing.T) {
	placer := &MinACLPlacer{ACLOf: aclOf, NDCs: len(world.DCs())}
	c := newController(t, placer)
	now := time.Now()
	// First joiner in Japan but the majority turns out Indonesian: the
	// min-ACL DC is not tokyo, so the call must migrate (the §5.4(c)
	// example).
	c.CallStarted(context.Background(), 1, "JP", now)
	cfg := cfgOf(model.Video, map[geo.CountryCode]int{"JP": 3, "ID": 5})
	dc, migrated, err := c.ConfigKnown(context.Background(), 1, cfg, now)
	if err != nil {
		t.Fatal(err)
	}
	if !migrated {
		t.Error("expected migration for ID-majority call started in JP")
	}
	best := 0
	for x := range world.DCs() {
		if aclOf(cfg, x) < aclOf(cfg, best) {
			best = x
		}
	}
	if dc != best {
		t.Errorf("migrated to %d, want min-ACL %d", dc, best)
	}
	// A JP-majority call stays put.
	c.CallStarted(context.Background(), 2, "JP", now)
	_, migrated, _ = c.ConfigKnown(context.Background(), 2, cfgOf(model.Audio, map[geo.CountryCode]int{"JP": 4}), now)
	if migrated {
		t.Error("JP-majority call should not migrate from tokyo")
	}
}

func TestPlanPlacerSlotAccounting(t *testing.T) {
	cfg := cfgOf(model.Audio, map[geo.CountryCode]int{"JP": 2})
	var tokyo, hk int
	for _, dc := range world.DCs() {
		switch dc.Name {
		case "tokyo":
			tokyo = dc.ID
		case "hong-kong":
			hk = dc.ID
		}
	}
	// One plan slot; 2 calls at tokyo, 1 at hong-kong.
	alloc := [][][]float64{{make([]float64, len(world.DCs()))}}
	alloc[0][0][tokyo] = 2
	alloc[0][0][hk] = 1
	p := NewPlanPlacer([]model.CallConfig{cfg}, alloc, aclOf, len(world.DCs()))

	// First two placements keep the tokyo-assigned call at tokyo.
	for i := 0; i < 2; i++ {
		dc, ok := p.Place(cfg, 0, tokyo)
		if !ok || dc != tokyo {
			t.Fatalf("placement %d: dc=%d ok=%v", i, dc, ok)
		}
	}
	// Tokyo exhausted: the third goes to hong-kong.
	dc, ok := p.Place(cfg, 0, tokyo)
	if !ok || dc != hk {
		t.Fatalf("third placement dc=%d ok=%v, want hong-kong", dc, ok)
	}
	// All slots gone: the config is treated as unplanned (the realtime
	// path then hosts at the majority's closest DC).
	if _, ok := p.Place(cfg, 0, tokyo); ok {
		t.Fatal("fully exhausted plan should report unplanned")
	}
	// Release one tokyo slot; next placement reclaims it.
	p.Release(cfg, 0, tokyo)
	dc, ok = p.Place(cfg, 0, tokyo)
	if !ok || dc != tokyo {
		t.Fatalf("after release dc=%d ok=%v, want tokyo", dc, ok)
	}
	// Unknown config is not in the plan.
	if _, ok := p.Place(cfgOf(model.Video, map[geo.CountryCode]int{"US": 9}), 0, tokyo); ok {
		t.Error("unknown config should be unplanned")
	}
}

func TestUnplannedConfigGoesToMajorityClosest(t *testing.T) {
	p := NewPlanPlacer(nil, [][][]float64{{}}, aclOf, len(world.DCs()))
	c := newController(t, p)
	now := time.Now()
	c.CallStarted(context.Background(), 1, "JP", now)
	cfg := cfgOf(model.Audio, map[geo.CountryCode]int{"IN": 5, "JP": 1})
	dc, migrated, err := c.ConfigKnown(context.Background(), 1, cfg, now)
	if err != nil {
		t.Fatal(err)
	}
	if !migrated {
		t.Error("IN-majority unplanned call should migrate from tokyo")
	}
	if world.DCs()[dc].Name != "pune" {
		t.Errorf("unplanned call went to %s, want pune", world.DCs()[dc].Name)
	}
	if c.Stats().Unplanned != 1 {
		t.Errorf("unplanned = %d", c.Stats().Unplanned)
	}
}

// stubPredictor predicts a fixed config for one series.
type stubPredictor struct {
	series uint64
	cfg    model.CallConfig
}

func (p *stubPredictor) PredictConfig(seriesID uint64, _ time.Time) (model.CallConfig, bool) {
	if seriesID == p.series {
		return p.cfg, true
	}
	return model.CallConfig{}, false
}

func TestPredictivePlacementAvoidsMigration(t *testing.T) {
	// The §5.4(c) example: first joiner in Japan, majority in Indonesia.
	// Without prediction the call migrates at freeze; with an accurate
	// prediction it is placed right the first time.
	placer := &MinACLPlacer{ACLOf: aclOf, NDCs: len(world.DCs())}
	cfg := cfgOf(model.Video, map[geo.CountryCode]int{"JP": 3, "ID": 5})
	now := time.Now()

	plain := newController(t, placer)
	plain.CallStartedWithSeries(context.Background(), 1, "JP", 42, now)
	_, migrated, _ := plain.ConfigKnown(context.Background(), 1, cfg, now)
	if !migrated {
		t.Fatal("baseline should migrate")
	}
	st := plain.Stats()
	if st.FrozenRecurring != 1 || st.MigratedRecurring != 1 || st.Predicted != 0 {
		t.Errorf("baseline stats = %+v", st)
	}

	predictive, err := New(Config{
		World:     world,
		Placer:    placer,
		Predictor: &stubPredictor{series: 42, cfg: cfg},
	})
	if err != nil {
		t.Fatal(err)
	}
	dc0, err := predictive.CallStartedWithSeries(context.Background(), 1, "JP", 42, now)
	if err != nil {
		t.Fatal(err)
	}
	dcFinal, migrated, err := predictive.ConfigKnown(context.Background(), 1, cfg, now)
	if err != nil {
		t.Fatal(err)
	}
	if migrated || dc0 != dcFinal {
		t.Errorf("predicted placement still migrated: %d -> %d", dc0, dcFinal)
	}
	st = predictive.Stats()
	if st.Predicted != 1 {
		t.Errorf("Predicted = %d, want 1", st.Predicted)
	}
	if st.RecurringMigrationRate() != 0 {
		t.Errorf("recurring migration rate = %g", st.RecurringMigrationRate())
	}
	// A non-series call never consults the predictor.
	if _, err := predictive.CallStarted(context.Background(), 2, "JP", now); err != nil {
		t.Fatal(err)
	}
	if predictive.Stats().Predicted != 1 {
		t.Error("predictor fired for an ad-hoc call")
	}
}

func TestBuildEventsOrdering(t *testing.T) {
	start := time.Date(2022, 9, 5, 9, 0, 0, 0, time.UTC)
	recs := []*model.CallRecord{
		{
			ID: 2, Start: start.Add(time.Minute), Duration: 10 * time.Minute,
			Legs: []model.LegRecord{
				{Participant: 1, Country: "US"},
				{Participant: 2, Country: "CA", JoinOffset: 2 * time.Minute},
				{Participant: 3, Country: "US", JoinOffset: 20 * time.Minute}, // after end: dropped
			},
		},
		{
			ID: 1, Start: start, Duration: 2 * time.Minute, // shorter than freeze
			Legs: []model.LegRecord{{Participant: 4, Country: "JP"}},
		},
	}
	events := BuildEvents(recs, 5*time.Minute)
	if len(events) != 7 {
		t.Fatalf("got %d events, want 7", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Time.Before(events[i-1].Time) {
			t.Fatal("events not time-ordered")
		}
	}
	// Call 1's freeze must precede its end despite freeze > duration.
	var frozeAt, endedAt int
	for i, e := range events {
		if e.CallID == 1 && e.Kind == EventFreeze {
			frozeAt = i
		}
		if e.CallID == 1 && e.Kind == EventEnd {
			endedAt = i
		}
	}
	if frozeAt >= endedAt {
		t.Error("freeze after end for a short call")
	}
}

func TestReplayMigrationRateSmall(t *testing.T) {
	// End-to-end §6.4: replay a synthetic day with the min-ACL placer;
	// the migration rate should be small (first-joiner locality) but
	// nonzero.
	cfg := trace.DefaultConfig()
	cfg.Days = 1
	cfg.CallsPerDay = 2500
	g, err := trace.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := g.GenerateAll()
	events := BuildEvents(recs, DefaultFreeze)
	c := newController(t, &MinACLPlacer{ACLOf: aclOf, NDCs: len(world.DCs())})
	stats, err := c.Replay(events)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Frozen == 0 || stats.Ended == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	rate := stats.MigrationRate()
	if rate <= 0 || rate > 0.20 {
		t.Errorf("migration rate = %.3f, want small nonzero (~0.015-0.1)", rate)
	}
	if c.ActiveCalls() != 0 {
		t.Errorf("%d calls leaked after replay", c.ActiveCalls())
	}
}

// TestCallKeyLayout pins the call-state key bytes: store audits and
// external readers address calls as "<prefix>call:<id>".
func TestCallKeyLayout(t *testing.T) {
	for _, tc := range []struct{ prefix, key, scan string }{
		{"", "call:42", "call:"},
		{"shard/2/", "shard/2/call:42", "shard/2/call:"},
	} {
		if got := CallKey(tc.prefix, 42); got != tc.key {
			t.Errorf("CallKey(%q, 42) = %q, want %q", tc.prefix, got, tc.key)
		}
		if got := CallKeyPrefix(tc.prefix); got != tc.scan {
			t.Errorf("CallKeyPrefix(%q) = %q, want %q", tc.prefix, got, tc.scan)
		}
	}
}

func TestApplyRejectsUnknownKind(t *testing.T) {
	c := newController(t, nil)
	if err := c.Apply(context.Background(), Event{Kind: EventEnd + 1, CallID: 1}); err == nil {
		t.Error("Apply accepted an unknown event kind")
	}
}

func TestControllerPersistsToStore(t *testing.T) {
	srv := kvstore.NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	client, err := kvstore.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	c, err := New(Config{World: world, Store: client})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	dc, _ := c.CallStarted(context.Background(), 42, "DE", now)
	reader, err := kvstore.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	v, err := reader.HGet("call:42", "dc")
	if err != nil {
		t.Fatal(err)
	}
	if v == "" || v != itoa(dc) {
		t.Errorf("persisted dc = %q, want %d", v, dc)
	}
	c.ConfigKnown(context.Background(), 42, cfgOf(model.Audio, map[geo.CountryCode]int{"DE": 2}), now)
	if v, err := reader.HGet("call:42", "config"); err != nil || v != "audio|DE:2" {
		t.Errorf("persisted config = %q, %v", v, err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
