package model

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"switchboard/internal/geo"
)

func TestMediaLoadRatiosMatchTable1(t *testing.T) {
	// Table 1: compute 1x / 1-2x / 2-4x, network 1x / 10-20x / 30-40x.
	clA, clS, clV := Audio.ComputeLoad(), ScreenShare.ComputeLoad(), Video.ComputeLoad()
	nlA, nlS, nlV := Audio.NetworkLoad(), ScreenShare.NetworkLoad(), Video.NetworkLoad()
	if r := clS / clA; r < 1 || r > 2 {
		t.Errorf("screenshare compute ratio %g outside [1,2]", r)
	}
	if r := clV / clA; r < 2 || r > 4 {
		t.Errorf("video compute ratio %g outside [2,4]", r)
	}
	if r := nlS / nlA; r < 10 || r > 20 {
		t.Errorf("screenshare network ratio %g outside [10,20]", r)
	}
	if r := nlV / nlA; r < 30 || r > 40 {
		t.Errorf("video network ratio %g outside [30,40]", r)
	}
	// NL/CL ratio column: screenshare 10-15x, video 15-20x relative to audio.
	base := nlA / clA
	if r := (nlS / clS) / base; r < 10 || r > 15 {
		t.Errorf("screenshare NL/CL ratio %g outside [10,15]", r)
	}
	if r := (nlV / clV) / base; r < 15 || r > 20 {
		t.Errorf("video NL/CL ratio %g outside [15,20]", r)
	}
}

func TestMediaTypeStrings(t *testing.T) {
	for _, m := range MediaTypes() {
		parsed, err := ParseMediaType(m.String())
		if err != nil || parsed != m {
			t.Errorf("round trip %v failed: %v %v", m, parsed, err)
		}
	}
	if _, err := ParseMediaType("smoke-signals"); err == nil {
		t.Error("expected error for unknown media type")
	}
}

func TestSpreadCanonical(t *testing.T) {
	s := NewSpread(map[geo.CountryCode]int{"JP": 1, "IN": 2, "ZZ": 0, "AU": -3})
	if len(s) != 2 {
		t.Fatalf("spread = %v, want 2 entries", s)
	}
	if s[0].Country != "IN" || s[1].Country != "JP" {
		t.Errorf("spread not sorted: %v", s)
	}
	if s.Participants() != 3 {
		t.Errorf("participants = %d, want 3", s.Participants())
	}
	maj, strict := s.Majority()
	if maj != "IN" || !strict {
		t.Errorf("majority = %v strict=%v, want IN strict", maj, strict)
	}
}

func TestMajorityNoStrict(t *testing.T) {
	s := NewSpread(map[geo.CountryCode]int{"IN": 2, "JP": 2})
	if _, strict := s.Majority(); strict {
		t.Error("2-2 split should not be a strict majority")
	}
}

func TestConfigKeyRoundTrip(t *testing.T) {
	cfg := CallConfig{
		Spread: NewSpread(map[geo.CountryCode]int{"IN": 2, "JP": 1}),
		Media:  Audio,
	}
	key := cfg.Key()
	if key != "audio|IN:2,JP:1" {
		t.Errorf("key = %q", key)
	}
	back, err := ParseConfigKey(key)
	if err != nil {
		t.Fatal(err)
	}
	if back.Key() != key {
		t.Errorf("round trip: %q != %q", back.Key(), key)
	}
}

func TestParseConfigKeyErrors(t *testing.T) {
	for _, bad := range []string{"", "audio", "polka|IN:2", "audio|IN", "audio|IN:x", "audio|IN:0", "audio|IN:-2"} {
		if _, err := ParseConfigKey(bad); err == nil {
			t.Errorf("ParseConfigKey(%q) succeeded, want error", bad)
		}
	}
}

// TestPropertyConfigKeyRoundTrip: Key/ParseConfigKey round-trips for random
// configs.
func TestPropertyConfigKeyRoundTrip(t *testing.T) {
	codes := []geo.CountryCode{"US", "IN", "JP", "DE", "BR", "AU", "GB", "SG"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		counts := make(map[geo.CountryCode]int)
		for i := 0; i <= rng.Intn(5); i++ {
			counts[codes[rng.Intn(len(codes))]] += 1 + rng.Intn(9)
		}
		cfg := CallConfig{Spread: NewSpread(counts), Media: MediaTypes()[rng.Intn(3)]}
		back, err := ParseConfigKey(cfg.Key())
		return err == nil && back.Key() == cfg.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeLoad(t *testing.T) {
	cfg := CallConfig{
		Spread: NewSpread(map[geo.CountryCode]int{"IN": 3}),
		Media:  Video,
	}
	want := 3 * Video.ComputeLoad()
	if got := cfg.ComputeLoad(); got != want {
		t.Errorf("compute load = %g, want %g", got, want)
	}
}

func TestACL(t *testing.T) {
	w := geo.DefaultWorld()
	var pune, tokyo int
	for _, dc := range w.DCs() {
		switch dc.Name {
		case "pune":
			pune = dc.ID
		case "tokyo":
			tokyo = dc.ID
		}
	}
	cfg := CallConfig{Spread: NewSpread(map[geo.CountryCode]int{"IN": 2, "JP": 1}), Media: Audio}
	aclPune := cfg.ACL(w, pune)
	aclTokyo := cfg.ACL(w, tokyo)
	// Majority in India: hosting in pune should beat tokyo.
	if aclPune >= aclTokyo {
		t.Errorf("ACL pune=%g >= tokyo=%g for an India-majority call", aclPune, aclTokyo)
	}
	// ACL must be a weighted average: between min and max leg latency.
	lo := w.Latency(pune, "IN")
	hi := w.Latency(pune, "JP")
	if aclPune < lo || aclPune > hi {
		t.Errorf("ACL %g outside leg range [%g, %g]", aclPune, lo, hi)
	}
	if (CallConfig{}).ACL(w, pune) != 0 {
		t.Error("empty config ACL should be 0")
	}
}

func TestRegionsAndInterCountry(t *testing.T) {
	w := geo.DefaultWorld()
	cfg := CallConfig{Spread: NewSpread(map[geo.CountryCode]int{"IN": 1, "US": 1})}
	regs := cfg.Regions(w)
	if len(regs) != 2 {
		t.Errorf("regions = %v, want APAC+AMER", regs)
	}
	if !cfg.InterCountry() {
		t.Error("IN+US should be inter-country")
	}
	solo := CallConfig{Spread: NewSpread(map[geo.CountryCode]int{"IN": 4})}
	if solo.InterCountry() {
		t.Error("single-country call marked inter-country")
	}
}

func TestCallRecordConfig(t *testing.T) {
	rec := &CallRecord{
		Legs: []LegRecord{
			{Country: "IN", JoinOffset: 0, Media: Audio},
			{Country: "IN", JoinOffset: 2 * time.Minute, Media: Video},
			{Country: "JP", JoinOffset: 10 * time.Minute, Media: Audio},
		},
	}
	full := rec.Config()
	if full.Key() != "video|IN:2,JP:1" {
		t.Errorf("full config = %q", full.Key())
	}
	frozen := rec.ConfigFrozenAt(5 * time.Minute)
	if frozen.Key() != "video|IN:2" {
		t.Errorf("frozen config = %q", frozen.Key())
	}
}

func TestSlotting(t *testing.T) {
	origin := time.Date(2022, 9, 1, 0, 0, 0, 0, time.UTC)
	if SlotsPerDay != 48 {
		t.Fatalf("SlotsPerDay = %d", SlotsPerDay)
	}
	cases := []struct {
		t    time.Time
		slot int
		idx  int
	}{
		{origin, 0, 0},
		{origin.Add(29 * time.Minute), 0, 0},
		{origin.Add(30 * time.Minute), 1, 1},
		{origin.Add(24 * time.Hour), 0, 48},
		{origin.Add(-1 * time.Minute), 47, -1},
	}
	for _, c := range cases {
		if got := SlotOfDay(c.t); got != c.slot {
			t.Errorf("SlotOfDay(%v) = %d, want %d", c.t, got, c.slot)
		}
		if got := SlotIndex(origin, c.t); got != c.idx {
			t.Errorf("SlotIndex(%v) = %d, want %d", c.t, got, c.idx)
		}
	}
	if SlotStart(origin, 48) != origin.Add(24*time.Hour) {
		t.Error("SlotStart mismatch")
	}
}

// TestPropertySlotIndexMonotonic: SlotIndex is nondecreasing in time and
// consistent with SlotStart.
func TestPropertySlotIndexMonotonic(t *testing.T) {
	origin := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	f := func(minsA, minsB int16) bool {
		ta := origin.Add(time.Duration(minsA) * time.Minute)
		tb := origin.Add(time.Duration(minsB) * time.Minute)
		ia, ib := SlotIndex(origin, ta), SlotIndex(origin, tb)
		if ta.Before(tb) && ia > ib {
			return false
		}
		// A slot's start must map back to its own index.
		return SlotIndex(origin, SlotStart(origin, ia)) == ia
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestConfigKeyAllocs pins the allocation counts of Key and ParseConfigKey:
// Key builds its string on a stack buffer, and ParseConfigKey allocates only
// the spread.
func TestConfigKeyAllocs(t *testing.T) {
	cfg, err := ParseConfigKey("video|US:3,JP:1,IN:2,US:1")
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = cfg.Key() }); n > 1 {
		t.Errorf("Key allocates %v times, want at most 1", n)
	}
	var buf [64]byte
	m := map[string]int{cfg.Key(): 1}
	if n := testing.AllocsPerRun(100, func() { _ = m[string(cfg.AppendKey(buf[:0]))] }); n > 0 {
		t.Errorf("a map lookup through AppendKey allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = ParseConfigKey("video|US:3,JP:1,IN:2,US:1") }); n > 1 {
		t.Errorf("ParseConfigKey allocates %v times, want at most 1", n)
	}
}
