// Package model defines Switchboard's core domain types: media types with
// their relative compute/network loads (the paper's Table 1), call
// configurations (§5.1), call and call-leg records, and the 30-minute time
// buckets all forecasting and provisioning operate on.
package model

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"switchboard/internal/geo"
)

// MediaType classifies a call by its most resource-intensive stream, per
// §5.1: every call has audio; one camera upgrades it to Video; one shared
// screen makes it ScreenShare. The ordering of the constants is the upgrade
// order used when participants change media mid-call.
type MediaType int

// Media types in upgrade order.
const (
	Audio MediaType = iota
	ScreenShare
	Video
	numMediaTypes
)

// MediaTypes lists all media types.
func MediaTypes() []MediaType { return []MediaType{Audio, ScreenShare, Video} }

func (m MediaType) String() string {
	switch m {
	case Audio:
		return "audio"
	case ScreenShare:
		return "screenshare"
	case Video:
		return "video"
	default:
		return fmt.Sprintf("MediaType(%d)", int(m))
	}
}

// ParseMediaType is the inverse of MediaType.String.
func ParseMediaType(s string) (MediaType, error) {
	switch s {
	case "audio":
		return Audio, nil
	case "screenshare":
		return ScreenShare, nil
	case "video":
		return Video, nil
	}
	return 0, fmt.Errorf("model: unknown media type %q", s)
}

// Relative per-participant loads by media type. The ratios follow the
// paper's Table 1: compute 1× / 1.2× / 2× and network 1× / 15× / 35× for
// audio / screen-share / video (exact production values are confidential;
// these sit inside the published ranges). Compute is in cores per
// participant, network in Mbps per call leg.
var (
	computeLoadCores = [numMediaTypes]float64{Audio: 0.02, ScreenShare: 0.024, Video: 0.04}
	networkLoadMbps  = [numMediaTypes]float64{Audio: 0.10, ScreenShare: 1.50, Video: 3.50}
)

// ComputeLoad returns the cores one participant of a call with this media
// type consumes on the MP server (CL in the paper).
func (m MediaType) ComputeLoad() float64 { return computeLoadCores[m] }

// NetworkLoad returns the Mbps one call leg with this media type carries on
// each WAN link along its path (NL in the paper).
func (m MediaType) NetworkLoad() float64 { return networkLoadMbps[m] }

// CountryCount is one (country, participant count) element of a call
// configuration's spread.
type CountryCount struct {
	Country geo.CountryCode
	Count   int
}

// Spread is the location histogram of a call's participants, sorted by
// country code. Use NewSpread to construct a canonical instance.
type Spread []CountryCount

// NewSpread builds a canonical spread from a country->count map, dropping
// non-positive counts.
func NewSpread(counts map[geo.CountryCode]int) Spread {
	s := make(Spread, 0, len(counts))
	for c, n := range counts {
		if n > 0 {
			s = append(s, CountryCount{Country: c, Count: n})
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].Country < s[j].Country })
	return s
}

// Participants returns the total participant count.
func (s Spread) Participants() int {
	var n int
	for _, cc := range s {
		n += cc.Count
	}
	return n
}

// Majority returns the country contributing the most participants (ties
// broken by country code order) and whether it holds a strict majority.
func (s Spread) Majority() (geo.CountryCode, bool) {
	var best geo.CountryCode
	bestN := -1
	for _, cc := range s {
		if cc.Count > bestN {
			best, bestN = cc.Country, cc.Count
		}
	}
	return best, bestN*2 > s.Participants()
}

// CallConfig is the unit of forecasting and provisioning (§5.1): the spread
// of participant locations plus the call's media type. Configs with equal
// Key() are fungible for resource purposes.
type CallConfig struct {
	Spread Spread
	Media  MediaType
}

// Key returns a canonical string encoding, e.g. "video|IN:2,JP:1", usable as
// a map key and stable across processes.
func (c CallConfig) Key() string {
	var buf [64]byte
	return string(c.AppendKey(buf[:0]))
}

// AppendKey appends Key's encoding to b. A map lookup written as
// m[string(c.AppendKey(buf[:0]))] over a stack buffer allocates nothing.
func (c CallConfig) AppendKey(b []byte) []byte {
	b = append(b, c.Media.String()...)
	b = append(b, '|')
	for i, cc := range c.Spread {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, cc.Country...)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(cc.Count), 10)
	}
	return b
}

// ParseConfigKey is the inverse of Key. It accepts any key whose elements
// are country:count pairs with positive counts, in any order; repeated
// countries are merged, so the result is the canonical spread.
func ParseConfigKey(key string) (CallConfig, error) {
	media, rest, ok := strings.Cut(key, "|")
	if !ok {
		return CallConfig{}, fmt.Errorf("model: bad config key %q", key)
	}
	m, err := ParseMediaType(media)
	if err != nil {
		return CallConfig{}, err
	}
	n := 0 // elements, as strings.Split would cut them
	if rest != "" {
		n = strings.Count(rest, ",") + 1
	}
	s := make(Spread, 0, n)
	for i := 0; i < n; i++ {
		var part string
		part, rest, _ = strings.Cut(rest, ",")
		country, countStr, ok := strings.Cut(part, ":")
		if !ok {
			return CallConfig{}, fmt.Errorf("model: bad spread element %q in %q", part, key)
		}
		count, err := strconv.Atoi(countStr)
		if err != nil || count <= 0 {
			return CallConfig{}, fmt.Errorf("model: bad count in %q", part)
		}
		s = s.add(geo.CountryCode(country), count)
	}
	// A merged count that overflowed int is not positive; NewSpread drops
	// such entries, and so does this.
	kept := s[:0]
	for _, cc := range s {
		if cc.Count > 0 {
			kept = append(kept, cc)
		}
	}
	return CallConfig{Spread: kept, Media: m}, nil
}

// add merges count participants from country into s, which is sorted by
// country code, keeping it sorted (an insertion sort: spreads are short).
func (s Spread) add(country geo.CountryCode, count int) Spread {
	i := len(s)
	for i > 0 && s[i-1].Country >= country {
		i--
	}
	if i < len(s) && s[i].Country == country {
		s[i].Count += count
		return s
	}
	s = append(s, CountryCount{})
	copy(s[i+1:], s[i:])
	s[i] = CountryCount{Country: country, Count: count}
	return s
}

// Participants returns the total participant count of the config.
func (c CallConfig) Participants() int { return c.Spread.Participants() }

// ComputeLoad returns the cores one call of this config consumes
// (CL_media × |P(c)| in the paper's Eq 5).
func (c CallConfig) ComputeLoad() float64 {
	return c.Media.ComputeLoad() * float64(c.Participants())
}

// ACL returns the average call latency (ms) of hosting this config at DC dc:
// the participant-weighted mean one-way leg latency (Table 2's ACL(x,c)).
func (c CallConfig) ACL(w *geo.World, dc int) float64 {
	if len(c.Spread) == 0 {
		return 0
	}
	var sum float64
	var n int
	for _, cc := range c.Spread {
		sum += w.Latency(dc, cc.Country) * float64(cc.Count)
		n += cc.Count
	}
	return sum / float64(n)
}

// Regions returns the set of regions the participants span.
func (c CallConfig) Regions(w *geo.World) []geo.Region {
	seen := make(map[geo.Region]bool)
	var out []geo.Region
	for _, cc := range c.Spread {
		if country, ok := w.Country(cc.Country); ok && !seen[country.Region] {
			seen[country.Region] = true
			out = append(out, country.Region)
		}
	}
	return out
}

// InterCountry reports whether participants span more than one country.
func (c CallConfig) InterCountry() bool { return len(c.Spread) > 1 }

// LegRecord is one participant's connection to the MP server.
type LegRecord struct {
	// Participant is a stable pseudonymous user identifier, used by the
	// recurring-meeting predictor; 0 means unknown.
	Participant uint64
	// Country is the participant's location.
	Country geo.CountryCode
	// JoinOffset is when the participant joined, relative to call start.
	JoinOffset time.Duration
	// LatencyMs is the observed one-way latency of the leg.
	LatencyMs float64
	// Media is the richest stream this participant sent.
	Media MediaType
}

// CallRecord is the stored metadata of one completed call (§5's call records
// database).
type CallRecord struct {
	ID       uint64
	Start    time.Time
	Duration time.Duration
	// DC is the hosting datacenter's ID.
	DC int
	// SeriesID groups recurring instances of the same meeting series;
	// 0 means ad-hoc.
	SeriesID uint64
	Legs     []LegRecord
}

// Config derives the call configuration from the recorded legs: the spread
// of leg countries and the richest media type seen.
func (r *CallRecord) Config() CallConfig {
	counts := make(map[geo.CountryCode]int, len(r.Legs))
	media := Audio
	for _, l := range r.Legs {
		counts[l.Country]++
		if l.Media > media {
			media = l.Media
		}
	}
	return CallConfig{Spread: NewSpread(counts), Media: media}
}

// ConfigFrozenAt derives the call config as known A into the call: only legs
// that joined by then are counted (§5.4's freeze at A = 300 s).
func (r *CallRecord) ConfigFrozenAt(a time.Duration) CallConfig {
	counts := make(map[geo.CountryCode]int, len(r.Legs))
	media := Audio
	for _, l := range r.Legs {
		if l.JoinOffset > a {
			continue
		}
		counts[l.Country]++
		if l.Media > media {
			media = l.Media
		}
	}
	return CallConfig{Spread: NewSpread(counts), Media: media}
}

// Time bucketing: all demand series use fixed 30-minute slots (§5.2).
const (
	// SlotDuration is the width of one demand time bucket.
	SlotDuration = 30 * time.Minute
	// SlotsPerDay is the number of buckets in one day.
	SlotsPerDay = int(24 * time.Hour / SlotDuration)
)

// SlotOfDay returns the bucket index within the UTC day, in [0, SlotsPerDay).
func SlotOfDay(t time.Time) int {
	t = t.UTC()
	return (t.Hour()*60 + t.Minute()) / int(SlotDuration/time.Minute)
}

// SlotIndex returns the absolute bucket index of t relative to origin
// (negative if t precedes origin).
func SlotIndex(origin, t time.Time) int {
	d := t.Sub(origin)
	if d < 0 {
		return int((d - SlotDuration + time.Nanosecond) / SlotDuration)
	}
	return int(d / SlotDuration)
}

// SlotStart returns the start time of the absolute bucket idx relative to
// origin.
func SlotStart(origin time.Time, idx int) time.Time {
	return origin.Add(time.Duration(idx) * SlotDuration)
}
