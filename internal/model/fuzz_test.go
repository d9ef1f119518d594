package model

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"switchboard/internal/geo"
)

// FuzzParseConfigKey: arbitrary strings must never panic the parser, and any
// key it accepts must round-trip canonically (parse → Key → parse is a
// fixed point).
func FuzzParseConfigKey(f *testing.F) {
	f.Add("audio|IN:2,JP:1")
	f.Add("video|US:100")
	f.Add("screenshare|")
	f.Add("audio|:3")
	f.Add("|")
	f.Add("video|US:1,US:2")
	f.Fuzz(func(t *testing.T, key string) {
		cfg, err := ParseConfigKey(key)
		if err != nil {
			return
		}
		canon := cfg.Key()
		again, err := ParseConfigKey(canon)
		if err != nil {
			t.Fatalf("canonical key %q failed to parse: %v", canon, err)
		}
		if again.Key() != canon {
			t.Fatalf("not a fixed point: %q -> %q", canon, again.Key())
		}
	})
}

// parseConfigKeyMap is the map-and-sort parser ParseConfigKey replaced,
// kept as its reference: both must return the same config and the same
// error for every key.
func parseConfigKeyMap(key string) (CallConfig, error) {
	media, rest, ok := strings.Cut(key, "|")
	if !ok {
		return CallConfig{}, fmt.Errorf("model: bad config key %q", key)
	}
	m, err := ParseMediaType(media)
	if err != nil {
		return CallConfig{}, err
	}
	counts := make(map[geo.CountryCode]int)
	if rest != "" {
		for _, part := range strings.Split(rest, ",") {
			country, countStr, ok := strings.Cut(part, ":")
			if !ok {
				return CallConfig{}, fmt.Errorf("model: bad spread element %q in %q", part, key)
			}
			n, err := strconv.Atoi(countStr)
			if err != nil || n <= 0 {
				return CallConfig{}, fmt.Errorf("model: bad count in %q", part)
			}
			counts[geo.CountryCode(country)] += n
		}
	}
	return CallConfig{Spread: NewSpread(counts), Media: m}, nil
}

// FuzzParseConfigKeyMatchesMap checks ParseConfigKey against the map-based
// reference parser: same config, same error text.
func FuzzParseConfigKeyMatchesMap(f *testing.F) {
	for _, k := range []string{
		"audio|IN:2,JP:1", "video|US:1,US:2", "video|JP:1,IN:2,JP:3,AU:1", "screenshare|",
		"audio|:3", "|", "audio", "fax|US:1", "audio|US:0", "audio|US:-1", "audio|US:+2",
		"audio|US:02", "audio|US", "audio|US:1,", "audio|,US:1", "audio|US:1:2",
		"audio|US:9223372036854775807,US:1", "audio|US:9223372036854775807,US:9223372036854775807,US:2",
		"audio|US:99999999999999999999", "audio|B:1,A:1,C:1,A:2,B:3",
	} {
		f.Add(k)
	}
	f.Fuzz(func(t *testing.T, key string) {
		got, gotErr := ParseConfigKey(key)
		want, wantErr := parseConfigKeyMap(key)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("ParseConfigKey(%q) error = %v, want %v", key, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseConfigKey(%q) = %#v, want %#v", key, got, want)
		}
	})
}
