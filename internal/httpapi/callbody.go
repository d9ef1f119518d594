package httpapi

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Every POST body the API takes is decoded by parseCallBody, straight off
// the bytes, against one grammar: JSON whitespace around one object whose
// keys are the route's exact lower-case field names, each at most once;
// numbers as unsigned decimals with no sign, fraction, exponent or leading
// zero, within the field's bound; strings of printable ASCII with no escapes;
// nothing after the closing brace. Every field but series_id is required.
// A body outside the grammar answers 400 with one of the reasons below, each
// a package-level value so that refusing a body allocates nothing either.
// DESIGN.md "Call-control API" tabulates the fields and their reasons.

// Body fields, one bit each; each route accepts a fixed set.
const (
	fieldID uint8 = 1 << iota
	fieldCountry
	fieldSeriesID
	fieldConfig
	fieldDC
	fieldTargetShards

	startFields   = fieldID | fieldCountry | fieldSeriesID
	configFields  = fieldID | fieldConfig
	endFields     = fieldID
	dcFields      = fieldDC
	reshardFields = fieldTargetShards

	// optionalFields may be left out of a body; every other field of the
	// route is required.
	optionalFields = fieldSeriesID
)

// Upper bounds of the admin routes' numbers. A DC ID past the world's DCs
// and a shard count that does not grow the ring are refused by their
// handlers; the bounds keep both values an int on every platform and cap the
// size of the ring a split builds.
const (
	maxDC           = 1<<16 - 1
	maxTargetShards = 1024
)

// bodyField describes one field: its key, its bound (0 for a string) and
// the reasons a body that lacks it or holds a bad value is refused with.
type bodyField struct {
	name             string
	max              uint64
	missing, invalid error
}

func newBodyField(name string, limit uint64) bodyField {
	f := bodyField{name: name, max: limit, missing: fmt.Errorf("missing field %q", name)}
	if limit == 0 {
		f.invalid = fmt.Errorf("%q must be a string of printable ASCII without escapes", name)
	} else {
		f.invalid = fmt.Errorf("%q must be an unsigned decimal integer from 0 to %d", name, limit)
	}
	return f
}

// bodyFields is indexed by the field's bit position.
var bodyFields = [...]bodyField{
	newBodyField("id", math.MaxUint64),
	newBodyField("country", 0),
	newBodyField("series_id", math.MaxUint64),
	newBodyField("config", 0),
	newBodyField("dc", maxDC),
	newBodyField("target_shards", maxTargetShards),
}

// Refusals that name no field.
var (
	errNotObject      = errors.New("body must be one JSON object")
	errFieldName      = errors.New("expected a field name: a string of printable ASCII without escapes")
	errUnknownField   = errors.New("unknown field for this route")
	errDuplicateField = errors.New("duplicate field")
	errSyntax         = errors.New(`malformed JSON object: expected ":" after a field name, or "," or "}" after a value`)
	errTrailing       = errors.New("trailing data after JSON body")
)

// callBody is a decoded POST body. Strings point into the request body.
type callBody struct {
	id, seriesID     uint64
	dc, targetShards int
	country, config  []byte
}

// parseCallBody decodes b as a body of the route's fields, or returns the
// reason it is refused.
//
//sblint:hotpath
func parseCallBody(b []byte, fields uint8) (req callBody, err error) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return callBody{}, errNotObject
	}
	i = skipSpace(b, i+1)
	var seen uint8
	if i < len(b) && b[i] == '}' {
		i++
	} else {
		for {
			key, j, ok := scanString(b, i)
			if !ok {
				return callBody{}, errFieldName
			}
			f := fieldOf(key) & fields
			if f == 0 {
				return callBody{}, errUnknownField
			}
			if seen&f != 0 {
				return callBody{}, errDuplicateField
			}
			seen |= f
			i = skipSpace(b, j)
			if i == len(b) || b[i] != ':' {
				return callBody{}, errSyntax
			}
			i = skipSpace(b, i+1)
			spec := &bodyFields[bits.TrailingZeros8(f)]
			if spec.max == 0 {
				s, j, ok := scanString(b, i)
				if !ok {
					return callBody{}, spec.invalid
				}
				if f == fieldCountry {
					req.country = s
				} else {
					req.config = s
				}
				i = j
			} else {
				v, j, ok := scanUint(b, i, spec.max)
				if !ok {
					return callBody{}, spec.invalid
				}
				switch f {
				case fieldID:
					req.id = v
				case fieldSeriesID:
					req.seriesID = v
				case fieldDC:
					req.dc = int(v)
				default:
					req.targetShards = int(v)
				}
				i = j
			}
			i = skipSpace(b, i)
			if i == len(b) || (b[i] != '}' && b[i] != ',') {
				return callBody{}, errSyntax
			}
			if b[i] == '}' {
				i++
				break
			}
			i = skipSpace(b, i+1)
		}
	}
	if skipSpace(b, i) != len(b) {
		return callBody{}, errTrailing
	}
	if missing := fields &^ optionalFields &^ seen; missing != 0 {
		return callBody{}, bodyFields[bits.TrailingZeros8(missing)].missing
	}
	return req, nil
}

// isSpace reports whether c is JSON whitespace.
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// skipSpace returns the index of the first non-whitespace byte at or after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

// scanString reads a JSON string of printable ASCII with no escapes starting
// at b[i]: its contents and the index just past the closing quote.
func scanString(b []byte, i int) (s []byte, next int, ok bool) {
	if i == len(b) || b[i] != '"' {
		return nil, 0, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// scanUint reads an unsigned decimal with no leading zero, at most limit,
// starting at b[i]: its value and the index just past it. The number must
// end the value, so "1.5", "1e3" and "1x" are refused whole.
func scanUint(b []byte, i int, limit uint64) (v uint64, next int, ok bool) {
	j := i
	for ; j < len(b) && b[j] >= '0' && b[j] <= '9'; j++ {
		d := uint64(b[j] - '0')
		if v > (limit-d)/10 {
			return 0, 0, false
		}
		v = v*10 + d
	}
	if j == i || (b[i] == '0' && j > i+1) {
		return 0, 0, false
	}
	if j < len(b) && !isSpace(b[j]) && b[j] != ',' && b[j] != '}' {
		return 0, 0, false
	}
	return v, j, true
}

// fieldOf maps a key to its field bit, 0 when it names no body field.
func fieldOf(key []byte) uint8 {
	for i := range bodyFields {
		if equal(key, bodyFields[i].name) {
			return 1 << i
		}
	}
	return 0
}

// equal reports whether b holds exactly the bytes of s.
func equal(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		if b[i] != s[i] {
			return false
		}
	}
	return true
}
