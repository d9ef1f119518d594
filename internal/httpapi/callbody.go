package httpapi

// Call-control bodies are decoded in two tiers. parseCallBody reads the
// canonical subset every well-behaved client sends straight off the bytes;
// any body it declines goes to decodeBytes (encoding/json with
// DisallowUnknownFields and the trailing-data check), which gives the
// verdict and the error text. The fast tier accepts only bodies the
// reference decoder accepts with the same field values (FuzzCallBodies), so
// the route's behaviour is the reference decoder's.

// Call-body fields, one bit each; each route accepts a fixed set.
const (
	fieldID uint8 = 1 << iota
	fieldCountry
	fieldSeriesID
	fieldConfig

	startFields  = fieldID | fieldCountry | fieldSeriesID
	configFields = fieldID | fieldConfig
	endFields    = fieldID
)

// callBody is a decoded call-control body: StartRequest, ConfigRequest and
// EndRequest in one shape. The fast tier leaves country and config pointing
// into the request body.
type callBody struct {
	id, seriesID    uint64
	country, config []byte
}

// parseCallBody decodes b as one of the route's bodies when b is in the
// canonical subset: JSON whitespace around one object whose keys are the
// route's exact lower-case field names, each at most once; "id" and
// "series_id" as unsigned decimals with no sign, fraction, exponent or
// leading zero that fit a uint64; strings of printable ASCII with no
// escapes; nothing after the closing brace. ok is false for every other
// body, valid JSON or not.
//
//sblint:hotpath
func parseCallBody(b []byte, fields uint8) (req callBody, ok bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return callBody{}, false
	}
	i = skipSpace(b, i+1)
	var seen uint8
	if i < len(b) && b[i] == '}' {
		i++
	} else {
		for {
			key, j, ok := scanString(b, i)
			if !ok {
				return callBody{}, false
			}
			f := fieldOf(key) & fields
			if f == 0 || seen&f != 0 {
				return callBody{}, false
			}
			seen |= f
			i = skipSpace(b, j)
			if i == len(b) || b[i] != ':' {
				return callBody{}, false
			}
			i = skipSpace(b, i+1)
			switch f {
			case fieldID, fieldSeriesID:
				v, j, ok := scanUint(b, i)
				if !ok {
					return callBody{}, false
				}
				if f == fieldID {
					req.id = v
				} else {
					req.seriesID = v
				}
				i = j
			default:
				s, j, ok := scanString(b, i)
				if !ok {
					return callBody{}, false
				}
				if f == fieldCountry {
					req.country = s
				} else {
					req.config = s
				}
				i = j
			}
			i = skipSpace(b, i)
			if i == len(b) {
				return callBody{}, false
			}
			if b[i] == '}' {
				i++
				break
			}
			if b[i] != ',' {
				return callBody{}, false
			}
			i = skipSpace(b, i+1)
		}
	}
	if skipSpace(b, i) != len(b) {
		return callBody{}, false
	}
	return req, true
}

// skipSpace returns the index of the first non-whitespace byte at or after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
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

// scanUint reads an unsigned decimal with no leading zero that fits a
// uint64, starting at b[i]: its value and the index just past it.
func scanUint(b []byte, i int) (v uint64, next int, ok bool) {
	j := i
	for ; j < len(b) && b[j] >= '0' && b[j] <= '9'; j++ {
		d := uint64(b[j] - '0')
		if v > (1<<64-1-d)/10 {
			return 0, 0, false
		}
		v = v*10 + d
	}
	if j == i || (b[i] == '0' && j > i+1) {
		return 0, 0, false
	}
	return v, j, true
}

// fieldOf maps a key to its field bit, 0 when it names no call-body field.
func fieldOf(key []byte) uint8 {
	switch {
	case equal(key, "id"):
		return fieldID
	case equal(key, "country"):
		return fieldCountry
	case equal(key, "series_id"):
		return fieldSeriesID
	case equal(key, "config"):
		return fieldConfig
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
