package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// Event kinds of the ingest stream. The schema is the online analogue of the
// paper's Section II Table I datasets as cmd/datagen emits them: per-vehicle
// GPS fixes and trip requests. Timestamps are absolute simulation minutes,
// the same clock every engine and trace record uses.
const (
	// KindGPS is one vehicle position fix (Table I's e-taxi GPS stream).
	KindGPS = "gps"
	// KindRequest is one trip request originating in a region (the demand
	// the paper infers from its transaction stream).
	KindRequest = "request"
)

// Event is one row of the ingest stream. Fields beyond Kind and TimeMin are
// kind-specific: GPS fixes carry vehicle/position/speed/occupancy, requests
// carry the origin region.
type Event struct {
	Kind      string  `json:"kind"`
	TimeMin   int     `json:"time_min"`
	VehicleID int     `json:"vehicle_id,omitempty"`
	Lng       float64 `json:"lng,omitempty"`
	Lat       float64 `json:"lat,omitempty"`
	SpeedKmh  float64 `json:"speed_kmh,omitempty"`
	Occupied  bool    `json:"occupied,omitempty"`
	Region    int     `json:"region,omitempty"`
}

// Validate reports schema errors a single decoded event can carry.
func (e Event) Validate() error {
	switch e.Kind {
	case KindGPS, KindRequest:
	default:
		return fmt.Errorf("serve: unknown event kind %q", e.Kind)
	}
	if e.TimeMin < 0 {
		return fmt.Errorf("serve: negative time_min %d", e.TimeMin)
	}
	if e.Kind == KindGPS && e.VehicleID < 0 {
		return fmt.Errorf("serve: negative vehicle_id %d", e.VehicleID)
	}
	if e.Kind == KindRequest && e.Region < 0 {
		return fmt.Errorf("serve: negative region %d", e.Region)
	}
	return nil
}

// ParseBatch decodes an NDJSON ingest body: one JSON event object per line,
// blank lines ignored, at most maxEvents events. The decoder is strict —
// unknown fields, unknown kinds, negative timestamps, and trailing garbage
// all fail the whole batch — because a batch is accepted or rejected
// atomically (see Server ingest): a half-valid batch must never be half
// applied. Out-of-order timestamps within and across batches are legal; the
// server folds them into a high-watermark.
//
// Each line is read by a hand-written scanner for the one object shape Event
// has (see lineScanner), which accepts exactly what encoding/json with
// DisallowUnknownFields accepts for a single object followed by nothing but
// whitespace. The only allocation on an accepted batch is the events slice,
// sized from the body's line count.
func ParseBatch(body []byte, maxEvents int) ([]Event, error) {
	if maxEvents <= 0 {
		maxEvents = DefaultMaxBatch
	}
	var events []Event
	var sc lineScanner
	lines := bytes.Count(body, []byte{'\n'}) + 1
	for lineNo := 1; len(body) > 0; lineNo++ {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		if len(events) >= maxEvents {
			return nil, fmt.Errorf("serve: batch exceeds %d events", maxEvents)
		}
		if events == nil {
			events = make([]Event, 0, min(lines, maxEvents))
		}
		events = append(events, Event{})
		ev := &events[len(events)-1]
		if err := sc.event(line, ev); err != nil {
			return nil, fmt.Errorf("serve: line %d: %w", lineNo, err)
		}
		if err := ev.Validate(); err != nil {
			return nil, fmt.Errorf("serve: line %d: %w", lineNo, err)
		}
	}
	return events, nil
}

// Event fields in the order of the struct, as the scanner numbers them.
const (
	fieldKind = iota
	fieldTimeMin
	fieldVehicleID
	fieldLng
	fieldLat
	fieldSpeedKmh
	fieldOccupied
	fieldRegion
)

// fieldNames are Event's JSON keys, indexed by the field constants.
var fieldNames = [...]string{"kind", "time_min", "vehicle_id", "lng", "lat", "speed_kmh", "occupied", "region"}

// lookupField maps a decoded key to its field the way encoding/json does: an
// exact match first, then a case-insensitive one under Unicode simple
// folding (so "KIND" and "\u212aind", with a Kelvin sign, name kind too).
// It returns -1 for an unknown key.
func lookupField(key []byte) int {
	for f := range fieldNames {
		if string(key) == fieldNames[f] {
			return f
		}
	}
	for f := range fieldNames {
		if bytes.EqualFold(key, []byte(fieldNames[f])) {
			return f
		}
	}
	return -1
}

// lineScanner decodes one trimmed NDJSON line into an Event. The grammar is
// RFC 8259's for a single object whose members are Event's fields:
//
//   - whitespace between tokens is space, tab or carriage return;
//   - kind takes a string, with every JSON escape and surrogate pairs
//     decoded; a lone surrogate or invalid UTF-8 reads as U+FFFD;
//   - time_min, vehicle_id and region take an integer literal that fits an
//     int: a fraction, an exponent or an overflow is an error;
//   - lng, lat and speed_kmh take a number literal read by
//     strconv.ParseFloat, which rejects ±Inf overflow;
//   - occupied takes true or false;
//   - null leaves any field unchanged, and a repeated key overwrites the
//     earlier value;
//   - nothing but whitespace may follow the closing brace.
//
// A value of the wrong type, including any nested object or array, is an
// error, as is a key that names no field.
type lineScanner struct {
	b   []byte // the line
	i   int    // read offset into b
	buf []byte // decoded form of the last string that needed unescaping
}

func (s *lineScanner) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: "+format, append([]any{s.i}, args...)...)
}

// skipSpace advances past JSON whitespace.
func (s *lineScanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// consume advances past c if it is the next byte.
func (s *lineScanner) consume(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// literal advances past lit if the input continues with it.
func (s *lineScanner) literal(lit string) bool {
	if bytes.HasPrefix(s.b[s.i:], []byte(lit)) {
		s.i += len(lit)
		return true
	}
	return false
}

// event decodes line into ev.
func (s *lineScanner) event(line []byte, ev *Event) error {
	s.b, s.i = line, 0
	s.skipSpace()
	if !s.consume('{') {
		return s.errorf("event is not a JSON object")
	}
	s.skipSpace()
	if !s.consume('}') {
		for {
			if s.i >= len(s.b) || s.b[s.i] != '"' {
				return s.errorf("expected a quoted field name")
			}
			key, err := s.str()
			if err != nil {
				return err
			}
			f := lookupField(key)
			if f < 0 {
				return s.errorf("unknown field %q", key)
			}
			s.skipSpace()
			if !s.consume(':') {
				return s.errorf("expected ':' after field name")
			}
			s.skipSpace()
			if err := s.value(f, ev); err != nil {
				return err
			}
			s.skipSpace()
			if s.consume('}') {
				break
			}
			if !s.consume(',') {
				return s.errorf("expected ',' or '}' after field value")
			}
			s.skipSpace()
		}
	}
	s.skipSpace()
	if s.i != len(s.b) {
		return s.errorf("trailing data after event object")
	}
	return nil
}

// value decodes the value of field f into ev.
func (s *lineScanner) value(f int, ev *Event) error {
	if s.literal("null") {
		return nil
	}
	var err error
	switch f {
	case fieldKind:
		if s.i >= len(s.b) || s.b[s.i] != '"' {
			return s.errorf("kind is not a string")
		}
		var v []byte
		if v, err = s.str(); err != nil {
			return err
		}
		switch string(v) {
		case KindGPS:
			ev.Kind = KindGPS
		case KindRequest:
			ev.Kind = KindRequest
		default:
			ev.Kind = string(v) // Validate rejects it unless a later key overwrites it
		}
	case fieldTimeMin:
		ev.TimeMin, err = s.integer()
	case fieldVehicleID:
		ev.VehicleID, err = s.integer()
	case fieldRegion:
		ev.Region, err = s.integer()
	case fieldLng:
		ev.Lng, err = s.float()
	case fieldLat:
		ev.Lat, err = s.float()
	case fieldSpeedKmh:
		ev.SpeedKmh, err = s.float()
	case fieldOccupied:
		switch {
		case s.literal("true"):
			ev.Occupied = true
		case s.literal("false"):
			ev.Occupied = false
		default:
			return s.errorf("occupied is not a boolean")
		}
	}
	return err
}

// number scans a JSON number literal and reports whether it is an integer:
// no fraction and no exponent.
func (s *lineScanner) number() (lit []byte, integral bool, err error) {
	b, i := s.b, s.i
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return nil, false, s.errorf("expected a number")
	}
	integral = true
	if i < len(b) && b[i] == '.' {
		i++
		integral = false
		if !digits() {
			return nil, false, s.errorf("expected a digit after the decimal point")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		integral = false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false, s.errorf("expected a digit in the exponent")
		}
	}
	lit, s.i = b[s.i:i], i
	return lit, integral, nil
}

// integer reads an integer literal that fits an int.
func (s *lineScanner) integer() (int, error) {
	lit, integral, err := s.number()
	if err != nil {
		return 0, err
	}
	if !integral {
		return 0, s.errorf("number %s is not an integer", lit)
	}
	v, err := strconv.ParseInt(string(lit), 10, 0)
	if err != nil {
		return 0, s.errorf("number %s overflows int", lit)
	}
	return int(v), nil
}

// float reads a number literal as a float64.
func (s *lineScanner) float() (float64, error) {
	lit, _, err := s.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, s.errorf("number %s is out of float64 range", lit)
	}
	return v, nil
}

// str reads the JSON string that starts at the read offset and returns its
// decoded bytes, valid only until the next call. A string of printable
// ASCII without escapes is returned in place; any other is decoded into
// s.buf the way encoding/json unquotes it.
func (s *lineScanner) str() ([]byte, error) {
	b := s.b
	start := s.i + 1
	i := start
	for i < len(b) {
		c := b[i]
		if c == '"' {
			s.i = i + 1
			return b[start:i], nil
		}
		if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			break
		}
		i++
	}
	out := append(s.buf[:0], b[start:i]...)
	for {
		if i >= len(b) {
			s.i = i
			return nil, s.errorf("unterminated string")
		}
		switch c := b[i]; {
		case c == '"':
			s.i, s.buf = i+1, out
			return out, nil
		case c < ' ':
			s.i = i
			return nil, s.errorf("control character %#02x in string", c)
		case c < utf8.RuneSelf && c != '\\':
			out = append(out, c)
			i++
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(b[i:])
			out = utf8.AppendRune(out, r)
			i += size
		case i+1 < len(b) && b[i+1] == 'u':
			r := hex4(b[i:])
			if r < 0 {
				s.i = i
				return nil, s.errorf("invalid \\u escape")
			}
			i += 6
			if utf16.IsSurrogate(r) {
				// A high surrogate directly followed by a low one is one
				// rune; any other surrogate reads as U+FFFD and the next
				// escape is decoded on its own.
				if pair := utf16.DecodeRune(r, hex4(b[i:])); pair != utf8.RuneError {
					r = pair
					i += 6
				} else {
					r = utf8.RuneError
				}
			}
			out = utf8.AppendRune(out, r)
		default:
			var e byte
			if i+1 < len(b) {
				e = unescape[b[i+1]]
			}
			if e == 0 {
				s.i = i
				return nil, s.errorf("invalid escape in string")
			}
			out = append(out, e)
			i += 2
		}
	}
}

// unescape maps the byte after a backslash to the byte it stands for; 0
// marks an invalid escape (\u is decoded separately).
var unescape = [256]byte{
	'"': '"', '\\': '\\', '/': '/',
	'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t',
}

// hex4 decodes a \uXXXX escape at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// EncodeBatch renders events as the NDJSON body ParseBatch reads back.
func EncodeBatch(events []Event) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}
