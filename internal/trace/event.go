package trace

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// EventKind labels one kind of simulator event in the structured event log.
// The log is the canonical behavioral record of a run: every state change
// that matters to the evaluation (matches, trips, charging, queueing,
// perturbations) appears as one Event, and the golden-trace harness pins the
// byte encoding of the whole stream, so any drift in sim/policy/station/
// energy behavior is caught at byte granularity.
type EventKind uint8

// Event kinds. New kinds must be appended (the numeric value is part of the
// on-disk digest contract) and registered in kindNames.
const (
	// EvPickup: a taxi picked up a passenger. A=destination region,
	// V=fare (CNY).
	EvPickup EventKind = iota
	// EvDropoff: a trip ended. Region is the drop-off region.
	EvDropoff
	// EvMove: a displacement action moved a taxi. Region is the origin,
	// A=destination region.
	EvMove
	// EvChargeSeek: a taxi left to charge. A=target station.
	EvChargeSeek
	// EvQueue: a taxi joined a station's waiting queue. A=station.
	EvQueue
	// EvPlug: a taxi plugged in (on arrival or promoted from the queue).
	// A=station.
	EvPlug
	// EvUnplug: a charging session finished. A=station, V=energy (kWh).
	EvUnplug
	// EvBalk: a taxi diverted from a hopeless or closed station. A=station
	// balked at, B=new target station (-1: waiting in place to retry).
	EvBalk
	// EvOutage: a station closed (B=1) or reopened (B=0) to new arrivals.
	// A=station.
	EvOutage
	// EvDerate: a station's unavailable-point count changed. A=station,
	// B=new derate.
	EvDerate
	// EvReplan: a queued taxi was evicted by a station closure and re-planned.
	// A=closed station, B=new target station (-1: waiting in place).
	EvReplan
	numEventKinds
)

// kindNames is the canonical text label of each kind; labels are part of the
// byte-stable encoding and must never change for existing kinds.
var kindNames = [numEventKinds]string{
	"pickup", "dropoff", "move", "charge-seek", "queue", "plug", "unplug",
	"balk", "outage", "derate", "replan",
}

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// kindByName inverts kindNames.
var kindByName = func() map[string]EventKind {
	m := make(map[string]EventKind, numEventKinds)
	for i, n := range kindNames {
		m[n] = EventKind(i)
	}
	return m
}()

// Event is one row of the structured event log. Fields that do not apply to
// a kind are -1 (Taxi, Region, A, B) or 0 (V); the per-kind meaning of A, B,
// and V is documented on the kind constants.
type Event struct {
	TimeMin int // absolute simulation minute
	Taxi    int // taxi ID, -1 when not taxi-scoped
	Region  int // region ID, -1 when not region-scoped
	Kind    EventKind
	A, B    int     // kind-specific integer payload
	V       float64 // kind-specific float payload
}

// appendEvent appends the canonical one-line encoding of ev:
//
//	kind|time|taxi|region|a|b|v\n
//
// Integers are base-10, V uses strconv's shortest 'g' form, so the encoding
// of a given event is a single fixed byte string on every platform.
func appendEvent(dst []byte, ev Event) []byte {
	dst = append(dst, ev.Kind.String()...)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(ev.TimeMin), 10)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(ev.Taxi), 10)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(ev.Region), 10)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(ev.A), 10)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(ev.B), 10)
	dst = append(dst, '|')
	dst = strconv.AppendFloat(dst, ev.V, 'g', -1, 64)
	return append(dst, '\n')
}

// EncodeEvents writes the canonical encoding of events to w. Encoding the
// same slice always produces the same bytes.
func EncodeEvents(w io.Writer, events []Event) error {
	var buf []byte
	for _, ev := range events {
		if int(ev.Kind) >= len(kindNames) {
			return fmt.Errorf("trace: unknown event kind %d", int(ev.Kind))
		}
		buf = appendEvent(buf[:0], ev)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// parseEventLine decodes one canonical event line (without trailing newline).
func parseEventLine(lineNo int, line string) (Event, error) {
	var ev Event
	parts := strings.Split(line, "|")
	if len(parts) != 7 {
		return ev, fmt.Errorf("trace: event line %d has %d fields, want 7", lineNo, len(parts))
	}
	kind, ok := kindByName[parts[0]]
	if !ok {
		return ev, fmt.Errorf("trace: event line %d has unknown kind %q", lineNo, parts[0])
	}
	ev.Kind = kind
	ints := []struct {
		dst *int
		idx int
	}{
		{&ev.TimeMin, 1}, {&ev.Taxi, 2}, {&ev.Region, 3}, {&ev.A, 4}, {&ev.B, 5},
	}
	var err error
	for _, fd := range ints {
		if *fd.dst, err = strconv.Atoi(parts[fd.idx]); err != nil {
			return ev, fmt.Errorf("trace: event line %d field %d: %w", lineNo, fd.idx, err)
		}
	}
	if ev.V, err = strconv.ParseFloat(parts[6], 64); err != nil {
		return ev, fmt.Errorf("trace: event line %d value: %w", lineNo, err)
	}
	return ev, nil
}

// DecodeEvents reads a canonical event stream written by EncodeEvents. It is
// the strict inverse: DecodeEvents(EncodeEvents(x)) == x for any valid x, and
// malformed input returns an error, never panics.
func DecodeEvents(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		ev, err := parseEventLine(lineNo, line)
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: event stream: %w", err)
	}
	return out, nil
}

// DigestEvents returns the hex SHA-256 of the canonical encoding of events —
// the committed fingerprint the golden-trace harness compares against.
func DigestEvents(events []Event) string {
	h := sha256.New()
	var buf []byte
	for _, ev := range events {
		buf = appendEvent(buf[:0], ev)
		_, _ = h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}
