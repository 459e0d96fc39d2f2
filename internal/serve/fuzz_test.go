package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/synth"
)

// fuzzSrv is one shared server per fuzz worker process: the target exercises
// the full HTTP ingest path (body limits, NDJSON parsing, batch admission,
// watermark absorption) against a live driver, so crashes anywhere in that
// stack surface as fuzz failures.
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
	fuzzMux  http.Handler
)

func fuzzServer() (*Server, http.Handler) {
	fuzzOnce.Do(func() {
		city, err := synth.Build(synth.MicroConfig(1234))
		if err != nil {
			panic(err)
		}
		env := sim.New(city, sim.DefaultOptions(1), 1234)
		fuzzSrv, err = New(Config{Env: env, Policy: policy.NewGroundTruth(), Seed: 1234, QueueCap: 1 << 16})
		if err != nil {
			panic(err)
		}
		fuzzSrv.Start()
		fuzzMux = fuzzSrv.Handler()
	})
	return fuzzSrv, fuzzMux
}

// FuzzHTTPIngest throws arbitrary bodies — malformed JSON, truncated
// batches, out-of-order and negative timestamps, unknown fields, oversized
// lines — at POST /ingest and checks the protocol invariants:
//
//   - the handler never panics and always answers one of its documented
//     statuses (202, 400, 413, 429, 503)
//   - a 202 implies the body was a valid batch (ParseBatch agrees)
//   - an invalid batch is never admitted: ParseBatch failure implies 400/413
//   - every response body is valid JSON
//   - the server's watermark never decreases (out-of-order input is legal
//     and folded into a high-watermark)
func FuzzHTTPIngest(f *testing.F) {
	f.Add([]byte(`{"kind":"gps","time_min":10,"vehicle_id":3,"lng":114.1,"lat":22.6,"speed_kmh":30,"occupied":true}`))
	f.Add([]byte(`{"kind":"request","time_min":7,"region":4}`))
	f.Add([]byte(`{"kind":"gps","time_min":50,"vehicle_id":1}` + "\n" + `{"kind":"request","time_min":3,"region":0}`))
	f.Add([]byte("\n\n{\"kind\":\"gps\",\"time_min\":1}\n\n"))
	f.Add([]byte(`{"kind":"gps","time_min":1,"vehicle_id"`)) // truncated mid-key
	f.Add([]byte(`{"kind":"warp","time_min":1}`))
	f.Add([]byte(`{"kind":"gps","time_min":-5}`))
	f.Add([]byte(`{"kind":"request","time_min":2,"region":-1}`))
	f.Add([]byte(`{"kind":"gps","time_min":1} trailing garbage`))
	f.Add([]byte(`{"kind":"gps","time_min":1}}`))
	f.Add([]byte(`{"kind":"gps","time_min":1}]`))
	f.Add([]byte(`{"kind":"gps","time_min":1} }`))
	f.Add([]byte(`{"kind":"gps","time_min":1,"bogus_field":9}`))
	f.Add([]byte(`{"kind":"gps","time_min":99999999999999999999}`)) // number overflow
	f.Add([]byte(`[{"kind":"gps","time_min":1}]`))                  // array, not NDJSON
	f.Add([]byte{0xff, 0xfe, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, body []byte) {
		srv, mux := fuzzServer()
		before := srv.Watermark()
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)

		code := rec.Code
		switch code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("undocumented status %d for body %q", code, body)
		}
		_, parseErr := ParseBatch(body, DefaultMaxBatch)
		if code == http.StatusAccepted && parseErr != nil {
			t.Fatalf("admitted a batch ParseBatch rejects (%v): %q", parseErr, body)
		}
		if parseErr != nil && code != http.StatusBadRequest && code != http.StatusRequestEntityTooLarge {
			t.Fatalf("invalid batch (%v) answered %d, want 400/413: %q", parseErr, code, body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("response body is not JSON: %q", rec.Body.Bytes())
		}
		if after := srv.Watermark(); after < before {
			t.Fatalf("watermark went backwards: %d -> %d", before, after)
		}
	})
}

// FuzzParseBatch round-trips: any batch ParseBatch accepts must re-encode
// via EncodeBatch and parse again to the same events — the decode side of
// the client/server wire contract.
func FuzzParseBatch(f *testing.F) {
	f.Add([]byte(`{"kind":"gps","time_min":10,"vehicle_id":3}`))
	f.Add([]byte(`{"kind":"request","time_min":7,"region":4}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		events, err := ParseBatch(body, 64)
		if err != nil {
			return
		}
		enc, err := EncodeBatch(events)
		if err != nil {
			t.Fatalf("accepted batch failed to re-encode: %v", err)
		}
		again, err := ParseBatch(enc, 64)
		if err != nil {
			t.Fatalf("re-encoded batch failed to parse: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip changed batch size: %d -> %d", len(events), len(again))
		}
		for i := range events {
			if events[i] != again[i] {
				t.Fatalf("event %d changed in round trip: %+v -> %+v", i, events[i], again[i])
			}
		}
	})
}

// referenceParseBatch is ParseBatch's grammar written with encoding/json,
// the oracle FuzzParseBatchMatchesJSON compares against: one Decoder per
// trimmed line with DisallowUnknownFields, then Validate, and nothing but
// whitespace after the object.
func referenceParseBatch(body []byte, maxEvents int) ([]Event, error) {
	var events []Event
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
			return nil, fmt.Errorf("line %d: batch exceeds %d events", lineNo, maxEvents)
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if rest := bytes.TrimLeft(line[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
			return nil, fmt.Errorf("line %d: trailing data %q", lineNo, rest)
		}
		if err := ev.Validate(); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		events = append(events, ev)
	}
	return events, nil
}

// sameEvent compares two events field by field, floats by their bits so
// that -0 and 0 differ.
func sameEvent(a, b Event) bool {
	return a.Kind == b.Kind && a.TimeMin == b.TimeMin && a.VehicleID == b.VehicleID &&
		math.Float64bits(a.Lng) == math.Float64bits(b.Lng) &&
		math.Float64bits(a.Lat) == math.Float64bits(b.Lat) &&
		math.Float64bits(a.SpeedKmh) == math.Float64bits(b.SpeedKmh) &&
		a.Occupied == b.Occupied && a.Region == b.Region
}

// parseBatchMatchesJSONSeeds are bodies at the edges of the grammar: key
// folding, duplicates, null, number forms at the int and float limits,
// string escapes, and the bytes bytes.TrimSpace strips around a line.
var parseBatchMatchesJSONSeeds = []string{
	`{"kind":"gps","time_min":10,"vehicle_id":3,"lng":114.1,"lat":22.6,"speed_kmh":30,"occupied":true}`,
	`{"kind":"request","time_min":7,"region":4}`,
	`{"KIND":"gps","Time_Min":1,"VEHICLE_ID":2}`,
	"{\"\\u212aind\":\"gps\",\"time_min\":1}",
	"{\"\u212aind\":\"gps\",\"time_min\":1}",
	"{\"kind\":\"gps\",\"time_min\":1,\"\u017fpeed_kmh\":4}",
	`{"kind":"warp","kind":"gps","time_min":1,"time_min":2}`,
	`{"kind":"gps","kind":"warp","time_min":1}`,
	`{"kind":"gps","time_min":3,"time_min":null,"lng":null,"occupied":null,"kind":null}`,
	`null`,
	`{}`,
	`{"kind":"gps","time_min":-0,"lng":-0,"lat":-0.0,"speed_kmh":0e0}`,
	`{"kind":"gps","time_min":1.0}`,
	`{"kind":"gps","time_min":1e1}`,
	`{"kind":"gps","time_min":9223372036854775807}`,
	`{"kind":"gps","time_min":9223372036854775808}`,
	`{"kind":"request","time_min":1,"region":-9223372036854775808}`,
	`{"kind":"request","time_min":1,"region":-9223372036854775809}`,
	`{"kind":"gps","time_min":1,"lng":1e400}`,
	`{"kind":"gps","time_min":1,"lng":-1e400}`,
	`{"kind":"gps","time_min":1,"lat":1e-400}`,
	`{"kind":"gps","time_min":1,"lat":4.9e-324,"lng":1.7976931348623157e308}`,
	`{"kind":"gps","time_min":01}`,
	`{"kind":"gps","time_min":1,"lng":.5}`,
	`{"kind":"gps","time_min":1,"lng":1.}`,
	`{"kind":"gps","time_min":1,"lng":+1}`,
	`{"kind":"gps","time_min":1,"lng":1E+2,"lat":1e-2}`,
	`{"kind":"g\u0070s","time_min":1}`,
	`{"kind":"\u0067\u0050s","time_min":1}`,
	`{"kind":"gps\ud800","time_min":1}`,
	`{"kind":"\ud83d\ude95","kind":"gps","time_min":1}`,
	`{"kind":"\udc00\ud800","kind":"request","time_min":1}`,
	`{"kind":"\ud800\u0041","time_min":1}`,
	`{"kind":"\ud800\uZZZZ","time_min":1}`,
	`{"kind":"\"\\\/\b\f\n\r\t","kind":"gps","time_min":1}`,
	`{"kind":"\x","time_min":1}`,
	`{"kind":"\'","time_min":1}`,
	"{\"kind\":\"g\tps\",\"time_min\":1}",
	"{\"kind\":\"gps\",\"time_min\":1,\x01}",
	"{\"kind\":\"gps\xff\",\"kind\":\"gps\",\"time_min\":1}",
	"{\"kind\":\"gps\",\"time_min\":1}\r\n{\"kind\":\"request\",\"time_min\":2}\r\n",
	"\f{\"kind\":\"gps\",\"time_min\":1}\v",
	"\u00a0{\"kind\":\"gps\",\"time_min\":1}\u00a0",
	"\u0085{\"kind\":\"gps\",\"time_min\":1}\u2028",
	"{\"kind\":\"gps\",\f\"time_min\":1}",
	"{ \"kind\" :\t\"gps\" ,\r\"time_min\" : 1 }",
	`{"kind":"gps","time_min":1}}`,
	`{"kind":"gps","time_min":1}]`,
	`{"kind":"gps","time_min":1} }`,
	`{"kind":"gps","time_min":1}{}`,
	`{"kind":"gps","time_min":1,}`,
	`{"kind":"gps","time_min":1,"occupied":truex}`,
	`{"kind":"gps","time_min":1,"occupied":"true"}`,
	`{"kind":"gps","time_min":"1"}`,
	`{"kind":"gps","time_min":1,"lng":{}}`,
	`{"kind":"gps","time_min":1,"lng":[1]}`,
	`{"kind":["gps"],"time_min":1}`,
	`{"kind":"gps","time_min":1,"extra":null}`,
	`{"kind":"gps" "time_min":1}`,
	`["kind","gps"]`,
	`"gps"`,
}

// FuzzParseBatchMatchesJSON checks ParseBatch against referenceParseBatch:
// the same bodies are accepted, and accepted batches decode to the same
// events bit for bit.
func FuzzParseBatchMatchesJSON(f *testing.F) {
	for _, s := range parseBatchMatchesJSONSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		const maxEvents = 8
		got, gotErr := ParseBatch(body, maxEvents)
		want, wantErr := referenceParseBatch(body, maxEvents)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("ParseBatch error %v, encoding/json error %v, body %q", gotErr, wantErr, body)
		}
		if len(got) != len(want) {
			t.Fatalf("ParseBatch decoded %d events, encoding/json %d, body %q", len(got), len(want), body)
		}
		for i := range got {
			if !sameEvent(got[i], want[i]) {
				t.Fatalf("event %d: ParseBatch %+v, encoding/json %+v, body %q", i, got[i], want[i], body)
			}
		}
	})
}
