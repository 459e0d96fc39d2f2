package scenario

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestParseValidSpec(t *testing.T) {
	data := []byte(`{
		"name": "demo",
		"description": "one of everything",
		"events": [
			{"kind": "station-outage", "from_min": 60, "to_min": 120, "station": 0},
			{"kind": "station-derate", "from_min": 0, "to_min": 240, "station": 1, "points": 2},
			{"kind": "demand-scale", "from_min": 420, "to_min": 600, "region": 3, "factor": 2.5},
			{"kind": "fare-shock", "from_min": 0, "to_min": 1440, "factor": 1.2},
			{"kind": "gps-dropout", "from_min": 300, "to_min": 330, "region": 1},
			{"kind": "battery-degradation", "factor": 0.8, "cohort_mod": 4, "cohort_rem": 1}
		]
	}`)
	s, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "demo" || len(s.Events) != 6 {
		t.Fatalf("parsed name=%q events=%d", s.Name, len(s.Events))
	}
}

func TestParseRejections(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"empty input", ``, "EOF"},
		{"not json", `}{`, "invalid"},
		{"missing name", `{"events": []}`, "missing name"},
		{"unknown kind", `{"name":"x","events":[{"kind":"meteor-strike"}]}`, "unknown kind"},
		{"unknown field", `{"name":"x","events":[],"nope":1}`, "unknown field"},
		{"trailing data", `{"name":"x","events":[]} {"more":1}`, "trailing data"},
		{"backwards window", `{"name":"x","events":[{"kind":"station-outage","from_min":100,"to_min":50,"station":0}]}`, "runs backwards"},
		{"negative from", `{"name":"x","events":[{"kind":"gps-dropout","from_min":-5,"to_min":5}]}`, "negative from_min"},
		{"outage without station", `{"name":"x","events":[{"kind":"station-outage","from_min":0,"to_min":10}]}`, "missing station"},
		{"negative station", `{"name":"x","events":[{"kind":"station-outage","from_min":0,"to_min":10,"station":-1}]}`, "negative station"},
		{"station on demand event", `{"name":"x","events":[{"kind":"demand-scale","from_min":0,"to_min":10,"factor":2,"station":0}]}`, "station field is not allowed"},
		{"region on station event", `{"name":"x","events":[{"kind":"station-outage","from_min":0,"to_min":10,"station":0,"region":1}]}`, "region field is not allowed"},
		{"derate without points", `{"name":"x","events":[{"kind":"station-derate","from_min":0,"to_min":10,"station":0}]}`, "points must be >= 1"},
		{"points on outage", `{"name":"x","events":[{"kind":"station-outage","from_min":0,"to_min":10,"station":0,"points":1}]}`, "points field is not allowed"},
		{"negative demand factor", `{"name":"x","events":[{"kind":"demand-scale","from_min":0,"to_min":10,"factor":-1}]}`, "factor must be >= 0"},
		{"zero battery factor", `{"name":"x","events":[{"kind":"battery-degradation","factor":0}]}`, "factor must be > 0"},
		{"battery with window", `{"name":"x","events":[{"kind":"battery-degradation","from_min":0,"to_min":60,"factor":0.8}]}`, "time windows are not supported"},
		{"cohort rem out of range", `{"name":"x","events":[{"kind":"battery-degradation","factor":0.8,"cohort_mod":3,"cohort_rem":3}]}`, "out of [0, 3)"},
		{"cohort on dropout", `{"name":"x","events":[{"kind":"gps-dropout","from_min":0,"to_min":10,"cohort_mod":2}]}`, "cohort fields are not allowed"},
		{"factor on outage", `{"name":"x","events":[{"kind":"station-outage","from_min":0,"to_min":10,"station":0,"factor":2}]}`, "factor field is not allowed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src))
			if err == nil {
				t.Fatalf("accepted invalid spec %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// Encode(Parse(x)) is a fixpoint, and authoring order does not matter: two
// permutations of the same events encode to identical canonical bytes.
func TestEncodeCanonical(t *testing.T) {
	a, err := NewBuilder("perm").
		StationOutage(2, 60, 120).
		StationOutage(0, 0, 60).
		DemandSurge(1, 0, 600, 3).
		FareShock(-1, 0, 600, 1.5).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBuilder("perm").
		FareShock(-1, 0, 600, 1.5).
		DemandSurge(1, 0, 600, 3).
		StationOutage(0, 0, 60).
		StationOutage(2, 60, 120).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	ea, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Fatalf("permuted specs encode differently:\n%s\nvs\n%s", ea, eb)
	}
	again, err := Parse(ea)
	if err != nil {
		t.Fatal(err)
	}
	ea2, err := Encode(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, ea2) {
		t.Fatal("Encode(Parse(Encode(s))) is not a fixpoint")
	}
}

// Schedule semantics, table-driven over the compiled engine.
func TestScheduleSemantics(t *testing.T) {
	t.Run("overlapping outages OR", func(t *testing.T) {
		s, err := NewBuilder("t").
			StationOutage(0, 100, 200).
			StationOutage(0, 150, 300).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(s)
		for m, want := range map[int]bool{99: false, 100: true, 175: true, 299: true, 300: false} {
			if got := e.StationClosed(0, m); got != want {
				t.Fatalf("closed(0, %d) = %v, want %v", m, got, want)
			}
		}
		if e.StationClosed(1, 150) {
			t.Fatal("outage leaked to station 1")
		}
	})

	t.Run("overlapping derates sum", func(t *testing.T) {
		s, err := NewBuilder("t").
			StationDerate(0, 1, 0, 100).
			StationDerate(0, 2, 50, 150).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(s)
		for m, want := range map[int]int{0: 1, 49: 1, 50: 3, 99: 3, 100: 2, 149: 2, 150: 0} {
			if got := e.StationDerate(0, m); got != want {
				t.Fatalf("derate(0, %d) = %d, want %d", m, got, want)
			}
		}
	})

	t.Run("overlapping scales multiply, citywide composes with regional", func(t *testing.T) {
		s, err := NewBuilder("t").
			DemandScale(-1, 0, 100, 2). // citywide
			DemandScale(3, 50, 100, 3). // region 3 only
			Build()
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(s)
		checks := []struct {
			region, minute int
			want           float64
		}{
			{0, 25, 2}, {3, 25, 2}, {0, 75, 2}, {3, 75, 6}, {3, 100, 1},
		}
		for _, c := range checks {
			if got := e.DemandScale(c.region, c.minute); math.Abs(got-c.want) > 1e-12 {
				t.Fatalf("scale(%d, %d) = %v, want %v", c.region, c.minute, got, c.want)
			}
		}
	})

	t.Run("zero-duration events are inert", func(t *testing.T) {
		s, err := NewBuilder("t").
			StationOutage(0, 100, 100).
			DemandScale(-1, 50, 50, 9).
			GPSDropout(-1, 10, 10).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(s)
		for m := 0; m < 200; m++ {
			if e.StationClosed(0, m) {
				t.Fatalf("zero-duration outage active at %d", m)
			}
			if e.DemandScale(0, m) != 1 {
				t.Fatalf("zero-duration scale active at %d", m)
			}
			if e.ObsStale(0, m) {
				t.Fatalf("zero-duration dropout active at %d", m)
			}
		}
	})

	t.Run("events past the horizon never fire", func(t *testing.T) {
		const horizon = 24 * 60
		s, err := NewBuilder("t").
			StationOutage(0, horizon+100, horizon+200).
			DemandScale(-1, horizon, 2*horizon, 5).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(s)
		for m := 0; m < horizon; m++ {
			if e.StationClosed(0, m) || e.DemandScale(0, m) != 1 {
				t.Fatalf("past-horizon event active at simulated minute %d", m)
			}
		}
	})

	t.Run("battery cohorts multiply", func(t *testing.T) {
		s, err := NewBuilder("t").
			BatteryDegradation(2, 0, 0.8). // even taxis
			BatteryDegradation(4, 0, 0.5). // every 4th taxi (also even)
			Build()
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(s)
		for taxi, want := range map[int]float64{0: 0.4, 1: 1, 2: 0.8, 3: 1, 4: 0.4} {
			if got := e.BatteryFactor(taxi); math.Abs(got-want) > 1e-12 {
				t.Fatalf("battery(%d) = %v, want %v", taxi, got, want)
			}
		}
	})

	t.Run("gps dropout region scoping", func(t *testing.T) {
		s, err := NewBuilder("t").GPSDropout(2, 100, 200).Build()
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(s)
		if !e.ObsStale(2, 150) || e.ObsStale(1, 150) || e.ObsStale(2, 200) {
			t.Fatal("dropout scoping wrong")
		}
	})
}

func TestBuilderPropagatesErrors(t *testing.T) {
	if _, err := NewBuilder("bad").StationDerate(0, 0, 0, 10).Build(); err == nil {
		t.Fatal("Build accepted a zero-point derate")
	}
	if _, err := NewBuilder("").StationOutage(0, 0, 10).Build(); err == nil {
		t.Fatal("Build accepted an unnamed spec")
	}
}
