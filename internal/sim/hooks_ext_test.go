package sim

// Extended-hook fault-injection tests: the optional ExtendedHooks tier
// (weather speed scaling, TOU tariff shifts, shift-change off-duty
// windows, battery-cohort consumption factors) exercised in isolation
// through a stub, mirroring hooks_test.go for the base tier.

import (
	"math"
	"testing"

	"repro/internal/synth"
	"repro/internal/trace"
)

// extStubHooks layers the extended methods over stubHooks; nil fields mean
// "identity" so each channel can be perturbed alone.
type extStubHooks struct {
	stubHooks
	speed       func(region, minute int) float64
	tariff      func(minute int) float64
	offDuty     func(taxi, minute int) bool
	consumption func(taxi int) float64
}

func (h extStubHooks) SpeedScale(r, m int) float64 {
	if h.speed == nil {
		return 1
	}
	return h.speed(r, m)
}

func (h extStubHooks) TariffScale(m int) float64 {
	if h.tariff == nil {
		return 1
	}
	return h.tariff(m)
}

func (h extStubHooks) OffDuty(taxi, m int) bool {
	return h.offDuty != nil && h.offDuty(taxi, m)
}

func (h extStubHooks) ConsumptionFactor(taxi int) float64 {
	if h.consumption == nil {
		return 1
	}
	return h.consumption(taxi)
}

var _ ExtendedHooks = extStubHooks{}

func extTestEnv(t *testing.T, seed int64) *Core {
	t.Helper()
	city, err := synth.Build(synth.TestConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return New(city, DefaultOptions(1), seed)
}

// Installing extended hooks that answer only identities must not perturb
// the trajectory: the trace digest equals a plain unhooked run's digest.
func TestExtendedIdentityHooksAreTransparent(t *testing.T) {
	digest := func(h Hooks) string {
		e := extTestEnv(t, 31)
		var events []trace.Event
		e.SetRecorder(func(ev trace.Event) { events = append(events, ev) })
		if h != nil {
			e.SetHooks(h)
		}
		runStay(e)
		return trace.DigestEvents(events)
	}
	plain := digest(nil)
	if got := digest(extStubHooks{}); got != plain {
		t.Fatalf("identity extended hooks perturbed the run: %s vs %s", got, plain)
	}
}

// A citywide slowdown must reduce served trips: every approach and the
// displacement legs take longer, so fewer matches complete per slot.
func TestSpeedScaleSlowsService(t *testing.T) {
	run := func(h Hooks) *Results {
		e := extTestEnv(t, 33)
		if h != nil {
			e.SetHooks(h)
		}
		runStay(e)
		return e.Results()
	}
	clean := run(nil)
	slowed := run(extStubHooks{speed: func(r, m int) float64 { return 0.4 }})
	if slowed.ServedRequests >= clean.ServedRequests {
		t.Fatalf("60%% slowdown served %d >= clean %d", slowed.ServedRequests, clean.ServedRequests)
	}
}

// A tariff shift scales charging cost only: the same energy flows at the
// same minutes (identical charge events), but every session costs ×2.
func TestTariffScaleScalesCostOnly(t *testing.T) {
	run := func(h Hooks) *Results {
		e := extTestEnv(t, 35)
		if h != nil {
			e.SetHooks(h)
		}
		runStay(e)
		return e.Results()
	}
	clean := run(nil)
	shifted := run(extStubHooks{tariff: func(m int) float64 { return 2 }})
	if len(shifted.ChargeStats) != len(clean.ChargeStats) {
		t.Fatalf("tariff shift changed session count: %d vs %d", len(shifted.ChargeStats), len(clean.ChargeStats))
	}
	cost := func(r *Results) (kwh, cny float64) {
		for i := range r.Accounts {
			kwh += r.Accounts[i].EnergyKWh
			cny += r.Accounts[i].ChargeCostCNY
		}
		return
	}
	ck, cc := cost(clean)
	sk, sc := cost(shifted)
	if math.Abs(sk-ck) > 1e-9 {
		t.Fatalf("tariff shift changed energy: %.6f vs %.6f kWh", sk, ck)
	}
	if cc <= 0 || math.Abs(sc-2*cc) > 1e-6*cc {
		t.Fatalf("doubled tariff cost %.6f, want 2 × %.6f", sc, cc)
	}
}

// With the whole fleet off duty all day, no requests are ever matched —
// but forced charging still runs, so nobody strands either.
func TestOffDutyExcludesFromMatching(t *testing.T) {
	e := extTestEnv(t, 37)
	for i := range e.city.Fleet {
		e.city.Fleet[i].InitialSoC = 0.25
	}
	e.SetHooks(extStubHooks{offDuty: func(taxi, m int) bool { return true }})
	runStay(e)
	res := e.Results()
	if res.ServedRequests != 0 {
		t.Fatalf("off-duty fleet served %d requests", res.ServedRequests)
	}
	if res.UnservedRequests == 0 {
		t.Fatal("no demand expired — the world generated nothing")
	}
	for i := range res.Accounts {
		if res.Accounts[i].StrandedMin > 0 {
			t.Fatalf("taxi %d stranded %.0f min: forced charging must override off-duty", i, res.Accounts[i].StrandedMin)
		}
	}
}

// A cohort consumption factor is applied once at Reset (no compounding
// across resets) and only to the cohort.
func TestConsumptionFactorAppliedAtReset(t *testing.T) {
	e := extTestEnv(t, 39)
	base := make([]float64, len(e.city.Fleet))
	for i := range e.city.Fleet {
		base[i] = e.city.NewBattery(e.city.Fleet[i]).ConsumptionPerKm
	}
	e.SetHooks(extStubHooks{consumption: func(taxi int) float64 {
		if taxi%2 == 0 {
			return 1.25
		}
		return 1
	}})
	e.Reset(39)
	e.Reset(39) // second reset must not compound the factor
	for i := range e.taxis {
		want := base[i]
		if i%2 == 0 {
			want *= 1.25
		}
		if got := e.taxis[i].batt.ConsumptionPerKm; math.Abs(got-want) > 1e-12 {
			t.Fatalf("taxi %d consumption %.9f, want %.9f", i, got, want)
		}
	}
}

// Off-duty holds surface in telemetry, and the taxis resume serving after
// the window: a half-day shift change serves strictly fewer requests than
// a clean run but strictly more than zero.
func TestShiftChangeWindowIsScoped(t *testing.T) {
	run := func(h Hooks) *Results {
		e := extTestEnv(t, 41)
		if h != nil {
			e.SetHooks(h)
		}
		runStay(e)
		return e.Results()
	}
	clean := run(nil)
	half := run(extStubHooks{offDuty: func(taxi, m int) bool { return m < 720 }})
	if half.ServedRequests == 0 || half.ServedRequests >= clean.ServedRequests {
		t.Fatalf("half-day shift change served %d (clean %d); want strictly between",
			half.ServedRequests, clean.ServedRequests)
	}
}
