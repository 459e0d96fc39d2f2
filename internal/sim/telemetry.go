package sim

import "repro/internal/telemetry"

// simTel holds the environment's pre-resolved telemetry handles. Handles are
// looked up once in SetTelemetry so the per-event cost on the hot path is a
// single atomic add (or nothing at all: nil handles no-op). Every counter
// here is a pure function of the simulation trajectory — no wall-clock, no
// RNG draws — so counts are byte-identical across worker counts and safe to
// compare in determinism tests.
type simTel struct {
	matches        *telemetry.Counter // requests matched to a taxi
	abandonments   *telemetry.Counter // requests whose patience ran out
	balks          *telemetry.Counter // hopeless-queue redirects
	queueEvictions *telemetry.Counter // queued taxis drained from a closed station
	relocations    *telemetry.Counter // Move actions executed
	chargeSessions *telemetry.Counter // completed charging sessions
	queueJoins     *telemetry.Counter // taxis entering a station queue
	outageEdges    *telemetry.Counter // station closure state transitions
	derateChanges  *telemetry.Counter // station derate level changes
	staleObs       *telemetry.Counter // observations served from the GPS-dropout cache
	offDutyHolds   *telemetry.Counter // actions overridden to Stay by a shift change
	slots          *telemetry.Counter // simulated slots stepped
	idleMin        *telemetry.Histogram
	chargeMin      *telemetry.Histogram
}

// newSimTel resolves the simulation's handles against a registry (nil
// registry yields all-nil handles, which no-op).
func newSimTel(r *telemetry.Registry) simTel {
	if r == nil {
		return simTel{}
	}
	return simTel{
		matches:        r.Counter("sim.matches"),
		abandonments:   r.Counter("sim.abandonments"),
		balks:          r.Counter("sim.balks"),
		queueEvictions: r.Counter("sim.queue_evictions"),
		relocations:    r.Counter("sim.relocations"),
		chargeSessions: r.Counter("sim.charge_sessions"),
		queueJoins:     r.Counter("sim.queue_joins"),
		outageEdges:    r.Counter("sim.hook.outage_edges"),
		derateChanges:  r.Counter("sim.hook.derate_changes"),
		staleObs:       r.Counter("sim.hook.stale_obs"),
		offDutyHolds:   r.Counter("sim.hook.off_duty_holds"),
		slots:          r.Counter("sim.slots"),
		idleMin:        r.Histogram("sim.idle_min", 0, 240, 16),
		chargeMin:      r.Histogram("sim.charge_min", 0, 240, 16),
	}
}
