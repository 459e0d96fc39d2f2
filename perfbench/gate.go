package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strconv"

	fairmove "repro"
	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/sim"
)

// gate collects the correctness checks of one run. A run with any failed
// check prints "correct": false.
type gate struct {
	failures []string
	passed   int
}

func (g *gate) fail(format string, args ...any) {
	g.failures = append(g.failures, fmt.Sprintf(format, args...))
}

// check records a named condition and prints its outcome.
func (g *gate) check(ok bool, format string, args ...any) {
	if ok {
		g.passed++
		fmt.Printf("check ok: %s\n", fmt.Sprintf(format, args...))
		return
	}
	g.fail(format, args...)
}

// equal checks that two digests (or any two canonical strings) agree.
func (g *gate) equal(what, want, got string) {
	g.check(want == got && want != "", "%s: %s == %s", what, short(want), short(got))
}

func (g *gate) ok() bool { return len(g.failures) == 0 && g.passed > 0 }

func short(s string) string {
	if len(s) > 16 {
		return s[:16]
	}
	return s
}

// decisionDigest digests a decision stream one slot at a time, in the
// service's canonical line format, slot|taxi|region|action, so the result is
// comparable with Server.DigestState; streaming it spares holding every
// decision of a paper-fleet run, as serve.DigestDecisions would. It also checks each slot's shape
// against the taxis that were vacant when the slot was decided: exactly one
// decision per vacant taxi, in VacantTaxis order, each stamped with the slot.
type decisionDigest struct {
	h         hash.Hash
	line      []byte
	slots     int
	decisions int
	bad       []string
}

func newDecisionDigest() *decisionDigest { return &decisionDigest{h: sha256.New()} }

func (d *decisionDigest) add(slot int, vacant []int, ds []policy.Decision) {
	d.slots++
	d.decisions += len(ds)
	if len(ds) != len(vacant) && len(d.bad) < 5 {
		d.bad = append(d.bad, fmt.Sprintf("slot %d: %d decisions for %d vacant taxis", slot, len(ds), len(vacant)))
	}
	for i, dec := range ds {
		if dec.Slot != slot || i >= len(vacant) || dec.Taxi != vacant[i] {
			if len(d.bad) < 5 {
				d.bad = append(d.bad, fmt.Sprintf("slot %d: decision %d %+v is not for the %d-th vacant taxi or mis-stamped", slot, i, dec, i))
			}
		}
		d.line = strconv.AppendInt(d.line[:0], int64(dec.Slot), 10)
		d.line = append(d.line, '|')
		d.line = strconv.AppendInt(d.line, int64(dec.Taxi), 10)
		d.line = append(d.line, '|')
		d.line = strconv.AppendInt(d.line, int64(dec.Region), 10)
		d.line = append(d.line, '|')
		d.line = append(d.line, dec.Action.String()...)
		d.line = append(d.line, '\n')
		d.h.Write(d.line)
	}
}

func (d *decisionDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// requestLedger is the accounting both engines expose for the conservation
// invariant; declared here because the benchmark is its only consumer.
type requestLedger interface {
	GeneratedRequests() int
	PendingRequests() int
}

// ledger checks request conservation, served + expired + pending =
// generated, across the evaluation warm-up boundary, where the engine
// clears its Results but keeps counting generated requests: it snapshots
// the ledger right after the boundary slot, and requests generated before
// it then count only if they were still pending there.
type ledger struct {
	warmupEnd   int // absolute minute at which Results are cleared
	genB, pendB int
}

func newLedger(warmupDays int) *ledger { return &ledger{warmupEnd: warmupDays * 24 * 60} }

// afterSlot is called between slots, while nothing steps env, with the
// engine's clock after the slot just closed.
func (l *ledger) afterSlot(env sim.Environment, now int) {
	if now != l.warmupEnd {
		return
	}
	if rl, ok := env.(requestLedger); ok {
		l.genB, l.pendB = rl.GeneratedRequests(), rl.PendingRequests()
	}
}

// check applies the invariant to an environment nobody steps any more and
// returns the requests served and generated since the boundary.
func (l *ledger) check(g *gate, env sim.Environment) (served, generated int) {
	res := env.Results()
	rl, ok := env.(requestLedger)
	if !ok {
		g.fail("environment %T exposes no request ledger", env)
		return res.ServedRequests, 0
	}
	generated = rl.GeneratedRequests() - l.genB
	pending := rl.PendingRequests()
	g.check(res.ServedRequests+res.UnservedRequests+pending == generated+l.pendB && generated > 0,
		"request conservation: served %d + expired %d + pending %d = %d generated + %d pending at the warm-up boundary",
		res.ServedRequests, res.UnservedRequests, pending, generated, l.pendB)
	return res.ServedRequests, generated
}

// replay is an untimed in-process run of the slots a service served.
type replay struct {
	dig *decisionDigest
	env sim.Environment
	led *ledger
}

// replayServed steps total slots of the same (policy, city, seed) through a
// policy.Runner on a fresh evaluation environment, outside every timed
// window, digesting each slot's decisions against the taxis vacant when it
// was decided and keeping the request ledger between slots. It is the outside
// reference a service's digest is checked against: with equal digests the
// served stream is the replayed one, slot for slot.
func replayServed(s *fairmove.System, pol policy.Policy, seed int64, total int) *replay {
	env := s.EvalEnv()
	env.SetTelemetry(nil)
	rp := &replay{dig: newDecisionDigest(), env: env, led: newLedger(s.EvalOptions().WarmupDays)}
	r := policy.NewRunner(pol, env, seed)
	var vacant []int
	for i := 0; i < total && !r.Done(); i++ {
		slot := env.Slot()
		vacant = append(vacant[:0], env.VacantTaxis()...) // borrowed until Step
		rp.dig.add(slot, vacant, r.StepSlot())
		rp.led.afterSlot(env, env.Now())
	}
	return rp
}

// checkServed applies the correctness gate to a drained service that served
// total slots of pol at seed: its digest and counts must equal an untimed
// replay's, every slot must carry one decision per vacant taxi, and requests
// must be conserved. It returns the requests served and generated after the
// warm-up boundary.
func checkServed(g *gate, name string, srv *serve.Server, s *fairmove.System, pol policy.Policy, seed int64, total int, traced bool) (served, generated int) {
	slots, decisions, digest := srv.DigestState()
	fmt.Printf("digest %s seed %d traced %t: %s (%d slots, %d decisions)\n", name, seed, traced, digest, slots, decisions)
	rp := replayServed(s, pol, seed, total)
	g.equal("served decision digest equals an untimed in-process policy.Runner replay (serve≡batch)", rp.dig.sum(), digest)
	g.check(slots == total && rp.dig.slots == total && decisions == rp.dig.decisions,
		"slot and decision counts: served %d/%d, replayed %d/%d, want %d slots", slots, decisions, rp.dig.slots, rp.dig.decisions, total)
	g.check(len(rp.dig.bad) == 0, "one decision per vacant taxi in each of %d slots, in VacantTaxis order, stamped with its slot %v", rp.dig.slots, rp.dig.bad)
	return rp.led.check(g, rp.env)
}
