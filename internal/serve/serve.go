// Package serve is the online dispatch service: a long-running engine that
// loads a trained policy bundle (.fmck), ingests a request/GPS event stream
// in the Section II Table I schema, advances simulation slots on a
// configurable clock or on demand, and answers per-slot displacement
// decisions over HTTP/JSON.
//
// Architecture (DESIGN.md §10). The service is a driver around the same
// pure slot loop the batch path runs — policy.Runner — over the same
// deterministic simulator (sim.New, at any shard count). The ingested feed is the service's clock and observability
// plane: the event high-watermark decides when a slot may close, exactly the
// FleetAI shape of an engine stepped by an external feed rather than an
// internal loop. Because the environment realizes the world deterministically
// from its seed (demand included), a served run is byte-identical — trace
// digest and decision digest — to a batch run of the same (policy, city,
// seed, scenario); the serve-equivalence test pins that. Assimilating feed
// demand into the twin is the named follow-up in ROADMAP.md.
//
// Contracts:
//
//   - Backpressure: ingest admission is atomic per batch against a bounded
//     queue. A batch that does not fit is rejected whole with 429 and a
//     Retry-After hint; an accepted batch is never dropped — every admitted
//     event is processed before drain completes.
//   - Hot swap: POST /policy/reload validates a candidate checkpoint into a
//     fresh learner off the driving goroutine (the checkpoint package's
//     fail-closed guarantees apply: digest, kind, fingerprint); only a fully
//     validated policy is installed, between slots. The old policy serves
//     throughout, and a failed reload leaves it untouched.
//   - Drain: Drain stops admission (503), processes every queued event,
//     finishes any slots the watermark already covers, and stops the driver.
//     Reloads during drain are refused.
//
// All environment and policy access happens on the single driver goroutine;
// HTTP handlers communicate with it through channels and read cheap
// snapshots through atomics, so the determinism contract of sim.Environment
// is never stretched. The driver's publisher goroutine builds and hashes a
// slot's decision records from the decided slot alone, while the driver
// steps the engine (DESIGN.md §10).
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Defaults for Config zero values.
const (
	DefaultQueueCap = 4096
	DefaultMaxBatch = 1024
	DefaultHistory  = 16
)

// Admission errors. Handlers map them onto HTTP statuses (429, 503).
var (
	// ErrBacklogged: the bounded ingest queue cannot hold the batch.
	ErrBacklogged = errors.New("serve: ingest queue full")
	// ErrDraining: the server no longer admits events or reloads.
	ErrDraining = errors.New("serve: draining")
)

// ReloadFunc builds and fully validates a fresh policy from a checkpoint
// path. It must not mutate the currently serving policy: implementations
// construct a new learner and decode into it (checkpoint decoding is
// all-or-nothing), so a failure leaves nothing to roll back.
type ReloadFunc func(path string) (policy.Policy, error)

// Config assembles a Server. Env and Policy are required.
type Config struct {
	// Env is the dispatch engine's environment (twin). The server owns it:
	// no other goroutine may touch it after New.
	Env sim.Environment
	// Policy makes the displacement decisions until a reload replaces it.
	Policy policy.Policy
	// Seed seeds the run (environment reset and policy episode), exactly as
	// the batch evaluation path seeds policy.Evaluate.
	Seed int64
	// QueueCap bounds the ingest queue (default DefaultQueueCap). Admission
	// beyond it backpressures with ErrBacklogged/429.
	QueueCap int
	// MaxBatch bounds events per ingest batch (default DefaultMaxBatch).
	MaxBatch int
	// History is how many recent slots of decisions stay queryable
	// (default DefaultHistory).
	History int
	// SlotEvery, when positive, also advances one slot per tick of a wall
	// clock — the "configurable clock" mode. Zero means slots advance only
	// from the feed watermark or explicit /step calls.
	SlotEvery time.Duration
	// Reload validates candidate policies for hot swap; nil disables
	// /policy/reload (405).
	Reload ReloadFunc
	// Telemetry receives the service metrics; nil creates a private registry
	// so /metrics always serves.
	Telemetry *telemetry.Registry
}

// Server is the online dispatch service. Create with New, start the driver
// with Start, mount Handler on an http.Server, and stop with Drain.
type Server struct {
	cfg        Config
	runner     *policy.Runner
	reg        *telemetry.Registry
	horizonMin int // constant after New; cached so handlers never touch Env

	// Admission: mu serializes queue-capacity checks with sends so a batch
	// is admitted atomically (the driver only ever removes, so a passed
	// check cannot be invalidated). draining flips once, under mu, and is
	// read lock-free by handlers.
	mu       sync.Mutex
	queue    chan Event
	draining atomic.Bool
	started  bool
	drainCh  chan struct{}
	stopped  chan struct{}

	// Driver requests.
	stepCh chan stepReq
	swapCh chan swapReq

	// Published state (written by the driver, read by handlers).
	slot      atomic.Int64
	nowMin    atomic.Int64
	watermark atomic.Int64
	done      atomic.Bool

	// Decision history and the digest as of the last committed slot,
	// guarded by decMu. The published clock (slot, nowMin, done) is stored
	// under decMu too, so a reader holding it sees a slot count and a
	// latest slot that agree.
	decMu     sync.RWMutex
	history   map[int][]policy.Decision
	sum       [sha256.Size]byte
	slotCount int
	decCount  int

	// Slot publication. While the driver advances the engine, the
	// publisher goroutine (started and stopped by the driver) builds the
	// decided slot's records into spare, the storage the history window
	// last evicted when it fits, and writes their digest lines, gathered
	// in lines, into the rolling digest; busy is its build time. pubIn
	// hands it a slot and pubOut returns it. The driver commits spare and
	// takes digest's sum only after that receive, so the two goroutines
	// never touch them at once, readers only see sum, and nothing is in
	// flight between slots.
	pubIn  chan policy.Decided
	pubOut chan struct{}
	spare  []policy.Decision
	digest hash.Hash
	lines  []byte
	busy   time.Duration

	met serveMetrics
}

// digestChunk is how many bytes of digest lines the publisher gathers per
// hash Write.
const digestChunk = 4096

type stepReq struct {
	slots int
	resp  chan int
}

type swapReq struct {
	pol  policy.Policy
	resp chan error
}

// serveMetrics holds the resolved telemetry handles (nil-safe).
type serveMetrics struct {
	ingestBatches  *telemetry.Counter
	ingestEvents   *telemetry.Counter
	rejectBatches  *telemetry.Counter
	rejectEvents   *telemetry.Counter
	badBatches     *telemetry.Counter
	gpsEvents      *telemetry.Counter
	requestEvents  *telemetry.Counter
	slots          *telemetry.Counter
	decisions      *telemetry.Counter
	reloadOK       *telemetry.Counter
	reloadFailed   *telemetry.Counter
	queueDepth     *telemetry.Gauge
	slotGauge      *telemetry.Gauge
	watermarkGauge *telemetry.Gauge
	stepTimer      *telemetry.Timer
	publishTimer   *telemetry.Timer
}

// New assembles a server: it resets cfg.Env with cfg.Seed and begins the
// policy's episode (via policy.Runner), so install hooks/recorders on the
// environment before calling New.
func New(cfg Config) (*Server, error) {
	if cfg.Env == nil {
		return nil, fmt.Errorf("serve: Config.Env is required")
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("serve: Config.Policy is required")
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.History <= 0 {
		cfg.History = DefaultHistory
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Server{
		cfg:     cfg,
		runner:  policy.NewRunner(cfg.Policy, cfg.Env, cfg.Seed),
		reg:     reg,
		queue:   make(chan Event, cfg.QueueCap),
		drainCh: make(chan struct{}),
		stopped: make(chan struct{}),
		stepCh:  make(chan stepReq),
		swapCh:  make(chan swapReq),
		pubIn:   make(chan policy.Decided),
		pubOut:  make(chan struct{}),
		history: make(map[int][]policy.Decision),
		sum:     sha256.Sum256(nil),
		digest:  sha256.New(),
		met: serveMetrics{
			ingestBatches:  reg.Counter("serve.ingest.batches"),
			ingestEvents:   reg.Counter("serve.ingest.events"),
			rejectBatches:  reg.Counter("serve.ingest.rejected_batches"),
			rejectEvents:   reg.Counter("serve.ingest.rejected_events"),
			badBatches:     reg.Counter("serve.ingest.bad_batches"),
			gpsEvents:      reg.Counter("serve.ingest.gps"),
			requestEvents:  reg.Counter("serve.ingest.requests"),
			slots:          reg.Counter("serve.slots"),
			decisions:      reg.Counter("serve.decisions"),
			reloadOK:       reg.Counter("serve.reload.ok"),
			reloadFailed:   reg.Counter("serve.reload.failed"),
			queueDepth:     reg.Gauge("serve.queue.depth"),
			slotGauge:      reg.Gauge("serve.slot"),
			watermarkGauge: reg.Gauge("serve.watermark_min"),
			stepTimer:      reg.Timer("serve.step"),
			publishTimer:   reg.Timer("serve.publish"),
		},
	}
	s.horizonMin = cfg.Env.HorizonMin()
	s.nowMin.Store(int64(cfg.Env.Now()))
	s.slot.Store(int64(cfg.Env.Slot()))
	s.done.Store(cfg.Env.Done())
	s.watermark.Store(-1)
	return s, nil
}

// Registry returns the server's metrics registry (the configured one, or the
// private registry New created).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Start launches the driver goroutine. Call exactly once.
func (s *Server) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		panic("serve: Start called twice")
	}
	s.started = true
	s.mu.Unlock()
	go s.loop()
}

// Drain stops admission, lets the driver process every already-admitted
// event (finishing any slots the watermark covers), and stops it. It returns
// nil once the driver has exited, or ctx.Err() on timeout. Drain is
// idempotent; concurrent calls all wait for the same shutdown.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining.Load()
	if first {
		s.draining.Store(true)
		close(s.drainCh)
		if !s.started {
			// Driver never ran: nothing to wait for.
			close(s.stopped)
		}
	}
	s.mu.Unlock()
	select {
	case <-s.stopped:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Drain has been initiated.
func (s *Server) Draining() bool { return s.draining.Load() }

// Enqueue admits a parsed batch atomically: either every event is queued or
// none is. It returns ErrDraining after Drain and ErrBacklogged when the
// bounded queue cannot hold the whole batch — the caller (the ingest
// handler, or a test driving the server directly) maps those onto 503/429.
func (s *Server) Enqueue(events []Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return ErrDraining
	}
	if len(events) > cap(s.queue)-len(s.queue) {
		s.met.rejectBatches.Inc()
		s.met.rejectEvents.Add(int64(len(events)))
		return ErrBacklogged
	}
	for _, ev := range events {
		s.queue <- ev
	}
	s.met.ingestBatches.Inc()
	s.met.ingestEvents.Add(int64(len(events)))
	s.met.queueDepth.Set(float64(len(s.queue)))
	return nil
}

// QueueDepth returns the number of admitted-but-unprocessed events.
func (s *Server) QueueDepth() int { return len(s.queue) }

// Watermark returns the highest event timestamp ingested so far (-1 before
// any event).
func (s *Server) Watermark() int { return int(s.watermark.Load()) }

// Slot returns the next slot index the engine will step.
func (s *Server) Slot() int { return int(s.slot.Load()) }

// Now returns the engine's current absolute minute.
func (s *Server) Now() int { return int(s.nowMin.Load()) }

// Done reports whether the engine has reached its horizon.
func (s *Server) Done() bool { return s.done.Load() }

// StepSlots asks the driver to advance up to n slots immediately (the
// on-demand mode) and reports how many it stepped — fewer when the horizon
// intervenes, zero after drain.
func (s *Server) StepSlots(ctx context.Context, n int) (int, error) {
	if n <= 0 {
		n = 1
	}
	req := stepReq{slots: n, resp: make(chan int, 1)}
	select {
	case s.stepCh <- req:
	case <-s.stopped:
		return 0, ErrDraining
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	select {
	case stepped := <-req.resp:
		return stepped, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// Reload validates the checkpoint at path into a fresh policy and, on
// success, installs it atomically between slots. The serving policy is
// untouched on any failure, and reloads during drain are refused.
func (s *Server) Reload(ctx context.Context, path string) error {
	if s.cfg.Reload == nil {
		return fmt.Errorf("serve: hot swap not configured")
	}
	if s.draining.Load() {
		s.met.reloadFailed.Inc()
		return ErrDraining
	}
	p, err := s.cfg.Reload(path)
	if err != nil {
		s.met.reloadFailed.Inc()
		return err
	}
	req := swapReq{pol: p, resp: make(chan error, 1)}
	select {
	case s.swapCh <- req:
	case <-s.stopped:
		s.met.reloadFailed.Inc()
		return ErrDraining
	case <-ctx.Done():
		s.met.reloadFailed.Inc()
		return ctx.Err()
	}
	select {
	case err := <-req.resp:
		if err != nil {
			s.met.reloadFailed.Inc()
		} else {
			s.met.reloadOK.Inc()
		}
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// PolicyName returns the name of the currently serving policy. It is safe
// for handlers because Policy.Name is a pure accessor on every
// implementation and swaps replace the pointer between slots.
func (s *Server) PolicyName() string {
	s.decMu.RLock()
	defer s.decMu.RUnlock()
	return s.runner.Policy().Name()
}

// --- driver goroutine ---

// loop is the driver: the only goroutine that touches the environment and
// the policy. It folds ingested events into the watermark, steps slots when
// the watermark (or the optional wall clock, or an explicit step request)
// says so, installs validated policies between slots, and on drain processes
// the remaining queue before exiting.
func (s *Server) loop() {
	defer close(s.stopped)
	go s.publisher()
	defer func() {
		close(s.pubIn)
		<-s.pubOut // closed once the publisher has exited
	}()
	var tick <-chan time.Time
	if s.cfg.SlotEvery > 0 {
		t := time.NewTicker(s.cfg.SlotEvery)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case ev := <-s.queue:
			s.absorb(ev)
			s.advance()
		case req := <-s.stepCh:
			req.resp <- s.stepN(req.slots)
		case req := <-s.swapCh:
			req.resp <- s.install(req.pol)
		case <-tick:
			s.stepN(1)
		case <-s.drainCh:
			s.drainQueue()
			return
		}
	}
}

// drainQueue empties the admitted backlog. Admission is already closed (the
// draining flag precedes closing drainCh), so the queue only shrinks.
func (s *Server) drainQueue() {
	for {
		select {
		case ev := <-s.queue:
			s.absorb(ev)
		default:
			s.advance()
			return
		}
	}
}

// absorb folds one event into the watermark and the per-kind counters.
func (s *Server) absorb(ev Event) {
	if int64(ev.TimeMin) > s.watermark.Load() {
		s.watermark.Store(int64(ev.TimeMin))
		s.met.watermarkGauge.Set(float64(ev.TimeMin))
	}
	switch ev.Kind {
	case KindGPS:
		s.met.gpsEvents.Inc()
	case KindRequest:
		s.met.requestEvents.Inc()
	}
	s.met.queueDepth.Set(float64(len(s.queue)))
}

// advance steps every slot the watermark already covers: slot [Now,
// Now+SlotLen) may close once an event at or past its end minute has been
// seen.
func (s *Server) advance() {
	for !s.runner.Done() {
		env := s.runner.Env()
		if s.watermark.Load() < int64(env.Now()+env.SlotLen()) {
			return
		}
		s.stepOnce()
	}
}

// stepN steps up to n slots regardless of the watermark (explicit /step or
// the wall clock), stopping at the horizon.
func (s *Server) stepN(n int) int {
	stepped := 0
	for i := 0; i < n && !s.runner.Done(); i++ {
		s.stepOnce()
		stepped++
	}
	return stepped
}

// stepOnce closes one slot in three steps (DESIGN.md §10): decide, then
// advance the engine while the publisher builds and hashes the slot's
// decisions, then commit them.
func (s *Server) stepOnce() {
	sw := s.met.stepTimer.Start()
	d := s.runner.Decide()
	s.pubIn <- d
	s.runner.Advance(d)
	sw.Stop()
	<-s.pubOut
	s.commit(d.Slot)
}

// publisher is the goroutine that builds each decided slot's records and
// hashes their digest lines beside the engine step. It exits, closing
// pubOut, when the driver closes pubIn.
func (s *Server) publisher() {
	defer close(s.pubOut)
	for d := range s.pubIn {
		start := time.Now()
		if cap(s.spare) < len(d.Vacant) {
			s.spare = make([]policy.Decision, 0, len(d.Vacant))
		}
		s.spare = d.AppendDecisions(s.spare[:0])
		s.lines = s.lines[:0]
		for _, dec := range s.spare {
			s.lines = appendDecision(s.lines, dec)
			if len(s.lines) >= digestChunk {
				s.digest.Write(s.lines)
				s.lines = s.lines[:0]
			}
		}
		s.digest.Write(s.lines)
		s.busy = time.Since(start)
		s.pubOut <- struct{}{}
	}
}

// commit publishes the slot the publisher just built: the history entry
// (recycling the storage of the slot it evicts as the next spare), the
// digest's sum, the counters and the published clock.
func (s *Server) commit(slot int) {
	start := time.Now()
	ds := s.spare
	env := s.runner.Env()
	s.decMu.Lock()
	evicted := s.history[slot-s.cfg.History]
	delete(s.history, slot-s.cfg.History)
	s.history[slot] = ds
	s.spare = evicted[:0]
	s.digest.Sum(s.sum[:0]) // appends within sum's own 32 bytes
	s.slotCount++
	s.decCount += len(ds)
	s.slot.Store(int64(env.Slot()))
	s.nowMin.Store(int64(env.Now()))
	s.done.Store(env.Done())
	s.decMu.Unlock()

	s.met.slots.Inc()
	s.met.decisions.Add(int64(len(ds)))
	s.met.slotGauge.Set(float64(env.Slot()))
	s.met.publishTimer.Observe(s.busy + time.Since(start))
}

// install swaps the serving policy between slots.
func (s *Server) install(p policy.Policy) error {
	s.decMu.Lock()
	s.runner.SetPolicy(p, s.cfg.Seed)
	s.decMu.Unlock()
	return nil
}

// Decisions returns a copy of the decisions of one slot (the latest when
// slot < 0) and whether that slot is in the retained window.
func (s *Server) Decisions(slot int) ([]policy.Decision, int, bool) {
	s.decMu.RLock()
	defer s.decMu.RUnlock()
	if slot < 0 {
		slot = int(s.slot.Load()) - 1
	}
	ds, ok := s.history[slot]
	if !ok {
		return nil, slot, false
	}
	return append([]policy.Decision(nil), ds...), slot, true
}

// DigestState returns the number of slots stepped, decisions made, and the
// hex SHA-256 over the canonical decision stream so far — the serve-side
// half of the decision-equivalence checks.
func (s *Server) DigestState() (slots, decisions int, digest string) {
	s.decMu.RLock()
	defer s.decMu.RUnlock()
	return s.slotCount, s.decCount, hex.EncodeToString(s.sum[:])
}

// appendDecision appends the canonical one-line encoding of d:
//
//	slot|taxi|region|action\n
//
// using Action.Append's stable rendering. DigestDecisions and the server's
// rolling digest share it, so batch- and serve-side digests are comparable.
func appendDecision(dst []byte, d policy.Decision) []byte {
	dst = strconv.AppendInt(dst, int64(d.Slot), 10)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(d.Taxi), 10)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(d.Region), 10)
	dst = append(dst, '|')
	dst = d.Action.Append(dst)
	return append(dst, '\n')
}

// DigestDecisions returns the hex SHA-256 of the canonical encoding of a
// decision stream — the batch-side counterpart of (*Server).DigestState.
func DigestDecisions(ds []policy.Decision) string {
	h := sha256.New()
	var line []byte
	for _, d := range ds {
		line = appendDecision(line[:0], d)
		h.Write(line)
	}
	return hex.EncodeToString(h.Sum(nil))
}
