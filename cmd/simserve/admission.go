package main

// Admission control and certified degradation: the overload half of the
// resilience tier. The query endpoints (single, topk, batch) pass through a
// weighted FIFO admission gate before any engine work starts; control-plane
// and mutation routes (healthz, metrics, stats, measures, graph, edges,
// snapshot) are exempt so an overloaded server stays observable and
// operable. When the gate saturates, requests shed with 429 (queue full) or
// 503 (queued too long / draining) and always carry a Retry-After header —
// the contract a well-behaved client needs to back off instead of retrying
// into the same overload.
//
// Above shedding sits the degradation governor: sustained queue pressure
// (depth at or past the high watermark) flips the server into degraded mode,
// where eligible exact queries are downgraded to the engine's certified
// approximate path at a configured tolerance ceiling. The response carries
// both the "degraded" marker and the maxError certificate, so the client
// knows the answer is approximate and exactly how approximate — the server
// sheds precision, not queries. Hysteresis (depth back at or below the low
// watermark) exits degraded mode without flapping.

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/simstar"
)

// Admission weights by endpoint: what one admitted request is allowed to
// cost relative to the concurrency limit. A batch fans out over the
// engine's worker pool (WithWorkers), so it reserves several tokens.
const (
	weightSingle = 1
	weightTopK   = 1
	weightBatch  = 4
)

// Shed reasons, as they appear in the simstar_shed_total{reason=...} metric
// and the JSON error body.
const (
	shedQueueFull    = "queue_full"
	shedQueueTimeout = "queue_timeout"
	shedDraining     = "draining"
)

var (
	errQueueFull    = errors.New("admission queue full")
	errQueueTimeout = errors.New("admission queue wait exceeded")
	errDraining     = errors.New("server draining")
)

// admissionConfig is the operator-facing tuning of the gate, set from
// simserve flags.
type admissionConfig struct {
	// Limit is the concurrency capacity in weight tokens; 0 disables the
	// gate entirely (queries run unthrottled, the governor never engages).
	Limit int
	// Queue bounds how many requests may wait for tokens before new
	// arrivals shed with 429.
	Queue int
	// Wait bounds how long one request may queue before shedding with 503.
	Wait time.Duration
	// DegradeHigh and DegradeLow are the queue-depth watermarks of the
	// degradation governor: depth >= high enters degraded mode, depth <=
	// low exits it. high <= 0 disables degradation.
	DegradeHigh int
	DegradeLow  int
	// DegradeTolerance is the certified error ceiling degraded queries are
	// downgraded to; with degradation on it must be at least
	// simstar.MinTolerance.
	DegradeTolerance float64
}

// waiter is one queued request: its token weight and the channel the
// releaser closes when the tokens are granted.
type waiter struct {
	weight  int
	ready   chan struct{}
	granted bool
}

// admission is a weighted FIFO semaphore with a bounded waiter queue and a
// queue-depth-driven degradation governor. FIFO matters: granting out of
// order would starve heavy (batch) requests behind a stream of light ones.
type admission struct {
	cfg admissionConfig

	mu       sync.Mutex
	inUse    int
	queue    []*waiter
	degraded bool
}

// newAdmission builds the gate, nil when cfg.Limit disables it, clamping
// nonsense configurations: the queue is never negative and the low
// watermark never exceeds the high one. With degradation on it refuses a
// tolerance below simstar.MinTolerance, or NaN: the engine answers such a
// query exactly, so the degraded marker and counter would report a
// downgrade that never happened while the governor shed no work.
func newAdmission(cfg admissionConfig) (*admission, error) {
	if cfg.DegradeHigh > 0 && !(cfg.DegradeTolerance >= simstar.MinTolerance) {
		return nil, fmt.Errorf("degrade tolerance %g: the engine honours tolerances of at least %g", cfg.DegradeTolerance, simstar.MinTolerance)
	}
	if cfg.Limit <= 0 {
		return nil, nil
	}
	if cfg.Queue < 0 {
		cfg.Queue = 0
	}
	if cfg.DegradeLow > cfg.DegradeHigh {
		cfg.DegradeLow = cfg.DegradeHigh
	}
	return &admission{cfg: cfg}, nil
}

// clampWeight bounds a request's token cost to the capacity, so a batch
// request on a small -admit-limit still fits (it just reserves everything).
func (a *admission) clampWeight(weight int) int {
	if weight > a.cfg.Limit {
		return a.cfg.Limit
	}
	if weight < 1 {
		return 1
	}
	return weight
}

// updateGovernor re-evaluates the degradation watermarks. Caller holds mu.
func (a *admission) updateGovernor() {
	if a.cfg.DegradeHigh <= 0 {
		return
	}
	depth := len(a.queue)
	if !a.degraded && depth >= a.cfg.DegradeHigh {
		a.degraded = true
	} else if a.degraded && depth <= a.cfg.DegradeLow {
		a.degraded = false
	}
}

// isDegraded reports whether the governor currently has the server in
// degraded mode.
func (a *admission) isDegraded() bool {
	if a == nil {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.degraded
}

// queueDepth reports how many requests are waiting for tokens.
func (a *admission) queueDepth() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue)
}

// acquire reserves weight tokens, queuing FIFO behind earlier arrivals when
// the capacity is exhausted. It sheds with errQueueFull when the waiter
// queue is at its bound and errQueueTimeout when the configured wait
// expires first; a dying request context sheds with its ctx error.
func (a *admission) acquire(done <-chan struct{}, weight int) error {
	weight = a.clampWeight(weight)
	a.mu.Lock()
	if len(a.queue) == 0 && a.inUse+weight <= a.cfg.Limit {
		a.inUse += weight
		a.mu.Unlock()
		return nil
	}
	if len(a.queue) >= a.cfg.Queue {
		a.updateGovernor()
		a.mu.Unlock()
		return errQueueFull
	}
	w := &waiter{weight: weight, ready: make(chan struct{})}
	a.queue = append(a.queue, w)
	a.updateGovernor()
	a.mu.Unlock()

	timer := time.NewTimer(a.cfg.Wait)
	defer timer.Stop()
	select {
	case <-w.ready:
		return nil
	case <-timer.C:
		return a.abandon(w, errQueueTimeout)
	case <-done:
		return a.abandon(w, errDraining)
	}
}

// abandon removes a timed-out or cancelled waiter from the queue. If the
// grant raced the timeout the tokens are already ours — the request
// proceeds rather than leaking them.
func (a *admission) abandon(w *waiter, err error) error {
	a.mu.Lock()
	if w.granted {
		a.mu.Unlock()
		return nil
	}
	for i, q := range a.queue {
		if q == w {
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
			break
		}
	}
	a.updateGovernor()
	a.mu.Unlock()
	return err
}

// release returns a request's tokens and grants the head of the queue while
// capacity allows, preserving arrival order.
func (a *admission) release(weight int) {
	weight = a.clampWeight(weight)
	a.mu.Lock()
	a.inUse -= weight
	for len(a.queue) > 0 {
		head := a.queue[0]
		if a.inUse+head.weight > a.cfg.Limit {
			break
		}
		a.inUse += head.weight
		head.granted = true
		a.queue = a.queue[1:]
		close(head.ready)
	}
	a.updateGovernor()
	a.mu.Unlock()
}

// shed answers a request the gate refused: the mapped status, the reason in
// the body, and the Retry-After a backoff-aware client keys on.
func (s *server) shed(w http.ResponseWriter, code int, reason string, err error) {
	s.shedTotal(reason).Inc()
	w.Header().Set("Retry-After", "1")
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// admit wraps a query route with the admission gate. Draining is checked
// first — a shutting-down server sheds everything — then tokens are
// acquired (or the request sheds), and the queue wait is recorded whether
// or not admission succeeded.
func (s *server) admit(weight int, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.shed(w, http.StatusServiceUnavailable, shedDraining, errDraining)
			return
		}
		if s.adm == nil {
			h(w, r)
			return
		}
		start := time.Now()
		err := s.adm.acquire(r.Context().Done(), weight)
		s.queueWait.Observe(time.Since(start).Seconds())
		switch {
		case errors.Is(err, errQueueFull):
			s.shed(w, http.StatusTooManyRequests, shedQueueFull, err)
		case errors.Is(err, errQueueTimeout):
			s.shed(w, http.StatusServiceUnavailable, shedQueueTimeout, err)
		case err != nil:
			writeError(w, http.StatusServiceUnavailable, r.Context().Err())
		default:
			defer s.adm.release(weight)
			h(w, r)
		}
	}
}

// maybeDegrade downgrades an eligible exact query to the certified
// approximate path while the governor has the server in degraded mode.
// Queries that keep their path (see queryJSON.keepsPath: they asked for a
// tolerance, or run under a sieve, which the engine always answers
// exactly) are left alone, and measures without a certified approximate
// kernel are never downgraded — degrading them would trade a correct
// answer for an uncertified one. Reports whether the query was downgraded,
// which the response surfaces as the "degraded" marker next to the
// maxError certificate.
func (s *server) maybeDegrade(q *simstar.Query, keepsPath bool) bool {
	if !s.adm.isDegraded() || keepsPath || !simstar.HasCertifiedPath(q.Measure) {
		return false
	}
	q.Opts = append(q.Opts, simstar.WithTolerance(s.adm.cfg.DegradeTolerance))
	s.degradedTotal.Inc()
	return true
}

// beginDrain flips the server into draining: the query routes shed
// everything from here on while in-flight requests finish.
func (s *server) beginDrain() { s.draining.Store(true) }

// forceDrain marks the drain window exhausted: NDJSON emission loops abort
// at their next iteration with an in-band 499 trailer, so even infinite
// streams terminate within one entry of the hard cap.
func (s *server) forceDrain() { s.drainForced.Store(true) }
