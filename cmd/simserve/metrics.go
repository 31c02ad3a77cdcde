package main

// Server-side observability: the obs.Registry behind GET /metrics, the
// per-route instrumentation wrapper, and the process-level gauges. The
// registry is shared with the engine's simstar.Observer — every engine the
// server builds (startup, POST /v1/graph) is handed the same Observer, so
// query counters are cumulative across graph swaps and epochs while the
// per-graph result cache keeps dying with its engine.

import (
	"errors"
	"fmt"
	"log"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/simstar"
)

const prometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// initMetrics builds the server's registry, the shared engine observer and
// the request-level instruments, and registers the gauge functions that
// read live server state at scrape time.
func (s *server) initMetrics() {
	s.reg = obs.NewRegistry()
	s.obsv = simstar.NewObserver(s.reg)
	s.inflight = s.reg.Gauge("simserve_inflight_requests",
		"HTTP requests currently being served.")
	s.streams = s.reg.Counter("simserve_streams_total",
		"NDJSON responses begun, top-k and batch.")
	s.aborted = s.reg.Counter("simserve_streams_aborted_total",
		"NDJSON streams cut short by a client disconnect mid-stream.")
	s.reg.GaugeFunc("simserve_graph_loaded",
		"Whether a graph is loaded (1) or the server is empty (0).",
		func() float64 {
			if s.engine() != nil {
				return 1
			}
			return 0
		})
	s.reg.GaugeFunc("simserve_graph_epoch",
		"Epoch of the currently-served graph (0 when none is loaded).",
		func() float64 {
			if eng := s.engine(); eng != nil {
				return float64(eng.Epoch())
			}
			return 0
		})
	s.reg.GaugeFunc("simserve_graph_nodes",
		"Node count of the currently-served graph.",
		func() float64 {
			if eng := s.engine(); eng != nil {
				return float64(eng.Snapshot().Graph.N())
			}
			return 0
		})
	s.reg.GaugeFunc("simserve_graph_edges",
		"Edge count of the currently-served graph.",
		func() float64 {
			if eng := s.engine(); eng != nil {
				return float64(eng.Snapshot().Graph.M())
			}
			return 0
		})
	s.reg.GaugeFunc("simserve_cache_entries",
		"Entries resident in the served engine's result cache.",
		func() float64 {
			if eng := s.engine(); eng != nil {
				return float64(eng.CacheStats().Size)
			}
			return 0
		})
	// Resilience instruments: registered unconditionally (even when the
	// admission gate is off) so dashboards and tests never branch on
	// series absence.
	s.shedByReason = make(map[string]*obs.Counter)
	for _, reason := range []string{shedQueueFull, shedQueueTimeout, shedDraining} {
		s.shedByReason[reason] = s.reg.Counter("simstar_shed_total",
			"Query requests shed by admission control, by reason.",
			obs.Label{Name: "reason", Value: reason})
	}
	s.degradedTotal = s.reg.Counter("simstar_degraded_total",
		"Exact queries the overload governor downgraded to the certified approximate path.")
	s.queueWait = s.reg.Histogram("simstar_queue_wait_seconds",
		"Time query requests spent in the admission queue (admitted or shed).",
		obs.LatencyBuckets)
	s.panicsRecovered = s.reg.Counter("simserve_panics_recovered_total",
		"Handler panics caught by the per-request isolation barrier.")
	s.reg.GaugeFunc("simserve_admission_queue_depth",
		"Requests currently waiting in the admission queue.",
		func() float64 { return float64(s.adm.queueDepth()) })
	s.reg.GaugeFunc("simserve_degraded_mode",
		"Whether the overload governor has the server in degraded mode (1) or not (0).",
		func() float64 {
			if s.adm.isDegraded() {
				return 1
			}
			return 0
		})
}

// shedTotal resolves the shed counter for a reason; unknown reasons fall
// back to on-demand registration rather than a nil dereference.
func (s *server) shedTotal(reason string) *obs.Counter {
	if c, ok := s.shedByReason[reason]; ok {
		return c
	}
	return s.reg.Counter("simstar_shed_total",
		"Query requests shed by admission control, by reason.",
		obs.Label{Name: "reason", Value: reason})
}

// engineOptions appends the server's shared observer — and, under -fault,
// the injector's hook — to a request's engine options. They go last so
// nothing on the wire can detach the metrics or dodge the fault schedule.
func (s *server) engineOptions(opts []simstar.Option) []simstar.Option {
	opts = append(opts, simstar.WithObserver(s.obsv))
	if s.faultHook != nil {
		opts = append(opts, simstar.WithFaultHook(s.faultHook))
	}
	return opts
}

// statusWriter records the response status and size for the route
// instruments. It forwards Flush because the NDJSON streamWriter type-asserts
// http.Flusher on whatever ResponseWriter it is handed — dropping the
// interface here would silently turn chunked streams into buffered bodies.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// status is the effective response status: a handler that never wrote is an
// implicit 200, exactly as net/http treats it.
func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// instrument wraps one route's handler with the request metrics: a counter
// and an error counter labelled by route, a latency histogram, the in-flight
// gauge, and (when -log-requests style logging is on) one logfmt access line.
// The instruments are resolved once at route-table build time, so the
// per-request cost is a few atomic updates — no registry lookups.
func (s *server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	reqs := s.reg.Counter("simserve_requests_total",
		"HTTP requests served, by route.",
		obs.Label{Name: "route", Value: route})
	errs := s.reg.Counter("simserve_request_errors_total",
		"HTTP requests answered with a 4xx/5xx status, by route.",
		obs.Label{Name: "route", Value: route})
	lat := s.reg.Histogram("simserve_request_seconds",
		"HTTP request latency in seconds, by route.",
		obs.LatencyBuckets,
		obs.Label{Name: "route", Value: route})
	return func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Inc()
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		s.serveRecovered(route, sw, r, h)
		d := time.Since(start)
		s.inflight.Dec()
		reqs.Inc()
		if sw.status() >= 400 {
			errs.Inc()
		}
		lat.Observe(d.Seconds())
		if s.logRequests {
			log.Printf("simserve: method=%s route=%s status=%d dur_ms=%.3f bytes=%d",
				r.Method, route, sw.status(), float64(d.Microseconds())/1e3, sw.bytes)
		}
	}
}

// serveRecovered runs one route handler behind the per-request panic
// barrier: a panic anywhere in the serving layer answers 500 (when the
// status line is still open) and is counted, instead of net/http tearing
// down the connection — one poisoned request must not look like a crash to
// the client or take out keep-alive neighbours. http.ErrAbortHandler is the
// deliberate abort idiom and passes through untouched. Engine kernels have
// their own recovery (simstar.ErrKernelPanic) and normally never reach
// this; the barrier is the serving layer's own last line.
func (s *server) serveRecovered(route string, sw *statusWriter, r *http.Request, h http.HandlerFunc) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if err, ok := rec.(error); ok && errors.Is(err, http.ErrAbortHandler) {
			panic(rec)
		}
		s.panicsRecovered.Inc()
		log.Printf("simserve: route=%s recovered panic: %v", route, rec)
		if sw.code == 0 {
			writeError(sw, http.StatusInternalServerError,
				fmt.Errorf("internal error: recovered panic serving %s", route))
		}
	}()
	h(sw, r)
}

// handleMetrics serves the registry in the Prometheus text exposition
// format. A scrape only snapshots atomics; it never blocks the query path.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", prometheusContentType)
	// An encoding error here can only mean a dead scraper connection.
	_ = s.reg.WritePrometheus(w)
}

// traceWanted reports whether the request opted into the per-query trace
// (?trace=1) that embeds the obs.Trace in the response.
func traceWanted(r *http.Request) bool {
	return r.URL.Query().Get("trace") == "1"
}
