package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/simstar"
)

// server is the HTTP face of one simstar.Engine. The engine pointer swaps
// atomically under mu when a new graph is loaded; queries in flight keep the
// engine they started with (engines are immutable per graph, so a swap can
// never corrupt them — old ones simply fall out of use). Everything else a
// request needs flows through its context, so client disconnects and server
// shutdown cancel the kernels mid-iteration.
type server struct {
	mu  sync.RWMutex
	eng *simstar.Engine
	// engOpts are the options eng was built with: a query's iteration count
	// resolves against them plus its own (see maxIterations).
	engOpts []simstar.Option
	// engSieve records that engOpts set a sieve, which a query inherits
	// unless it sets its own (see maybeDegrade).
	engSieve bool
	loaded   time.Time
	started  time.Time
	served   atomic.Int64

	// snapPath, when set with -snapshot, is where POST /v1/snapshot persists
	// the current epoch for warm restarts. snapMu serialises writers so two
	// concurrent snapshot requests cannot interleave the temp-file dance.
	snapPath string
	snapMu   sync.Mutex

	// reg backs GET /metrics; obsv is the engine observer every served
	// engine shares, so query counters survive graph swaps (see metrics.go).
	reg  *obs.Registry
	obsv *simstar.Observer
	// inflight gauges requests currently being served.
	inflight *obs.Gauge
	// streams counts NDJSON responses begun (top-k and batch); aborted
	// counts those cut short by a client disconnect mid-stream — the 499s
	// that never reach an access log because the status line already said
	// 200.
	streams *obs.Counter
	aborted *obs.Counter
	// logRequests turns on the per-request access log line; main() sets it,
	// tests leave it off.
	logRequests bool

	// adm is the admission gate in front of the query routes; nil when the
	// server runs without -admit-limit (queries run unthrottled and the
	// degradation governor never engages). See admission.go.
	adm *admission
	// draining sheds all new query work with 503 once shutdown begins;
	// drainForced additionally makes NDJSON emission loops abort at their
	// next iteration when the drain window is exhausted.
	draining    atomic.Bool
	drainForced atomic.Bool
	// faultHook, when simserve runs with -fault, is attached to every
	// engine the server builds so the injector's kernel faults fire inside
	// real queries.
	faultHook func(site string)

	// Resilience instruments (registered unconditionally in initMetrics, so
	// they are exported even at zero).
	shedByReason    map[string]*obs.Counter
	degradedTotal   *obs.Counter
	queueWait       *obs.Histogram
	panicsRecovered *obs.Counter
}

func newServer() *server {
	s := &server{started: time.Now()}
	s.initMetrics()
	return s
}

// engine returns the currently-served engine, or nil before the first load.
func (s *server) engine() *simstar.Engine {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.eng
}

// swap installs a freshly-built engine, the options it was built with and
// whether they set a sieve. The previous engine's result cache dies with
// it — exactly the invalidation-on-graph-change the cache design wants,
// with no epochs or locks on the query path.
func (s *server) swap(eng *simstar.Engine, sieve bool, opts ...simstar.Option) {
	s.mu.Lock()
	s.eng, s.engOpts, s.engSieve = eng, opts, sieve
	s.loaded = time.Now()
	s.mu.Unlock()
}

// handler builds the route table. Method-qualified patterns (Go 1.22
// net/http) give 405s for free.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealth))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("GET /v1/measures", s.instrument("measures", s.handleMeasures))
	mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("POST /v1/graph", s.instrument("graph", s.handleLoadGraph))
	mux.HandleFunc("POST /v1/edges", s.instrument("edges", s.handleEditEdges))
	mux.HandleFunc("POST /v1/snapshot", s.instrument("snapshot", s.handleSnapshot))
	// Only the query routes sit behind the admission gate: control-plane
	// and mutation endpoints stay reachable on an overloaded server.
	mux.HandleFunc("POST /v1/query/single", s.instrument("single", s.admit(weightSingle, s.handleSingle)))
	mux.HandleFunc("POST /v1/query/topk", s.instrument("topk", s.admit(weightTopK, s.handleTopK)))
	mux.HandleFunc("POST /v1/query/batch", s.instrument("batch", s.admit(weightBatch, s.handleBatch)))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.served.Add(1)
		mux.ServeHTTP(w, r)
	})
}

// statusClientClosedRequest is nginx's conventional status for requests the
// client abandoned; there is no standard code, and 4xx is the right class.
const statusClientClosedRequest = 499

// writeJSON writes v with status code; encoding errors at this point can
// only mean a dead connection, so they are dropped.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

type errorResponse struct {
	Error string `json:"error"`
}

// writeError maps an error to a JSON error payload: context cancellation
// (client gone), deadline overrun, recovered kernel panics and oversized
// bodies get their own statuses so operators can tell load problems from
// bad requests in access logs.
func writeError(w http.ResponseWriter, code int, err error) {
	var tooBig *http.MaxBytesError
	switch {
	case errors.Is(err, context.Canceled):
		code = statusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	case errors.Is(err, simstar.ErrKernelPanic):
		// A fault inside the kernel is the server's problem, not the
		// request's — and it was isolated, so the process answers 500 and
		// keeps serving.
		code = http.StatusInternalServerError
	case errors.As(err, &tooBig):
		code = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// Body limits: one request must not be able to OOM the server. Graphs are
// bulk data and get a generous cap; query payloads are small by nature.
// maxGraphNodes bounds the node-id space the same way — a 30-byte request
// naming node 10⁹ must not allocate gigabytes of CSR offsets (and ids past
// int32 would silently wrap in the graph builder). maxIterations bounds the
// iteration count options may resolve: the SimRank* kernels take K+3
// n-float vectors (the sieved kernel K+3 frontiers) before their first
// sweep, which no deadline can stop — ~0.8 GB at K = 1,000 on a 100k-node
// graph.
const (
	maxGraphBody  = 1 << 30 // 1 GiB of edge list
	maxQueryBody  = 8 << 20 // 8 MiB of queries
	maxGraphNodes = 1 << 24 // ~16.8M nodes
	maxIterations = 100
)

// checkIterations rejects options under which a query would run more than
// maxIterations iterations, or none (an eps at or above c, which every
// engine read refuses); opts apply on top of base, the served engine's
// options. Every built-in measure resolves at most
// simstar.IterationsGeometric's count from c, k and eps.
func checkIterations(base, opts []simstar.Option) error {
	switch k := simstar.IterationsGeometric(slices.Concat(base, opts)...); {
	case k > maxIterations:
		return fmt.Errorf("options resolve %d iterations, over the limit of %d", k, maxIterations)
	case k == 0:
		return errors.New("options resolve zero iterations: eps must lie below c")
	}
	return nil
}

// optionsJSON is the wire form of the simstar options a request may set.
// Pointers distinguish "absent" from zero so e.g. {"k": 0} still means
// "override K to the default-resolving zero" only when explicitly sent.
type optionsJSON struct {
	C         *float64 `json:"c,omitempty"`
	K         *int     `json:"k,omitempty"`
	Eps       *float64 `json:"eps,omitempty"`
	Sieve     *float64 `json:"sieve,omitempty"`
	Tolerance *float64 `json:"tolerance,omitempty"`
	Lambda    *float64 `json:"lambda,omitempty"`
	Delta     *float64 `json:"delta,omitempty"`
	Rank      *int     `json:"rank,omitempty"`
	Workers   *int     `json:"workers,omitempty"`
	CacheSize *int     `json:"cache_size,omitempty"`
}

func (o *optionsJSON) options() []simstar.Option {
	if o == nil {
		return nil
	}
	var opts []simstar.Option
	if o.C != nil {
		opts = append(opts, simstar.WithC(*o.C))
	}
	if o.K != nil {
		opts = append(opts, simstar.WithK(*o.K))
	}
	if o.Eps != nil {
		opts = append(opts, simstar.WithEps(*o.Eps))
	}
	if o.Sieve != nil {
		opts = append(opts, simstar.WithSieve(*o.Sieve))
	}
	if o.Tolerance != nil {
		opts = append(opts, simstar.WithTolerance(*o.Tolerance))
	}
	if o.Lambda != nil {
		opts = append(opts, simstar.WithLambda(*o.Lambda))
	}
	if o.Delta != nil {
		opts = append(opts, simstar.WithDelta(*o.Delta))
	}
	if o.Rank != nil {
		opts = append(opts, simstar.WithRank(*o.Rank))
	}
	if o.Workers != nil {
		opts = append(opts, simstar.WithWorkers(*o.Workers))
	}
	if o.CacheSize != nil {
		opts = append(opts, simstar.WithCacheSize(*o.CacheSize))
	}
	return opts
}

// sieve reports whether a query or engine with these options runs under a
// sieve: its own options.sieve when set, else inherited, the engine's.
func (o *optionsJSON) sieve(inherited bool) bool {
	if o == nil || o.Sieve == nil {
		return inherited
	}
	return *o.Sieve > 0
}

// graphRequest loads or replaces the served graph. Exactly one of EdgeList
// (the SNAP-style text format ReadGraph parses) or Edges (+ optional Nodes
// floor) must be set. Options become the new engine's defaults.
type graphRequest struct {
	EdgeList string       `json:"edge_list,omitempty"`
	Edges    [][2]int     `json:"edges,omitempty"`
	Nodes    int          `json:"nodes,omitempty"`
	Options  *optionsJSON `json:"options,omitempty"`
}

type graphResponse struct {
	Nodes            int     `json:"nodes"`
	Edges            int     `json:"edges"`
	Epoch            uint64  `json:"epoch"`
	TransitionMillis float64 `json:"transition_ms"`
}

func engineStatsJSON(st simstar.EngineStats) graphResponse {
	return graphResponse{
		Nodes:            st.Nodes,
		Edges:            st.Edges,
		Epoch:            st.Epoch,
		TransitionMillis: float64(st.TransitionTime.Microseconds()) / 1e3,
	}
}

// handleLoadGraph builds the engine for a new graph and swaps it in. The
// body may also be a raw text edge list (any non-JSON content type).
func (s *server) handleLoadGraph(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxGraphBody)
	var req graphRequest
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/json") || ct == "" {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decoding graph request: %w", err))
			return
		}
	} else {
		raw, err := io.ReadAll(r.Body)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("reading edge list body: %w", err))
			return
		}
		req.EdgeList = string(raw)
	}
	if err := checkIterations(nil, req.Options.options()); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Every read of an engine built with this c would refuse it (see
	// simstar.WithC); a query's own c needs no check here, as its read
	// answers the engine's error.
	if o := req.Options; o != nil && o.C != nil && !(*o.C >= 0 && *o.C < 1) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("c = %g outside (0, 1)", *o.C))
		return
	}
	var g *simstar.Graph
	switch {
	case req.EdgeList != "" && req.Edges != nil:
		writeError(w, http.StatusBadRequest, errors.New("edge_list and edges are mutually exclusive"))
		return
	case req.EdgeList != "":
		if err := checkEdgeListIDs(req.EdgeList); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		var err error
		g, err = simstar.ReadGraph(strings.NewReader(req.EdgeList))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	case req.Edges != nil:
		if req.Nodes > maxGraphNodes {
			writeError(w, http.StatusBadRequest, fmt.Errorf("nodes %d exceeds the limit of %d", req.Nodes, maxGraphNodes))
			return
		}
		for _, e := range req.Edges {
			if e[0] < 0 || e[1] < 0 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("negative node id in edge %v", e))
				return
			}
			if e[0] >= maxGraphNodes || e[1] >= maxGraphNodes {
				writeError(w, http.StatusBadRequest, fmt.Errorf("node id in edge %v exceeds the limit of %d", e, maxGraphNodes))
				return
			}
		}
		g = simstar.GraphFromEdges(req.Nodes, req.Edges)
	default:
		writeError(w, http.StatusBadRequest, errors.New("need edge_list or edges"))
		return
	}
	opts := s.engineOptions(req.Options.options())
	eng := simstar.NewEngine(g, opts...)
	s.swap(eng, req.Options.sieve(false), opts...)
	writeJSON(w, http.StatusOK, engineStatsJSON(eng.Stats()))
}

// checkEdgeListIDs pre-scans a numeric edge list for node ids past
// maxGraphNodes before the graph builder allocates O(max id) state. It
// mirrors ReadGraph's format: once any endpoint is non-numeric the whole
// file is labelled — node count is then bounded by the (already capped)
// body size — so scanning stops there.
func checkEdgeListIDs(edgeList string) error {
	sc := bufio.NewScanner(strings.NewReader(edgeList))
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return fmt.Errorf("edge list line %q: want two fields", line)
		}
		u, errU := strconv.Atoi(fields[0])
		v, errV := strconv.Atoi(fields[1])
		if errU != nil || errV != nil {
			return nil // labelled graph
		}
		if u >= maxGraphNodes || v >= maxGraphNodes {
			return fmt.Errorf("node id %d exceeds the limit of %d", max(u, v), maxGraphNodes)
		}
	}
	return nil
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true, "graph_loaded": s.engine() != nil})
}

func (s *server) handleMeasures(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"measures": simstar.Names()})
}

// cacheStatsJSON is the wire form of simstar.CacheStats.
type cacheStatsJSON struct {
	Capacity  int    `json:"capacity"`
	Size      int    `json:"size"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// queryCountsJSON reports cumulative counts since the process started, so
// they survive graph swaps (unlike the per-engine cache stats).
// SingleSource and Batch are the engine queries by kind, from the shared
// observer; every HTTP read counts under Batch. Stream is the NDJSON
// responses begun, top-k and batch, from the server's own counter.
type queryCountsJSON struct {
	SingleSource uint64 `json:"single_source"`
	Stream       uint64 `json:"stream"`
	Batch        uint64 `json:"batch"`
}

// statsResponse is schema-stable: every key is present in both the loaded
// and the no-graph states (engine and cache are zero-valued before the first
// load), so dashboards and scripts never branch on key absence.
type statsResponse struct {
	Engine      graphResponse   `json:"engine"`
	Cache       cacheStatsJSON  `json:"cache"`
	Queries     queryCountsJSON `json:"queries"`
	GraphLoaded bool            `json:"graph_loaded"`
	LoadedAgoMs float64         `json:"graph_loaded_ago_ms"`
	UptimeMs    float64         `json:"uptime_ms"`
	// RequestCount counts every HTTP request the process served.
	RequestCount int64 `json:"requests"`
	// StreamsAborted counts NDJSON streams the client abandoned mid-body.
	StreamsAborted int64 `json:"streams_aborted"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	resp := statsResponse{
		Queries: queryCountsJSON{
			SingleSource: uint64(snap[`simstar_queries_total{kind="single_source"}`]),
			Stream:       s.streams.Value(),
			Batch:        uint64(snap[`simstar_queries_total{kind="batch"}`]),
		},
		UptimeMs:       float64(time.Since(s.started).Microseconds()) / 1e3,
		RequestCount:   s.served.Load(),
		StreamsAborted: int64(s.aborted.Value()),
	}
	s.mu.RLock()
	eng, loaded := s.eng, s.loaded
	s.mu.RUnlock()
	if eng != nil {
		resp.Engine = engineStatsJSON(eng.Stats())
		cs := eng.CacheStats()
		resp.Cache = cacheStatsJSON{
			Capacity:  cs.Capacity,
			Size:      cs.Size,
			Hits:      cs.Hits,
			Misses:    cs.Misses,
			Evictions: cs.Evictions,
		}
		resp.GraphLoaded = true
		resp.LoadedAgoMs = float64(time.Since(loaded).Microseconds()) / 1e3
	}
	writeJSON(w, http.StatusOK, resp)
}

// queryJSON is one query on the wire: the node addressed by index or, on
// labelled graphs, by label. Tolerance is first-class sugar for
// options.tolerance (the explicit options field wins when both are set):
// it switches the query to the certified approximate path, and the
// response's maxError reports the certificate.
type queryJSON struct {
	Measure   string       `json:"measure"`
	Node      *int         `json:"node,omitempty"`
	Label     string       `json:"label,omitempty"`
	K         int          `json:"k,omitempty"`
	Exclude   []int        `json:"exclude,omitempty"`
	Tolerance *float64     `json:"tolerance,omitempty"`
	Options   *optionsJSON `json:"options,omitempty"`
	// DeadlineMS is the query's compute budget in milliseconds: when it
	// expires the engine aborts the kernels mid-sweep and the request
	// answers 504.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// Stream switches the topk endpoint to the chunked NDJSON response
	// (see stream.go); the single endpoint rejects it.
	Stream bool `json:"stream,omitempty"`
}

// wantsTolerance reports whether the wire query asked for the certified
// approximate path — the queries whose streamed entries carry a per-chunk
// maxError.
func (q *queryJSON) wantsTolerance() bool {
	return q.Tolerance != nil || (q.Options != nil && q.Options.Tolerance != nil)
}

// keepsPath reports whether the degradation governor must leave the query
// on the path it asked for: it asked for its own tolerance, or it runs
// under a sieve (its own, or engineSieve inherited from the engine), which
// makes the engine answer it exactly whatever the tolerance (see
// simstar.WithTolerance) — degrading it would mark an exact answer
// degraded.
func (q *queryJSON) keepsPath(engineSieve bool) bool {
	return q.wantsTolerance() || q.Options.sieve(engineSieve)
}

// resolveNode maps the wire query to a node id on g.
func (q *queryJSON) resolveNode(g *simstar.Graph) (int, error) {
	switch {
	case q.Node != nil && q.Label != "":
		return 0, errors.New("node and label are mutually exclusive")
	case q.Node != nil:
		return *q.Node, nil
	case q.Label != "":
		id, ok := g.NodeByLabel(q.Label)
		if !ok {
			return 0, fmt.Errorf("no node labelled %q", q.Label)
		}
		return id, nil
	default:
		return 0, errors.New("need node or label")
	}
}

// toQuery converts the wire form to a batch Query on g, served by an engine
// built with base.
func (q *queryJSON) toQuery(g *simstar.Graph, base []simstar.Option) (simstar.Query, error) {
	node, err := q.resolveNode(g)
	if err != nil {
		return simstar.Query{}, err
	}
	if q.Measure == "" {
		return simstar.Query{}, errors.New("need measure")
	}
	if o := q.Options; o != nil && (o.Workers != nil || o.CacheSize != nil) {
		// Both are fixed when the engine is built: the cache is shared and
		// sized once, and a batch fans out with the engine's worker count.
		return simstar.Query{}, errors.New("options.workers and options.cache_size are engine-wide; set them with POST /v1/graph")
	}
	var opts []simstar.Option
	if q.Tolerance != nil {
		// The shorthand goes first so an explicit options.tolerance wins.
		opts = append(opts, simstar.WithTolerance(*q.Tolerance))
	}
	if q.DeadlineMS > 0 {
		opts = append(opts, simstar.WithDeadline(time.Duration(q.DeadlineMS)*time.Millisecond))
	}
	opts = append(opts, q.Options.options()...)
	if err := checkIterations(base, opts); err != nil {
		return simstar.Query{}, err
	}
	return simstar.Query{
		Measure: q.Measure,
		Node:    node,
		K:       q.K,
		Exclude: q.Exclude,
		Opts:    opts,
	}, nil
}

// requireEngine fetches the current engine, the options it was built with
// and whether they set a sieve, or answers 409.
func (s *server) requireEngine(w http.ResponseWriter) (*simstar.Engine, []simstar.Option, bool) {
	s.mu.RLock()
	eng, opts, sieve := s.eng, s.engOpts, s.engSieve
	s.mu.RUnlock()
	if eng == nil {
		writeError(w, http.StatusConflict, errors.New("no graph loaded; POST /v1/graph first"))
	}
	return eng, opts, sieve
}

func decodeQuery(w http.ResponseWriter, r *http.Request, g *simstar.Graph, base []simstar.Option) (simstar.Query, *queryJSON, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, maxQueryBody)
	var qj queryJSON
	if err := json.NewDecoder(r.Body).Decode(&qj); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding query: %w", err))
		return simstar.Query{}, nil, false
	}
	q, err := qj.toQuery(g, base)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return simstar.Query{}, nil, false
	}
	return q, &qj, true
}

type singleResponse struct {
	Measure string `json:"measure"`
	Node    int    `json:"node"`
	Label   string `json:"label,omitempty"`
	Cached  bool   `json:"cached"`
	// MaxError is the certified element-wise bound on how far the scores
	// can be from the exact kernels: 0 for exact queries, at most the
	// requested tolerance for approximate ones.
	MaxError float64   `json:"maxError"`
	Scores   []float64 `json:"scores"`
	// Degraded marks an exact query the overload governor downgraded to
	// the certified approximate path; MaxError then carries the
	// certificate bounding how approximate (see admission.go).
	Degraded bool `json:"degraded,omitempty"`
	// Trace is the per-query stage trace, present under ?trace=1.
	Trace *obs.Trace `json:"trace,omitempty"`
}

func (s *server) handleSingle(w http.ResponseWriter, r *http.Request) {
	eng, base, sieve := s.requireEngine(w)
	if eng == nil {
		return
	}
	q, qj, ok := decodeQuery(w, r, eng.Graph(), base)
	if !ok {
		return
	}
	if qj.Stream {
		writeError(w, http.StatusBadRequest, errors.New("stream is only supported on the topk and batch endpoints"))
		return
	}
	degraded := s.maybeDegrade(&q, qj.keepsPath(sieve))
	if traceWanted(r) {
		q.Trace = &obs.Trace{}
	}
	start := time.Now()
	// One-element batch: same cache, same validation, same kernels.
	res := eng.MultiSource(r.Context(), []simstar.Query{q})[0]
	if res.Err != nil {
		writeError(w, http.StatusBadRequest, res.Err)
		return
	}
	if q.Trace != nil {
		q.Trace.Finish(start)
	}
	writeJSON(w, http.StatusOK, singleResponse{
		Measure:  q.Measure,
		Node:     q.Node,
		Label:    labelOf(eng.Graph(), q.Node),
		Cached:   res.Cached,
		MaxError: res.MaxError,
		Scores:   res.Scores,
		Degraded: degraded,
		Trace:    q.Trace,
	})
}

type rankedJSON struct {
	Node  int     `json:"node"`
	Label string  `json:"label,omitempty"`
	Score float64 `json:"score"`
}

func rankedList(g *simstar.Graph, top []simstar.Ranked) []rankedJSON {
	out := make([]rankedJSON, len(top))
	for i, r := range top {
		out[i] = rankedJSON{Node: r.Node, Label: labelOf(g, r.Node), Score: r.Score}
	}
	return out
}

func labelOf(g *simstar.Graph, node int) string {
	if !g.Labeled() {
		return ""
	}
	return g.Label(node)
}

type topKResponse struct {
	Measure string `json:"measure"`
	Node    int    `json:"node"`
	Label   string `json:"label,omitempty"`
	Cached  bool   `json:"cached"`
	// MaxError certifies the underlying score vector the ranking was drawn
	// from; two nodes whose exact scores differ by less than it may rank in
	// either order.
	MaxError float64      `json:"maxError"`
	Top      []rankedJSON `json:"top"`
	// Degraded marks a query the overload governor downgraded to the
	// certified approximate path (see singleResponse.Degraded).
	Degraded bool `json:"degraded,omitempty"`
	// Trace is the per-query stage trace, present under ?trace=1.
	Trace *obs.Trace `json:"trace,omitempty"`
}

func (s *server) handleTopK(w http.ResponseWriter, r *http.Request) {
	eng, base, sieve := s.requireEngine(w)
	if eng == nil {
		return
	}
	q, qj, ok := decodeQuery(w, r, eng.Graph(), base)
	if !ok {
		return
	}
	degraded := s.maybeDegrade(&q, qj.keepsPath(sieve))
	if traceWanted(r) {
		q.Trace = &obs.Trace{}
	}
	start := time.Now()
	// One-element batch, streamed or not: an error still answers as plain
	// JSON, before a stream's first byte.
	res := eng.BatchTopK(r.Context(), []simstar.Query{q})[0]
	if res.Err != nil {
		writeError(w, http.StatusBadRequest, res.Err)
		return
	}
	if qj.Stream {
		s.streamTopK(w, r, eng.Graph(), q, res, qj.wantsTolerance() || degraded, degraded, start)
		return
	}
	if q.Trace != nil {
		q.Trace.Finish(start)
	}
	writeJSON(w, http.StatusOK, topKResponse{
		Measure:  q.Measure,
		Node:     q.Node,
		Label:    labelOf(eng.Graph(), q.Node),
		Cached:   res.Cached,
		MaxError: res.MaxError,
		Top:      rankedList(eng.Graph(), res.Top),
		Degraded: degraded,
		Trace:    q.Trace,
	})
}

// batchRequest runs a batch of queries. Mode selects what each query
// returns: "scores" (default) full vectors via MultiSource, "topk" ranked
// lists via BatchTopK.
type batchRequest struct {
	Mode    string      `json:"mode,omitempty"`
	Queries []queryJSON `json:"queries"`
	// DeadlineMS is a budget for the whole batch in milliseconds (on top
	// of any per-query deadline_ms): when it expires the engine call is
	// cancelled and the request answers 504.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// Stream switches the response to chunked NDJSON: one line per query
	// result instead of one enveloping JSON document (see stream.go).
	Stream bool `json:"stream,omitempty"`
}

type batchResultJSON struct {
	// Node is present only when the query resolved to a node; a query that
	// failed resolution (e.g. an unknown label) has no node to report.
	Node   *int   `json:"node,omitempty"`
	Label  string `json:"label,omitempty"`
	Cached bool   `json:"cached,omitempty"`
	// MaxError is the per-query certificate (see singleResponse.MaxError).
	MaxError float64      `json:"maxError,omitempty"`
	Scores   []float64    `json:"scores,omitempty"`
	Top      []rankedJSON `json:"top,omitempty"`
	// Degraded marks a slot the overload governor downgraded to the
	// certified approximate path (see singleResponse.Degraded).
	Degraded bool   `json:"degraded,omitempty"`
	Error    string `json:"error,omitempty"`
}

type batchResponse struct {
	Results []batchResultJSON `json:"results"`
	// Trace is the request-level stage trace (node -1, queries = slot
	// count), present under ?trace=1.
	Trace *obs.Trace `json:"trace,omitempty"`
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	eng, base, sieve := s.requireEngine(w)
	if eng == nil {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxQueryBody)
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding batch request: %w", err))
		return
	}
	topk := false
	switch req.Mode {
	case "", "scores":
	case "topk":
		topk = true
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown mode %q (want scores or topk)", req.Mode))
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty batch"))
		return
	}
	// The batch-level budget rides the request context so it also bounds
	// response assembly and streaming, not just the engine call.
	ctx := r.Context()
	if req.DeadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
		defer cancel()
	}
	// Queries that fail wire-level resolution (unknown label, missing
	// measure) answer in their own slot and never reach the engine — no
	// spurious cache misses, no made-up node ids in the response.
	g := eng.Graph()
	resp := batchResponse{Results: make([]batchResultJSON, len(req.Queries))}
	queries := make([]simstar.Query, 0, len(req.Queries))
	slot := make([]int, 0, len(req.Queries))
	degraded := make([]bool, 0, len(req.Queries))
	for i := range req.Queries {
		q, err := req.Queries[i].toQuery(g, base)
		if err != nil {
			resp.Results[i] = batchResultJSON{Label: req.Queries[i].Label, Error: err.Error()}
			continue
		}
		degraded = append(degraded, s.maybeDegrade(&q, req.Queries[i].keepsPath(sieve)))
		queries = append(queries, q)
		slot = append(slot, i)
	}
	// Batches trace at request level: one obs.Trace covering the whole
	// engine call and the response assembly, not one per slot.
	var tr *obs.Trace
	if traceWanted(r) {
		tr = &obs.Trace{Node: -1, Queries: len(queries), Epoch: eng.Epoch()}
	}
	start := time.Now()
	var results []simstar.Result
	if topk {
		results = eng.BatchTopK(ctx, queries)
	} else {
		results = eng.MultiSource(ctx, queries)
	}
	if tr != nil {
		tr.AddSpan("batch", time.Since(start))
	}
	// The whole batch answers 200 unless the request itself died (client
	// gone, batch deadline overrun): per-query failures ride in their
	// result slot.
	if err := ctx.Err(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	t1 := time.Now()
	assembleBatchResults(g, resp.Results, queries, slot, degraded, results)
	if tr != nil {
		tr.AddSpan("assemble", time.Since(t1))
	}
	if req.Stream {
		// streamBatch adds the emission span and finishes the trace.
		s.streamBatch(w, r, resp.Results, tr, start)
		return
	}
	if tr != nil {
		tr.Finish(start)
		resp.Trace = tr
	}
	writeJSON(w, http.StatusOK, resp)
}

// assembleBatchResults fills each computed query's slot of dst; slots of
// queries that failed wire-level resolution were answered at decode time.
// degraded runs parallel to queries and marks the slots the overload
// governor downgraded.
func assembleBatchResults(g *simstar.Graph, dst []batchResultJSON, queries []simstar.Query, slot []int, degraded []bool, results []simstar.Result) {
	for j, res := range results {
		node := queries[j].Node
		out := batchResultJSON{Node: &node}
		if res.Err != nil {
			out.Error = res.Err.Error()
		} else {
			out.Label = labelOf(g, node)
			out.Cached = res.Cached
			out.MaxError = res.MaxError
			out.Scores = res.Scores
			out.Top = rankedList(g, res.Top)
			out.Degraded = degraded[j]
		}
		dst[slot[j]] = out
	}
}

// editsRequest is the wire form of POST /v1/edges: two parallel edge lists.
// Within one request, insertions are applied before deletions (so an edge in
// both lists ends up absent).
type editsRequest struct {
	Insert [][2]int `json:"insert,omitempty"`
	Delete [][2]int `json:"delete,omitempty"`
}

// editsResponse reports what an edge-mutation request did: the epoch now
// served, what actually changed, and the incremental refresh cost.
type editsResponse struct {
	Epoch     uint64  `json:"epoch"`
	Applied   int     `json:"applied"`
	Inserted  int     `json:"inserted"`
	Removed   int     `json:"removed"`
	Refreshed bool    `json:"refreshed"`
	RefreshMs float64 `json:"refresh_ms"`
	Nodes     int     `json:"nodes"`
	Edges     int     `json:"edges"`
}

// checkEditEndpoints bounds mutation node ids the same way graph loading
// does: an insertion naming node 10⁹ must not grow gigabytes of CSR.
func checkEditEndpoints(edges [][2]int) error {
	for _, e := range edges {
		if e[0] < 0 || e[1] < 0 {
			return fmt.Errorf("negative node id in edge %v", e)
		}
		if e[0] >= maxGraphNodes || e[1] >= maxGraphNodes {
			return fmt.Errorf("node id in edge %v exceeds the limit of %d", e, maxGraphNodes)
		}
	}
	return nil
}

// handleEditEdges applies a mixed batch of insertions and deletions to the
// served graph. The engine pointer is read once; a concurrent POST
// /v1/graph swap means the edits land on the graph that was being served
// when the request arrived — the response's epoch and sizes always describe
// the engine the edits actually went to.
func (s *server) handleEditEdges(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxQueryBody)
	var req editsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding edits request: %w", err))
		return
	}
	if len(req.Insert) == 0 && len(req.Delete) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("need insert or delete edges"))
		return
	}
	if err := checkEditEndpoints(req.Insert); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := checkEditEndpoints(req.Delete); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	edits := make([]simstar.Edit, 0, len(req.Insert)+len(req.Delete))
	for _, e := range req.Insert {
		edits = append(edits, simstar.InsertEdge(e[0], e[1]))
	}
	for _, e := range req.Delete {
		edits = append(edits, simstar.DeleteEdge(e[0], e[1]))
	}
	eng, _, _ := s.requireEngine(w)
	if eng == nil {
		return
	}
	st, err := eng.ApplyEdits(edits...)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, editsResponse{
		Epoch:     st.Epoch,
		Applied:   st.Applied,
		Inserted:  st.Inserted,
		Removed:   st.Removed,
		Refreshed: st.Refreshed,
		RefreshMs: float64(st.RefreshTime.Microseconds()) / 1e3,
		Nodes:     st.Nodes,
		Edges:     st.Edges,
	})
}

type snapshotResponse struct {
	Path  string `json:"path"`
	Epoch uint64 `json:"epoch"`
	Bytes int64  `json:"bytes"`
}

// handleSnapshot persists the current epoch's graph to the -snapshot path
// (write to a temp file, then rename, so a crash mid-write never corrupts
// the warm-restart image). 409 when the server was started without one.
func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	eng, _, _ := s.requireEngine(w)
	if eng == nil {
		return
	}
	if s.snapPath == "" {
		writeError(w, http.StatusConflict, errors.New("no snapshot path configured; start simserve with -snapshot"))
		return
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	tmp := s.snapPath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// The returned snapshot is the version actually written — a mutation
	// racing this request must not make the response lie about the file.
	snap, err := eng.WriteSnapshot(f)
	if err != nil {
		f.Close()
		os.Remove(tmp)
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	size, _ := f.Seek(0, io.SeekCurrent)
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if err := os.Rename(tmp, s.snapPath); err != nil {
		os.Remove(tmp)
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, snapshotResponse{Path: s.snapPath, Epoch: snap.Epoch, Bytes: size})
}
