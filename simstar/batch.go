package simstar

import (
	"context"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
)

// Query is one single-source unit of work in a batch. The zero value of the
// optional fields means "use the engine's defaults": no per-query option
// overrides, no exclusions, and — for BatchTopK — K <= 0 yields an empty
// ranking, per the TopK boundary contract.
type Query struct {
	// Measure is the registry name (or alias) of the measure to run.
	Measure string
	// Node is the query node.
	Node int
	// K is the ranking size for BatchTopK; MultiSource ignores it.
	K int
	// Exclude lists nodes to drop from a BatchTopK ranking, in addition to
	// the query node itself; MultiSource ignores it.
	Exclude []int
	// Opts are layered on top of the engine's options for this query only,
	// exactly as Engine.With would apply them (so structure-shaping options
	// like WithMiner do not re-mine; see Engine.With).
	Opts []Option
	// Trace, when non-nil, receives the query's stage trace: the canonical
	// measure, the pinned epoch, the plan/cache/kernel spans, the plan, the
	// certificate and the kernel detail, plus — for BatchTopK — a "select"
	// span and K. A duplicate of an earlier query in the batch receives a
	// copy of the trace of the computation it shares. The caller stamps
	// Finish. Tracing changes the cost, never the answer.
	Trace *obs.Trace
}

// Result is the outcome of one Query in a batch. Results are positional:
// the i-th Result answers the i-th Query. Exactly one of Scores/Top is
// populated on success — Scores by MultiSource, Top by BatchTopK — and Err
// is non-nil otherwise. One query failing never fails its batch.
type Result struct {
	// Scores is the full score vector of the query node against every node
	// (MultiSource only). The slice is the caller's to keep and mutate.
	Scores []float64
	// Top is the ranked result (BatchTopK only).
	Top []Ranked
	// Cached reports whether the underlying score vector was served from
	// the engine's result cache rather than computed.
	Cached bool
	// MaxError is the certified element-wise bound on how far the
	// underlying score vector can be from the exact kernels at the query's
	// parameters: 0 for exact queries, at most the configured tolerance for
	// sieved-approximate ones (see WithTolerance).
	MaxError float64
	// Err is the per-query error: an unknown measure, an out-of-range
	// node, or ctx's error for queries cancelled or skipped mid-batch.
	Err error
}

// MultiSource answers a batch of single-source queries. Every query takes
// the path a lone SingleSourceCertified call takes — node check, one
// result-cache probe, the single-source kernel on a miss, then the cache
// fill — so a batch saves work over a serial loop in two ways only:
//
//   - Deduplication: queries with the same cache key (canonical measure,
//     parameters, node) and the same deadline and fault hook compute once,
//     and each duplicate receives its own copy of the answer. The cache key
//     strips those two knobs, but either can fail a query, so one query's
//     budget or injected fault never decides a duplicate's outcome.
//   - Fan-out: the distinct queries spread across a worker pool
//     (WithWorkers bounds it; the default is one worker per CPU), handed
//     out one at a time from a shared counter so one expensive query does
//     not serialise a chunk of the batch behind it.
//
// Each query may carry Opts overriding the engine's parameters for that
// query alone. Cancellation is two-level: ctx aborts the kernels of queries
// already running (they return ctx's error in their Result) and stops
// undispatched queries from starting, which report ctx's error likewise.
// The returned slice always has len(queries) entries, in query order, and
// every entry's scores and MaxError are exactly what SingleSourceCertified
// returns for that query — batching changes the cost, never the answer.
func (e *Engine) MultiSource(ctx context.Context, queries []Query) []Result {
	return e.batch(ctx, queries, false)
}

// BatchTopK is MultiSource for ranked queries: it answers each Query with
// the Query.K nodes most similar to Query.Node under Query.Measure,
// excluding the query node and Query.Exclude, with ties broken by node id.
// Boundary semantics per query follow TopK: K <= 0 yields an empty Top,
// K larger than the candidate count yields every candidate.
func (e *Engine) BatchTopK(ctx context.Context, queries []Query) []Result {
	return e.batch(ctx, queries, true)
}

// batchKey is what a batch dedupes on: the result-cache key plus the two
// knobs cacheParams strips that can still fail a query — its deadline and
// its fault hook (compared by identity, so hooks from separate With calls
// never merge).
type batchKey struct {
	cacheKey
	deadline time.Duration
	fault    *faultHook
}

// batchGroup is the queries of one batch that share a batchKey: idx lists
// their positions, the representative (which computes) first, eng carries
// the representative's per-query options, and tr is the trace the
// computation fills — the first one the group's queries carry, or nil.
type batchGroup struct {
	eng *Engine
	idx []int
	tr  *obs.Trace
}

// batch is the shared implementation of MultiSource and BatchTopK. The
// engine state is pinned once at entry, so the whole batch answers against
// one graph epoch even while ApplyEdits streams mutations concurrently.
func (e *Engine) batch(ctx context.Context, queries []Query, topk bool) []Result {
	st := e.load()
	if o := e.cfg.observer; o != nil {
		o.qBatch.Add(uint64(len(queries)))
	}
	var groups []batchGroup
	byKey := make(map[batchKey]int, len(queries))
	for i, q := range queries {
		eng := e
		if len(q.Opts) > 0 {
			eng = e.With(q.Opts...)
		}
		key := batchKey{eng.resultKey(st, q.Measure, q.Node), eng.cfg.deadline, eng.cfg.fault}
		if g, seen := byKey[key]; seen {
			groups[g].idx = append(groups[g].idx, i)
			if groups[g].tr == nil {
				groups[g].tr = q.Trace
			}
			continue
		}
		byKey[key] = len(groups)
		groups = append(groups, batchGroup{eng: eng, idx: []int{i}, tr: q.Trace})
	}

	results := make([]Result, len(queries))
	ran := make([]bool, len(groups))
	par.ForEachCtx(ctx, len(groups), e.cfg.workers, func(j int) {
		g := groups[j]
		q := queries[g.idx[0]]
		scores, maxErr, cached, err := g.eng.singleSourceObs(ctx, st, q.Measure, q.Node, g.tr)
		var spans int // the computation's stages, before any select span
		if g.tr != nil {
			spans = len(g.tr.Spans)
		}
		for d, i := range g.idx {
			q := queries[i]
			if tr := q.Trace; tr != nil && tr != g.tr {
				*tr = *g.tr
				tr.Spans = append([]obs.Span(nil), g.tr.Spans[:spans]...)
			}
			switch {
			case err != nil:
				results[i] = Result{Err: err}
			case topk:
				// Rankings select straight from the shared vector.
				t0 := time.Now()
				top := TopK(scores, q.K, append([]int{q.Node}, q.Exclude...)...)
				if q.Trace != nil {
					q.Trace.AddSpan("select", time.Since(t0))
					q.Trace.K = q.K
				}
				results[i] = Result{Top: top, Cached: cached, MaxError: maxErr}
			case d == 0:
				results[i] = Result{Scores: e.own(scores), Cached: cached, MaxError: maxErr}
			default:
				// A duplicate always copies: with the cache off the
				// representative's slot holds the kernel's own vector.
				results[i] = Result{Scores: append([]float64(nil), scores...), Cached: cached, MaxError: maxErr}
			}
		}
		ran[j] = true
	})

	// Queries the pool never dispatched (cancelled mid-batch) still owe the
	// caller an answer, and an expired deadline is counted once per group,
	// as the dispatched representatives count it.
	for j, g := range groups {
		if !ran[j] {
			err := ctx.Err()
			g.eng.cfg.observer.observeCancel(ctx, err)
			for _, i := range g.idx {
				results[i] = Result{Err: err}
			}
		}
	}
	return results
}
