package simstar

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rwr"
	"repro/internal/sparse"
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

// Stream adapts a BatchTopK Result into the lazy iterator form, carrying
// the result's Cached flag and MaxError certificate. The stream aliases
// Top — it is a view, not a copy — so a consumer can hand batch answers to
// the same sink that consumes Engine.TopKStream. A failed or MultiSource
// result streams zero entries.
func (r *Result) Stream() *TopKStream {
	return &TopKStream{ranked: r.Top, maxErr: r.MaxError, cached: r.Cached}
}

// MultiSource answers a batch of single-source queries, sharing work three
// ways no serial loop of SingleSource calls can:
//
//   - Cache first: queries answered recently come straight from the
//     engine's result cache, and duplicate queries inside one batch are
//     computed once.
//   - Blocked kernels: queries on the same measure family with the same
//     parameters (SimRank* geometric/exponential and RWR — the measures
//     with native single-source forms) are stacked into n×B blocks and
//     answered by one blocked sweep per iteration over the cached
//     transition structure, instead of one sweep per query.
//   - Fan-out: everything else is spread across a worker pool (WithWorkers
//     bounds it; the default is one worker per CPU), dispatching queries
//     from a shared counter so one expensive query does not serialise a
//     chunk of the batch behind it.
//
// How each kernel group executes — blocked, sieved, or single-source
// fan-out, and at what chunk width — is chosen per batch by a greedy cost
// heuristic (see planGroup); the plan changes the cost, never the answer.
//
// Each query may carry Opts overriding the engine's parameters for that
// query alone. Cancellation is two-level: ctx aborts the kernels of queries
// already running (they return ctx's error in their Result) and stops
// undispatched queries from starting, which report ctx's error likewise.
// The returned slice always has len(queries) entries, in query order, and
// every entry's scores are identical to what SingleSource returns for that
// query — batching changes the cost, never the answer.
func (e *Engine) MultiSource(ctx context.Context, queries []Query) []Result {
	return e.batch(ctx, queries, false, nil)
}

// BatchTopK is MultiSource for ranked queries: it answers each Query with
// the Query.K nodes most similar to Query.Node under Query.Measure,
// excluding the query node and Query.Exclude, with ties broken by node id.
// Boundary semantics per query follow TopK: K <= 0 yields an empty Top,
// K larger than the candidate count yields every candidate.
func (e *Engine) BatchTopK(ctx context.Context, queries []Query) []Result {
	return e.batch(ctx, queries, true, nil)
}

// MultiSourceTrace is MultiSource with the batch planner's decisions
// recorded into the caller's trace: tr.Plan lists, per kernel group, the
// route chosen and the chunk width (sorted for determinism). The caller
// owns every other trace field, including the Finish stamp; a nil tr makes
// it exactly MultiSource.
func (e *Engine) MultiSourceTrace(ctx context.Context, queries []Query, tr *obs.Trace) []Result {
	return e.batch(ctx, queries, false, tr)
}

// BatchTopKTrace is BatchTopK with the batch planner's decisions recorded
// into the caller's trace, exactly as MultiSourceTrace records them.
func (e *Engine) BatchTopKTrace(ctx context.Context, queries []Query, tr *obs.Trace) []Result {
	return e.batch(ctx, queries, true, tr)
}

// blockColumns caps the width of one blocked-kernel invocation. Each column
// costs the kernel O(K·n) floats of workspace — the same transient footprint
// as one single-source query — so the cap bounds batch memory at roughly 64
// in-flight queries' worth regardless of batch size.
const blockColumns = 64

// blockKernel names a blocked multi-source kernel.
type blockKernel int

const (
	blockNone blockKernel = iota
	blockGeometric
	blockExponential
	blockRWR
)

// blockKernelFor maps a resolved built-in measure to its blocked kernel.
// The memo variants share the iterative single-source fast path (see
// Engine.SingleSource), so they block identically.
func blockKernelFor(builtin string) blockKernel {
	switch builtin {
	case MeasureGeometric, MeasureGeometricMemo:
		return blockGeometric
	case MeasureExponential, MeasureExponentialMemo:
		return blockExponential
	case MeasureRWR:
		return blockRWR
	}
	return blockNone
}

// groupRoute is the execution strategy the batch planner picks for one
// kernel group.
type groupRoute int

const (
	// routeFanout answers the group's queries through the pooled
	// single-source fast path on the worker pool, cache-probe-first: each
	// query re-probes the result cache at dispatch, catching entries
	// populated after the batch's phase-1 probe.
	routeFanout groupRoute = iota
	// routeBlocked stacks the group into n×B dense blocks and runs the
	// exact blocked SpMM kernels.
	routeBlocked
	// routeSieved runs the threshold-sieved approximate kernels, chunked
	// across the worker pool.
	routeSieved
)

func (r groupRoute) String() string {
	switch r {
	case routeFanout:
		return "fanout"
	case routeBlocked:
		return "blocked"
	case routeSieved:
		return "sieved"
	}
	return "?"
}

// groupPlan is the planner's decision for one kernel group: the route, the
// chunk width one kernel invocation covers, and a human-readable note for
// the query trace.
type groupPlan struct {
	route groupRoute
	chunk int
	note  string
}

// planGroup is the greedy cost heuristic behind MultiSource and BatchTopK:
// given one kernel group's parameters, its width b (distinct query nodes),
// the graph shape (n nodes, m edges), the batch worker budget, and the
// result cache's lifetime hit rate, pick how the group executes. The
// signals, in the order they gate:
//
//   - Tolerance: sieved groups always stay sieved — the MaxError
//     certificate is part of the answer, so rerouting to an exact kernel
//     would change what the query returns, not just its cost. The chunk
//     width comes from the expected frontier growth d̄ᵏ (d̄ = m/n): a
//     frontier that saturates the graph makes every query cost a
//     dense-like sweep, so saturating groups split ~4× finer than the
//     worker count for load balance, while cheap sparse-frontier groups
//     split once per worker to minimise per-chunk workspace setup.
//   - Width: a group of one — or of ≤ 2 when the result cache has been
//     absorbing at least half of recent lookups — cannot amortise a
//     blocked run's transpose access and O(K·n·B) workspace, so it routes
//     to the pooled zero-alloc single-source path, which also re-probes
//     the cache right before computing.
//   - Block width: everything else runs blocked, chunked at the dense
//     panel-kernel crossover (sparse.PanelMaxCols, the width
//     BenchmarkMulDenseWidth measures the panel kernel to win from) when
//     the group fits one panel chunk, at blockColumns otherwise to bound
//     workspace memory.
//
// The plan is pure — same inputs, same decision — and changes only the
// execution schedule, never any result.
func planGroup(cfg config, b, n, m, workers int, hitRate float64) groupPlan {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if cfg.tolerance >= MinTolerance {
		growth := 1.0
		if n > 0 {
			growth = float64(m) / float64(n)
		}
		est := math.Pow(growth, float64(cfg.iterationsOrDefault()))
		saturates := est >= float64(n)/2
		chunk := (b + workers - 1) / workers
		if saturates {
			chunk = (b + 4*workers - 1) / (4 * workers)
		}
		chunk = max(1, min(chunk, blockColumns))
		return groupPlan{
			route: routeSieved,
			chunk: chunk,
			note:  fmt.Sprintf("sieved b=%d chunk=%d sat=%t", b, chunk, saturates),
		}
	}
	if b == 1 || (b <= 2 && hitRate >= 0.5) {
		return groupPlan{route: routeFanout, chunk: 1, note: fmt.Sprintf("fanout b=%d", b)}
	}
	chunk := blockColumns
	if b <= sparse.PanelMaxCols {
		chunk = sparse.PanelMaxCols
	}
	return groupPlan{
		route: routeBlocked,
		chunk: chunk,
		note:  fmt.Sprintf("blocked b=%d chunk=%d", b, chunk),
	}
}

// iterationsOrDefault resolves the effective iteration count with the
// kernels' own default (K=5) applied, so the planner's frontier estimate
// uses the truncation depth the sweeps will actually run.
func (cfg config) iterationsOrDefault() int {
	if k := cfg.iterations(); k > 0 {
		return k
	}
	return 5
}

// hitRate is the result cache's lifetime hit fraction, the planner's
// "cache is hot" signal; 0 before any lookup.
func (e *Engine) hitRate() float64 {
	s := e.cache.snapshot()
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// batch is the shared implementation of MultiSource and BatchTopK. The
// engine state is pinned once at entry, so the whole batch answers against
// one graph epoch even while ApplyEdits streams mutations concurrently.
// tr, when non-nil, receives the planner's per-group routing notes.
func (e *Engine) batch(ctx context.Context, queries []Query, topk bool, tr *obs.Trace) []Result {
	st := e.load()
	if o := e.cfg.observer; o != nil {
		o.qBatch.Add(uint64(len(queries)))
	}
	results := make([]Result, len(queries))
	done := make([]bool, len(queries))

	finish := func(i int, scores []float64, maxErr float64, cached bool) {
		q := queries[i]
		if topk {
			results[i] = Result{
				Top:      TopK(scores, q.K, append([]int{q.Node}, q.Exclude...)...),
				Cached:   cached,
				MaxError: maxErr,
			}
		} else {
			results[i] = Result{Scores: scores, Cached: cached, MaxError: maxErr}
		}
		done[i] = true
	}

	// Phase 1: resolve each query, serve cache hits, and group the
	// blockable remainder by (kernel, parameters).
	type groupKey struct {
		kernel blockKernel
		params config
	}
	type group struct {
		eng  *Engine
		idx  []int // query indices, in order
		keys []cacheKey
	}
	groups := make(map[groupKey]*group)
	keys := make([]cacheKey, len(queries))
	engs := make([]*Engine, len(queries))
	var rest []int
	for i, q := range queries {
		eng := e
		if len(q.Opts) > 0 {
			eng = e.With(q.Opts...)
		}
		engs[i] = eng
		if err := st.checkQuery(ctx, q.Node); err != nil {
			results[i] = Result{Err: err}
			done[i] = true
			continue
		}
		key := cacheKey{
			measure: canonical(q.Measure),
			gen:     registryGeneration(),
			epoch:   st.epoch,
			layout:  st.layoutKey(),
			params:  eng.cfg.cacheParams(),
			node:    q.Node,
		}
		keys[i] = key
		if scores, maxErr, ok := eng.cacheLookup(key); ok {
			finish(i, scores, maxErr, true)
			continue
		}
		// Unknown measure names resolve to no block kernel and fall through
		// to the fan-out path, whose Lookup reports the error per query.
		kernel := blockKernelFor(builtinFor(q.Measure))
		if kernel == blockNone {
			rest = append(rest, i)
			continue
		}
		gk := groupKey{kernel: kernel, params: key.params}
		g := groups[gk]
		if g == nil {
			g = &group{eng: eng}
			groups[gk] = g
		}
		g.idx = append(g.idx, i)
		g.keys = append(g.keys, key)
	}

	// Phase 2: plan, then run, each kernel group. The planner routes a
	// group to one of three executions — blocked (exact dense SpMM, groups
	// run sequentially, the kernels fan rows out internally), sieved (the
	// approximate kernels process a chunk serially on one workspace, so
	// chunks spread across the pool — each touches a disjoint set of
	// result slots, so the writes never race), or single-source fan-out
	// (the group joins phase 3's pool) — and picks the chunk width.
	// Deduplication is per group: nodes repeated within a group compute
	// once.
	hitRate := e.hitRate()
	var planNotes []string
	for gk, g := range groups {
		// Distinct nodes in first-appearance order; queryOf[node] lists the
		// group positions wanting that node.
		var nodes []int
		queryOf := make(map[int][]int)
		for pos, i := range g.idx {
			node := queries[i].Node
			if _, seen := queryOf[node]; !seen {
				nodes = append(nodes, node)
			}
			queryOf[node] = append(queryOf[node], pos)
		}
		plan := planGroup(g.eng.cfg, len(nodes), st.g.N(), st.g.M(), e.cfg.workers, hitRate)
		if tr != nil {
			planNotes = append(planNotes, plan.note)
		}
		if plan.route == routeFanout {
			rest = append(rest, g.idx...)
			continue
		}
		chunk := plan.chunk
		nChunks := (len(nodes) + chunk - 1) / chunk
		process := func(ci int) {
			lo, hi := ci*chunk, (ci+1)*chunk
			if hi > len(nodes) {
				hi = len(nodes)
			}
			block, maxErrs, err := g.eng.runBlock(ctx, st, gk.kernel, nodes[lo:hi])
			if err != nil {
				for _, node := range nodes[lo:hi] {
					for _, pos := range queryOf[node] {
						results[g.idx[pos]] = Result{Err: err}
						done[g.idx[pos]] = true
					}
				}
				return
			}
			for t, node := range nodes[lo:hi] {
				var maxErr float64
				if maxErrs != nil {
					maxErr = maxErrs[t]
				}
				for dup, pos := range queryOf[node] {
					scores := block[t]
					if dup > 0 {
						// Duplicate queries each own their slice; the first
						// takes the kernel's, the rest take copies.
						scores = append([]float64(nil), block[t]...)
					}
					e.cache.put(g.keys[pos], scores, maxErr)
					finish(g.idx[pos], scores, maxErr, false)
				}
			}
		}
		if plan.route == routeSieved {
			// Chunks the pool never dispatches (cancelled mid-batch) leave
			// their queries !done; the catch-all below answers them.
			par.ForEachCtx(ctx, nChunks, e.cfg.workers, process)
		} else {
			for ci := 0; ci < nChunks; ci++ {
				process(ci)
			}
		}
	}
	if tr != nil && len(planNotes) > 0 {
		// The group map iterates in random order; sort for a stable trace.
		sort.Strings(planNotes)
		tr.Plan = strings.Join(planNotes, "; ")
	}

	// Phase 3: fan the unblockable remainder across the worker pool. Like
	// the blocked path, duplicate queries (same cache key) compute once:
	// one representative per key runs, the rest share its result.
	dup := make(map[cacheKey][]int)
	var uniq []int
	for _, i := range rest {
		if _, seen := dup[keys[i]]; !seen {
			uniq = append(uniq, i)
		}
		dup[keys[i]] = append(dup[keys[i]], i)
	}
	par.ForEachCtx(ctx, len(uniq), e.cfg.workers, func(j int) {
		i := uniq[j]
		// count=false: the whole batch was counted under kind=batch above.
		scores, maxErr, cached, err := engs[i].singleSourceObs(ctx, st, queries[i].Measure, queries[i].Node, false, nil)
		for d, ii := range dup[keys[i]] {
			switch {
			case err != nil:
				results[ii] = Result{Err: err}
				done[ii] = true
			case d == 0:
				finish(ii, scores, maxErr, cached)
			default:
				finish(ii, append([]float64(nil), scores...), maxErr, cached)
			}
		}
	})

	// Queries the pool never dispatched (cancelled mid-batch) still owe the
	// caller an answer.
	for i := range results {
		if !done[i] {
			results[i] = Result{Err: ctx.Err()}
		}
	}
	return results
}

// runBlock answers one chunk of same-kernel, same-parameter queries over
// the pinned state's cached structures: sieved-approximate multi-source
// kernels (shared workspace, per-query MaxError certificates) when the
// group's parameters carry an effective tolerance, the blocked dense
// multi-source kernels otherwise. Under WithRelabeling the block runs on
// the permuted operators — query nodes are translated in, every result
// column is translated back out, so callers always see external ids. The
// maxErrs slice is nil on the exact paths — every query in the block is
// then certified at 0.
func (e *Engine) runBlock(ctx context.Context, st *engineState, kernel blockKernel, nodes []int) (block [][]float64, maxErrs []float64, err error) {
	ctx, cancel := e.cfg.deadlineCtx(ctx)
	if cancel != nil {
		defer cancel()
	}
	defer func() {
		if err != nil {
			e.cfg.observer.observeCancel(ctx, err)
		}
	}()
	defer e.recoverKernel(&err)
	e.cfg.fireFault(FaultPointKernel)
	if st.layout != nil {
		internal := make([]int, len(nodes))
		for i, q := range nodes {
			internal[i] = int(st.layout.perm[q])
		}
		nodes = internal
	}
	block, maxErrs, err = e.runBlockKernel(ctx, st, kernel, nodes)
	if err != nil || st.layout == nil {
		return block, maxErrs, err
	}
	ws := st.getWS()
	defer st.putWS(ws)
	for _, col := range block {
		st.externalize(col, ws)
	}
	return block, maxErrs, nil
}

// runBlockKernel dispatches one chunk to its kernel in the state's layout.
// Under WithParallelSweeps(n > 1) the chunk borrows a sweeper, so its sweeps
// — sparse scatters on the sieved paths, dense SpMM panels on the blocked
// ones — fan out at exactly the configured width; otherwise the blocked
// kernels keep their own internal all-core row fan-out (the default) and
// the sieved kernels run serially per chunk.
func (e *Engine) runBlockKernel(ctx context.Context, st *engineState, kernel blockKernel, nodes []int) ([][]float64, []float64, error) {
	sw := st.sweeperFor(e.cfg)
	if sw != nil {
		defer st.putSweeper(sw)
	}
	if tol := e.cfg.tolerance; tol >= MinTolerance {
		switch kernel {
		case blockGeometric:
			opt := e.cfg.coreOptions()
			opt.Parallel = sw
			return core.ApproxMultiSourceGeometricFromTransition(ctx, st.kernelBackward(), st.kernelBackwardT(), nodes, tol, opt)
		case blockExponential:
			opt := e.cfg.coreOptions()
			opt.Parallel = sw
			return core.ApproxMultiSourceExponentialFromTransition(ctx, st.kernelBackward(), st.kernelBackwardT(), nodes, tol, opt)
		case blockRWR:
			opt := e.cfg.rwrOptions()
			opt.Parallel = sw
			return rwr.ApproxMultiSourceFromTransition(ctx, st.kernelForward(), nodes, tol, opt)
		}
		panic("simstar: unreachable block kernel")
	}
	switch kernel {
	case blockGeometric:
		opt := e.cfg.coreOptions()
		opt.Parallel = sw
		scores, err := core.MultiSourceGeometricFromTransition(ctx, st.kernelBackward(), st.kernelBackwardT(), nodes, opt)
		return scores, nil, err
	case blockExponential:
		opt := e.cfg.coreOptions()
		opt.Parallel = sw
		scores, err := core.MultiSourceExponentialFromTransition(ctx, st.kernelBackward(), st.kernelBackwardT(), nodes, opt)
		return scores, nil, err
	case blockRWR:
		opt := e.cfg.rwrOptions()
		opt.Parallel = sw
		scores, err := rwr.MultiSourceFromTransition(ctx, st.kernelForward(), st.kernelForwardT(), nodes, opt)
		return scores, nil, err
	}
	panic("simstar: unreachable block kernel")
}
