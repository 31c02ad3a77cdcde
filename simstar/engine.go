package simstar

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/biclique"
	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/dyngraph"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rwr"
	"repro/internal/simrank"
	"repro/internal/sparse"
)

// compress mines the biclique compression for a standalone measure call.
// Engine callers hit the cached copy instead.
func compress(g *Graph, cfg config) *biclique.Compressed {
	return biclique.Compress(g, cfg.miner.internal())
}

// Engine answers similarity queries for one evolving graph with
// preprocessing amortised across queries. NewEngine eagerly builds and
// caches, for the base graph:
//
//   - the CSR backward transition matrix Q (SimRank-family measures),
//   - the CSR forward transition matrix W (RWR),
//   - the biclique edge-concentration compression (the memo-* variants).
//
// Standalone Measure calls rebuild those structures on every invocation —
// an O(m) (and for the compression, far worse) cost that a system serving
// heavy query traffic cannot pay per request.
//
// The graph is no longer frozen at construction: ApplyEdits streams edge
// insertions and removals through an internal dyngraph store, and each
// materialised epoch swaps in a fresh immutable state (graph + transition
// matrices, the latter spliced incrementally from the previous epoch rather
// than rebuilt). Queries read the state with one atomic load at entry and
// keep it for their whole run, so updates never stall queries, queries never
// block updates, and a query batch always sees one coherent epoch. The
// result cache keys on the epoch, so a mutation can never serve stale
// scores. An Engine therefore serves concurrent SingleSource / TopK /
// AllPairs / MultiSource / BatchTopK queries and ApplyEdits calls safely
// without external locking.
type Engine struct {
	cfg  config
	opts []Option

	// store is the versioned write path: the append-only delta log and the
	// epoch materialisation policy live there. Engines derived through With
	// share it — they are views of the same evolving graph.
	store *dyngraph.Store

	// state is the read path: the current epoch's immutable preprocessed
	// structures, swapped wholesale on refresh. Shared across With.
	state *atomic.Pointer[engineState]

	// editMu serialises ApplyEdits/Refresh so each materialised delta is
	// spliced onto the state it was computed against. Never held by queries.
	editMu *sync.Mutex

	// cache holds recent single-source score vectors, keyed by (canonical
	// measure, registry generation, parameters, graph epoch, query node).
	// It is shared — not copied — by the engines With returns, since they
	// serve the same graph; the epoch in the key versions entries across
	// mutations, so hits from earlier epochs simply stop matching.
	cache *resultCache
}

// engineState is everything one graph epoch serves queries from. All fields
// are immutable after the state is published (the lazily-built members and
// the scratch pools synchronise internally), so readers share it freely.
type engineState struct {
	g     *Graph
	epoch uint64

	backward *sparse.CSR // Q: row-normalised transposed adjacency
	forward  *sparse.CSR // W: row-normalised adjacency
	comp     *compHolder // edge-concentration compression, possibly lazy
	tr       *transposes // lazily-materialised Qᵀ, Wᵀ for the batch kernels

	// layout is the cache-conscious relabeling of this epoch, nil without
	// WithRelabeling. The natural-order matrices above always exist — the
	// incremental refresh splices them, and all-pairs queries run on them —
	// while the single-source and batch fast paths run on layout's permuted
	// copies.
	layout *layoutState

	// pools is the per-query scratch the fast paths borrow. It is a separate
	// allocation, never embedded: the runtime's list of used pools holds
	// each pool until the second GC after its last use, and a pool inside
	// the state would keep a superseded epoch's graph and operators
	// reachable with it. Consecutive epochs with one node count share a set
	// (see finishEdits), so an epoch's first queries reuse warm arenas.
	pools *scratchPools

	// transitionTime is what building (epoch 0) or incrementally refreshing
	// (later epochs) the two transition matrices cost.
	transitionTime time.Duration
}

// newEngineState assembles the shell of an epoch state around its scratch
// pools: the transition matrices, compression and layout are filled in by
// the caller.
func newEngineState(g *Graph, epoch uint64, pools *scratchPools) *engineState {
	return &engineState{g: g, epoch: epoch, tr: &transposes{}, pools: pools}
}

// scratchPools recycles the per-query scratch of the fast paths for one
// node count. The workspaces and streaming buffers are dimensioned to that
// count, so a state of another count must not borrow from the set.
type scratchPools struct {
	// workspaces recycles the kernel workspaces of the exact single-source
	// fast paths, so steady-state queries allocate nothing beyond their
	// result.
	workspaces sync.Pool

	// streams recycles the score/exclusion scratch of the TopKStream fast
	// path, so a streamed top-k query materialises no per-query O(n)
	// vector. Separate from workspaces because the kernels reset their
	// workspace — the scores under selection cannot share it.
	streams sync.Pool

	// sweepers recycles the intra-query sweep-parallelism worker pools
	// (sparse.Sweeper) queries borrow under WithParallelSweeps. One sweeper
	// is owned by exactly one query for its whole run — its workers and
	// per-worker arenas are private to that borrow — and returns here with
	// its goroutines still parked, so steady-state parallel queries spawn
	// nothing and allocate nothing.
	sweepers sync.Pool
}

// newScratchPools builds an empty set for n-node states. A non-nil observer
// counts the pool misses — the workspace builds the pool could not serve
// from a recycled arena (every build allocates anyway, so the hook is off
// the zero-alloc path by construction).
func newScratchPools(n int, o *Observer) *scratchPools {
	p := &scratchPools{}
	p.workspaces.New = func() any {
		if o != nil {
			o.poolMisses.Inc()
		}
		return sparse.NewWorkspace(n)
	}
	p.streams.New = func() any { return &streamScratch{scores: make([]float64, n)} }
	p.sweepers.New = func() any { return sparse.NewSweeper(1) }
	return p
}

// layoutGen numbers every layout ever derived, so result-cache keys can
// version on the layout instance (see cacheKey).
var layoutGen atomic.Uint64

// layoutState is one epoch's node relabeling: the permutation (and its
// inverse) plus the permuted operators the fast-path kernels sweep. It is
// immutable after construction.
type layoutState struct {
	mode RelabelMode
	gen  uint64  // unique per derived layout; 0 means "no relabeling"
	perm []int32 // perm[external] = internal; both translation directions
	// gather through perm (see toInternal/externalize), so the inverse is
	// never materialised here.

	backward *sparse.CSR // P·Q·Pᵀ
	forward  *sparse.CSR // P·W·Pᵀ
	tr       *transposes // lazily-materialised permuted transposes
}

// newLayoutState derives the permutation for mode from g and permutes the
// already-built natural-order transitions. Modes this package does not know
// degrade to no relabeling rather than failing the engine build.
func newLayoutState(mode RelabelMode, g *Graph, backward, forward *sparse.CSR) *layoutState {
	var perm []int32
	switch mode {
	case RelabelDegree:
		perm = graph.DegreeOrder(g)
	case RelabelRCM:
		perm = graph.RCMOrder(g)
	default:
		return nil
	}
	return &layoutState{
		mode:     mode,
		gen:      layoutGen.Add(1),
		perm:     perm,
		backward: sparse.Permute(backward, perm),
		forward:  sparse.Permute(forward, perm),
		tr:       &transposes{},
	}
}

// transposes holds the transposes Qᵀ and Wᵀ of one operator pair, each
// built on its first use and independently of the other: sieved SimRank*
// reads need only Qᵀ, and a parallel exact sweep needs only the transpose
// of the operator it sweeps.
type transposes struct {
	backward, forward lazyTranspose
}

// lazyTranspose is one transpose, materialised once per epoch like the
// transitions themselves, but only by callers of the batch, sieved and
// parallel paths.
type lazyTranspose struct {
	once sync.Once
	t    *sparse.CSR
}

// of returns the transpose of m, building it on first use.
func (lt *lazyTranspose) of(m *sparse.CSR) *sparse.CSR {
	lt.once.Do(func() { lt.t = m.Transpose() })
	return lt.t
}

// The kernel* accessors return the operators the single-source and batch
// fast paths should sweep: the relabelled copies when a layout exists, the
// natural order otherwise.

func (st *engineState) kernelBackward() *sparse.CSR {
	if st.layout != nil {
		return st.layout.backward
	}
	return st.backward
}

func (st *engineState) kernelForward() *sparse.CSR {
	if st.layout != nil {
		return st.layout.forward
	}
	return st.forward
}

func (st *engineState) kernelBackwardT() *sparse.CSR {
	if st.layout != nil {
		return st.layout.tr.backward.of(st.layout.backward)
	}
	return st.tr.backward.of(st.backward)
}

func (st *engineState) kernelForwardT() *sparse.CSR {
	if st.layout != nil {
		return st.layout.tr.forward.of(st.layout.forward)
	}
	return st.tr.forward.of(st.forward)
}

// layoutKey is the layout generation for result-cache keys: 0 without
// relabeling.
func (st *engineState) layoutKey() uint64 {
	if st.layout == nil {
		return 0
	}
	return st.layout.gen
}

// layoutMode reports the relabeling this state serves, so a refresh can
// re-derive the same mode for the next epoch.
func (st *engineState) layoutMode() RelabelMode {
	if st.layout == nil {
		return RelabelNone
	}
	return st.layout.mode
}

// layoutName names the state's relabeling for traces; empty in natural
// order, so the trace field omits cleanly.
func (st *engineState) layoutName() string {
	switch st.layoutMode() {
	case RelabelDegree:
		return "degree"
	case RelabelRCM:
		return "rcm"
	}
	return ""
}

// toInternal translates an external (graph) node id into the kernel layout.
func (st *engineState) toInternal(q int) int {
	if st.layout == nil {
		return q
	}
	return int(st.layout.perm[q])
}

// externalize rearranges a kernel-layout score vector into external id
// order in place, staging through one workspace buffer. A no-op without a
// layout.
func (st *engineState) externalize(scores []float64, ws *sparse.Workspace) {
	if st.layout == nil {
		return
	}
	ws.Reset()
	tmp := ws.Raw()
	copy(tmp, scores)
	perm := st.layout.perm
	for e := range scores {
		scores[e] = tmp[perm[e]]
	}
}

// getWS borrows a kernel workspace from the state's pools; putWS returns it.
func (st *engineState) getWS() *sparse.Workspace {
	return st.pools.workspaces.Get().(*sparse.Workspace)
}

func (st *engineState) putWS(ws *sparse.Workspace) { st.pools.workspaces.Put(ws) }

// getSweeper borrows a sweep-parallelism worker pool; putSweeper returns it.
func (st *engineState) getSweeper() *sparse.Sweeper   { return st.pools.sweepers.Get().(*sparse.Sweeper) }
func (st *engineState) putSweeper(sw *sparse.Sweeper) { st.pools.sweepers.Put(sw) }

// sweeperFor borrows a sweeper configured to cfg's WithParallelSweeps
// setting, or nil when the query should run its sweeps serially (the
// default). A non-nil return is owned by the calling query until it is
// handed back with putSweeper — the single-borrower rule the kernels'
// Options document.
func (st *engineState) sweeperFor(cfg config) *sparse.Sweeper {
	w := cfg.sweepWorkers()
	if w <= 1 {
		return nil
	}
	sw := st.getSweeper()
	sw.Configure(w)
	//simstar:lint-ignore poolescape configuring accessor: callers own the loan and defer putSweeper on every non-nil return
	return sw
}

// compHolder defers the biclique mining of a refreshed epoch until a memo
// query needs it: mining is the expensive part of preprocessing, and the
// update path must not pay it inline. The mined result is published through
// an atomic pointer so Stats can peek without forcing the build; until this
// epoch has mined, peek falls back to the most recently mined epoch's
// result (prev), so compression stats never flap to zero across mutations.
type compHolder struct {
	g     *Graph
	miner biclique.Options
	prev  *compResult // last-mined result of an earlier epoch, or nil
	once  sync.Once
	res   atomic.Pointer[compResult]
}

type compResult struct {
	c   *biclique.Compressed
	dur time.Duration
}

func newCompHolder(g *Graph, miner biclique.Options, prev *compResult) *compHolder {
	return &compHolder{g: g, miner: miner, prev: prev}
}

// get returns this epoch's compression, mining it on first use.
func (h *compHolder) get() *biclique.Compressed {
	h.once.Do(func() {
		t0 := time.Now()
		c := biclique.Compress(h.g, h.miner)
		h.res.Store(&compResult{c: c, dur: time.Since(t0)})
	})
	return h.res.Load().c
}

// peek returns the most recently mined compression — this epoch's if it has
// been built, an earlier epoch's otherwise — without forcing a build.
func (h *compHolder) peek() *compResult {
	if cr := h.res.Load(); cr != nil {
		return cr
	}
	return h.prev
}

// EngineStats reports the served graph and what preprocessing cost. For an
// epoch produced by ApplyEdits, TransitionTime is the incremental refresh
// cost and the compression fields describe the most recent epoch whose
// compression has actually been mined (mining is lazy after mutations:
// the first memo-variant query of an epoch pays it).
type EngineStats struct {
	// Nodes and Edges are the size of the served graph at the current epoch.
	Nodes, Edges int
	// Epoch is the graph version being served; 0 until the first
	// materialised mutation (or the warm-start epoch under WithBaseEpoch).
	Epoch uint64
	// PendingEdits counts edits applied but not yet materialised into a
	// snapshot (only non-zero under WithEpochInterval > 1).
	PendingEdits int
	// CompressedEdges is m̃, the edge count of the compressed bigraph.
	CompressedEdges int
	// ConcentrationNodes is the number of mined bicliques.
	ConcentrationNodes int
	// CompressionRatio is (1 − m̃/m)·100%.
	CompressionRatio float64
	// TransitionTime covers building (or incrementally refreshing) both CSR
	// transition matrices for the current epoch.
	TransitionTime time.Duration
	// CompressionTime covers the biclique mining, when it has run.
	CompressionTime time.Duration
}

// NewEngine builds the per-graph caches and returns a query engine. The
// options become the engine's defaults for every query it serves. The base
// epoch's compression is mined eagerly, so the engine is fully warmed for
// every measure before the first query. Under WithRelabeling the
// cache-conscious permutation and the permuted operators are also derived
// here, as part of the amortised preprocessing.
func NewEngine(g *Graph, opts ...Option) *Engine {
	e := &Engine{cfg: buildConfig(opts), opts: opts}
	e.cache = newResultCache(e.cfg.cacheSize)
	e.editMu = &sync.Mutex{}
	e.state = &atomic.Pointer[engineState]{}
	e.store = dyngraph.New(g,
		dyngraph.WithInterval(e.cfg.epochInterval),
		dyngraph.WithBaseEpoch(e.cfg.baseEpoch))
	st := newEngineState(g, e.cfg.baseEpoch, newScratchPools(g.N(), e.cfg.observer))
	t0 := time.Now()
	st.backward = sparse.BackwardTransition(g)
	st.forward = sparse.ForwardTransition(g)
	st.layout = newLayoutState(e.cfg.relabel, g, st.backward, st.forward)
	st.transitionTime = time.Since(t0)
	st.comp = newCompHolder(g, e.cfg.miner.internal(), nil)
	st.comp.get()
	e.state.Store(st)
	return e
}

// load returns the current epoch's state. Queries call it once at entry and
// carry the state through, so one request never straddles two epochs.
func (e *Engine) load() *engineState { return e.state.Load() }

// Graph returns the graph of the epoch the engine currently serves.
func (e *Engine) Graph() *Graph { return e.load().g }

// With returns an engine that shares the receiver's graph, store and cached
// structures but applies opts on top of the receiver's options —
// per-request parameter overrides (a different K, a deadline-driven ε)
// without repeating the preprocessing. The receiver is not modified; edits
// applied through either engine are visible to both. Structure-shaping
// options are fixed at construction: a WithMiner passed here does not
// re-mine the shared compression, and a WithEpochInterval here does not
// re-tune the shared store (build a new Engine for those).
func (e *Engine) With(opts ...Option) *Engine {
	ne := *e
	ne.opts = append(append([]Option(nil), e.opts...), opts...)
	ne.cfg = buildConfig(ne.opts)
	return &ne
}

// Stats returns the preprocessing summary for the current epoch.
func (e *Engine) Stats() EngineStats {
	st := e.load()
	s := EngineStats{
		Nodes:          st.g.N(),
		Edges:          st.g.M(),
		Epoch:          st.epoch,
		PendingEdits:   e.store.Pending(),
		TransitionTime: st.transitionTime,
	}
	if cr := st.comp.peek(); cr != nil {
		s.CompressedEdges = cr.c.MCompressed
		s.ConcentrationNodes = cr.c.NumConcentration()
		s.CompressionRatio = cr.c.CompressionRatio()
		s.CompressionTime = cr.dur
	}
	return s
}

// CacheStats returns the current state and lifetime counters of the
// single-source result cache. Engines derived through With share the
// receiver's cache and therefore report the same stats.
func (e *Engine) CacheStats() CacheStats { return e.cache.snapshot() }

// PurgeCache drops every cached single-source result and resets the cache
// counters. Queries in flight are unaffected. There is normally no reason to
// call this — the cache can never serve a stale answer for this engine's
// graph, because every mutation epoch and registry change versions the keys
// — but a server may want it to release memory (entries from dead epochs
// age out through the LRU rather than instantly) or to start a measurement
// epoch clean.
func (e *Engine) PurgeCache() { e.cache.purge() }

// fastPathKernel reports whether a canonical built-in name has an engine
// single-source fast path over the cached transition matrices (the measures
// with native single-source forms; the memo variants share the iterative
// path — the results are identical).
func fastPathKernel(builtin string) bool {
	switch builtin {
	case MeasureGeometric, MeasureGeometricMemo,
		MeasureExponential, MeasureExponentialMemo, MeasureRWR:
		return true
	}
	return false
}

// SingleSource returns the scores of query node q against every node under
// the named measure. It is served from the cached transition structures
// where the measure supports it, and from the result cache when the same
// (measure, parameters, node) was answered recently on the same graph
// epoch. The returned slice is the caller's to keep and mutate. Under
// WithTolerance the scores are sieved-approximate; use
// SingleSourceCertified to also receive the MaxError certificate.
func (e *Engine) SingleSource(ctx context.Context, measureName string, q int) ([]float64, error) {
	scores, _, _, err := e.singleSource(ctx, e.load(), measureName, q)
	return scores, err
}

// SingleSourceCertified is SingleSource plus the result's MaxError
// certificate: a machine-checkable bound on the element-wise deviation of
// the returned scores from the exact kernels at the same parameters. It is
// 0 for exact queries (the default) and at most the configured tolerance
// for sieved-approximate ones.
func (e *Engine) SingleSourceCertified(ctx context.Context, measureName string, q int) ([]float64, float64, error) {
	scores, maxErr, _, err := e.singleSource(ctx, e.load(), measureName, q)
	return scores, maxErr, err
}

// cacheLookup probes the result cache for key, then — for an approximate
// request — for the exact (tolerance-zero) variant of the same key, since
// an exact result satisfies every tolerance with a zero certificate. A
// donor hit counts one miss (the approximate key) and one hit in the cache
// stats; the engine observer, when present, counts the probe's final
// outcome once.
func (e *Engine) cacheLookup(key cacheKey) ([]float64, float64, bool) {
	scores, maxErr, ok := e.cache.get(key)
	if !ok && key.params.tolerance >= MinTolerance {
		exact := key
		exact.params.tolerance = 0
		if donor, _, donorOK := e.cache.get(exact); donorOK {
			scores, maxErr, ok = donor, 0, true
		}
	}
	if o := e.cfg.observer; o != nil {
		if ok {
			o.cacheHits.Inc()
		} else {
			o.cacheMisses.Inc()
		}
	}
	if !ok {
		return nil, 0, false
	}
	return scores, maxErr, true
}

// singleSource is SingleSourceCertified against one pinned state, plus a
// flag reporting whether the result came out of the result cache —
// surfaced through batch Results and simserve responses.
func (e *Engine) singleSource(ctx context.Context, st *engineState, measureName string, q int) ([]float64, float64, bool, error) {
	return e.singleSourceObs(ctx, st, measureName, q, true, nil)
}

// singleSourceObs is the instrumented core of the allocating single-source
// read path. count=false suppresses the per-query counter for callers that
// count under their own kind (batch fan-out, stream slow path); tr, when
// non-nil, receives the staged trace — the plan/cache/kernel spans, the
// cache outcome and the kernel detail — with the caller owning the final
// Finish stamp.
func (e *Engine) singleSourceObs(ctx context.Context, st *engineState, measureName string, q int, count bool, tr *obs.Trace) ([]float64, float64, bool, error) {
	o := e.cfg.observer
	if count && o != nil {
		o.qSingle.Inc()
	}
	ctx, cancel := e.cfg.deadlineCtx(ctx)
	if cancel != nil {
		defer cancel()
	}
	t0 := time.Now()
	if err := st.checkQuery(ctx, q); err != nil {
		o.observeCancel(ctx, err)
		return nil, 0, false, err
	}
	key := cacheKey{
		measure: canonical(measureName),
		gen:     registryGeneration(),
		epoch:   st.epoch,
		layout:  st.layoutKey(),
		params:  e.cfg.cacheParams(),
		node:    q,
	}
	if tr != nil {
		tr.Measure = key.measure
		tr.Node = q
		tr.Epoch = st.epoch
		tr.Layout = st.layoutName()
		tr.AddSpan("plan", time.Since(t0))
		t0 = time.Now()
	}
	scores, maxErr, hit := e.cacheLookup(key)
	if tr != nil {
		tr.AddSpan("cache", time.Since(t0))
	}
	if hit {
		if tr != nil {
			tr.Cached = true
			tr.MaxError = maxErr
			tr.Plan = "cache"
		}
		return scores, maxErr, true, nil
	}
	var kt *obs.KernelTrace
	switch {
	case tr != nil:
		kt = &tr.Kernel
	case o != nil:
		// Observer-only: this path allocates its result vector anyway, so a
		// transient trace to aggregate from is free in comparison.
		kt = new(obs.KernelTrace)
	}
	t0 = time.Now()
	scores, maxErr, err := e.safeComputeSingleSource(ctx, st, measureName, q, kt)
	kernelTime := time.Since(t0)
	if err != nil {
		o.observeCancel(ctx, err)
		return nil, 0, false, err
	}
	if o != nil {
		o.recordKernel(kt, kernelTime)
	}
	if tr != nil {
		tr.AddSpan("kernel", kernelTime)
		tr.MaxError = maxErr
		if e.cfg.tolerance >= MinTolerance && fastPathKernel(builtinFor(measureName)) {
			tr.Plan = "sieved"
		} else {
			tr.Plan = "exact"
		}
	}
	e.cache.put(key, scores, maxErr)
	return scores, maxErr, false, nil
}

// computeSingleSource is the uncached single-source path: the engine fast
// paths over the cached (and, under WithRelabeling, permuted) transition
// matrices for the built-in measures — sieved-approximate under an
// effective WithTolerance, exact otherwise — and the measure's own
// implementation for everything else. The second return is the MaxError
// certificate (0 on every exact path). Fast-path results come back in
// external id order regardless of layout. kt, when non-nil, receives the
// kernel-level detail of the fast paths (non-built-in measures report
// nothing — their kernels are opaque to the engine).
func (e *Engine) computeSingleSource(ctx context.Context, st *engineState, measureName string, q int, kt *obs.KernelTrace) ([]float64, float64, error) {
	builtin := builtinFor(measureName)
	if !fastPathKernel(builtin) {
		m, err := Lookup(measureName, e.opts...)
		if err != nil {
			return nil, 0, err
		}
		s, err := m.SingleSource(ctx, st.g, q)
		return s, 0, err
	}
	tol := e.cfg.tolerance
	qi := st.toInternal(q)
	ws := st.getWS()
	defer st.putWS(ws)
	sw := st.sweeperFor(e.cfg)
	if sw != nil {
		defer st.putSweeper(sw)
	}
	if tol >= MinTolerance {
		var (
			scores []float64
			maxErr float64
			err    error
		)
		switch builtin {
		case MeasureGeometric, MeasureGeometricMemo:
			opt := e.cfg.coreOptions()
			opt.Trace = kt
			opt.Parallel = sw
			scores, maxErr, err = core.ApproxSingleSourceGeometricFromTransition(ctx, st.kernelBackward(), st.kernelBackwardT(), qi, tol, opt)
		case MeasureExponential, MeasureExponentialMemo:
			opt := e.cfg.coreOptions()
			opt.Trace = kt
			opt.Parallel = sw
			scores, maxErr, err = core.ApproxSingleSourceExponentialFromTransition(ctx, st.kernelBackward(), st.kernelBackwardT(), qi, tol, opt)
		case MeasureRWR:
			opt := e.cfg.rwrOptions()
			opt.Trace = kt
			opt.Parallel = sw
			scores, maxErr, err = rwr.ApproxSingleSourceFromTransition(ctx, st.kernelForward(), qi, tol, opt)
		}
		if err != nil {
			return nil, 0, err
		}
		st.externalize(scores, ws)
		return scores, maxErr, nil
	}
	dst := make([]float64, st.g.N())
	grew := ws.Grows()
	if err := e.exactSingleSourceInto(ctx, st, builtin, qi, ws, sw, dst, kt); err != nil {
		return nil, 0, err
	}
	if kt != nil {
		kt.WorkspaceGrew = ws.Grows() - grew
	}
	st.externalize(dst, ws)
	return dst, 0, nil
}

// exactSingleSourceInto runs one exact fast-path kernel in the state's
// layout, writing kernel-order scores into dst from the pooled workspace —
// the allocation-free core of the serving path. qi is a kernel-layout node
// id; callers translate the result back with externalize. kt (nilable)
// threads kernel-level tracing through the options structs — a plain field
// copy here, with the kernels guarding their own hook sites. sw (nilable)
// likewise threads the borrowed sweep-parallelism pool, plus the
// materialised transpose the backward sweeps gather over; the transpose
// build is a once-per-epoch cost paid only by queries that parallelise.
//
//simstar:noalloc
func (e *Engine) exactSingleSourceInto(ctx context.Context, st *engineState, builtin string, qi int, ws *sparse.Workspace, sw *sparse.Sweeper, dst []float64, kt *obs.KernelTrace) error {
	switch builtin {
	case MeasureGeometric, MeasureGeometricMemo:
		opt := e.cfg.coreOptions()
		opt.Trace = kt
		if sw != nil {
			opt.Parallel = sw
			opt.Transposed = st.kernelBackwardT()
		}
		return core.SingleSourceGeometricWS(ctx, st.kernelBackward(), qi, opt, ws, dst)
	case MeasureExponential, MeasureExponentialMemo:
		opt := e.cfg.coreOptions()
		opt.Trace = kt
		if sw != nil {
			opt.Parallel = sw
			opt.Transposed = st.kernelBackwardT()
		}
		return core.SingleSourceExponentialWS(ctx, st.kernelBackward(), qi, opt, ws, dst)
	case MeasureRWR:
		opt := e.cfg.rwrOptions()
		opt.Trace = kt
		if sw != nil {
			opt.Parallel = sw
			opt.Transposed = st.kernelForwardT()
		}
		return rwr.SingleSourceWS(ctx, st.kernelForward(), qi, opt, ws, dst)
	}
	panic("simstar: unreachable fast-path kernel")
}

// SingleSourceInto is the allocation-free variant of SingleSource for
// steady-state serving loops: the scores of query node q under the named
// measure are written into dst, which is grown only if its capacity is
// below the node count, and the filled slice is returned. The exact
// fast-path measures (geometric and exponential SimRank*, their memo
// variants, and RWR) run on the engine's pooled kernel workspaces and
// bypass the result cache entirely — a warmed engine performs zero heap
// allocations per call. Other measures, and engines configured with
// WithTolerance, fall back to the allocating SingleSource path (result
// cache included) and copy into dst.
//
//simstar:noalloc
func (e *Engine) SingleSourceInto(ctx context.Context, measureName string, q int, dst []float64) (_ []float64, err error) {
	st := e.load()
	ctx, cancel := e.cfg.deadlineCtx(ctx)
	if cancel != nil {
		defer cancel()
	}
	// Direct method defer — no closure — so panic isolation fits the
	// zero-alloc contract; a recovered kernel panic surfaces as an
	// ErrKernelPanic-wrapped err with a nil slice.
	defer e.recoverKernel(&err)
	if err := st.checkQuery(ctx, q); err != nil {
		e.cfg.observer.observeCancel(ctx, err)
		return nil, err
	}
	n := st.g.N()
	if cap(dst) < n {
		//simstar:lint-ignore noalloc documented grow-on-first-use of an undersized dst
		dst = make([]float64, n)
	} else {
		dst = dst[:n]
	}
	builtin := builtinFor(measureName)
	if fastPathKernel(builtin) && e.cfg.tolerance < MinTolerance {
		o := e.cfg.observer
		ws := st.getWS()
		defer st.putWS(ws)
		sw := st.sweeperFor(e.cfg)
		if sw != nil {
			defer st.putSweeper(sw)
		}
		// With an observer on, the kernel trace lives inside the pooled
		// workspace — &ws.Trace is a borrow, not an allocation — so the
		// zero-alloc contract holds with observation on or off.
		var kt *obs.KernelTrace
		if o != nil {
			o.qSingle.Inc()
			kt = &ws.Trace
			kt.Reset()
		}
		start := time.Now()
		e.cfg.fireFault(FaultPointKernel)
		if err := e.exactSingleSourceInto(ctx, st, builtin, st.toInternal(q), ws, sw, dst, kt); err != nil {
			e.cfg.observer.observeCancel(ctx, err)
			return nil, err
		}
		st.externalize(dst, ws)
		if o != nil {
			o.recordKernel(kt, time.Since(start))
		}
		return dst, nil
	}
	scores, _, _, err := e.singleSource(ctx, st, measureName, q)
	if err != nil {
		return nil, err
	}
	copy(dst, scores)
	return dst, nil
}

// TopK returns the k nodes most similar to q under the named measure,
// excluding q itself and any nodes in exclude (e.g. existing neighbours
// when recommending new links). Ties break by node id. The boundary cases
// follow the package-level TopK: k <= 0 yields an empty result, k larger
// than the candidate count yields every candidate. The underlying score
// vector goes through the result cache, so a TopK after a SingleSource of
// the same (measure, parameters, node) is a cache hit.
func (e *Engine) TopK(ctx context.Context, measureName string, q, k int, exclude ...int) ([]Ranked, error) {
	scores, err := e.SingleSource(ctx, measureName, q)
	if err != nil {
		return nil, err
	}
	return TopK(scores, k, append([]int{q}, exclude...)...), nil
}

// AllPairs computes the full similarity matrix under the named measure,
// reusing the cached transition matrices and compression of the current
// epoch. All-pairs runs always sweep the natural-order matrices — the n×n
// result is produced directly in graph ids, so WithRelabeling neither helps
// nor requires translation here.
func (e *Engine) AllPairs(ctx context.Context, measureName string) (_ *Scores, err error) {
	ctx, cancel := e.cfg.deadlineCtx(ctx)
	if cancel != nil {
		defer cancel()
	}
	defer e.recoverKernel(&err)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st := e.load()
	builtin := builtinFor(measureName)
	opt := e.cfg.coreOptions()
	switch builtin {
	case MeasureGeometric:
		m, err := core.GeometricFromTransition(ctx, st.backward, opt)
		return wrapDense(m, err)
	case MeasureGeometricMemo:
		m, err := core.GeometricFromCompressed(ctx, st.comp.get(), opt)
		return wrapDense(m, err)
	case MeasureExponential:
		m, err := core.ExponentialFromTransition(ctx, st.backward, opt)
		return wrapDense(m, err)
	case MeasureExponentialMemo:
		m, err := core.ExponentialFromCompressed(ctx, st.comp.get(), opt)
		return wrapDense(m, err)
	case MeasureSimRankMatrix:
		m, err := simrank.MatrixFormFromTransition(ctx, st.backward, e.cfg.simrankOptions())
		return wrapDense(m, err)
	case MeasureRWR:
		m, err := rwr.AllPairsFromTransition(ctx, st.forward, e.cfg.rwrOptions())
		return wrapDense(m, err)
	}
	m, err := Lookup(measureName, e.opts...)
	if err != nil {
		return nil, err
	}
	return m.AllPairs(ctx, st.g)
}

func wrapDense(m *dense.Matrix, err error) (*Scores, error) {
	if err != nil {
		return nil, err
	}
	return denseScores(m), nil
}

func (st *engineState) checkQuery(ctx context.Context, q int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if q < 0 || q >= st.g.N() {
		return fmt.Errorf("simstar: query node %d out of range [0, %d)", q, st.g.N())
	}
	return nil
}
