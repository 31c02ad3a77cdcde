package simstar

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/biclique"
	"repro/internal/dyngraph"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// Engine answers similarity queries for one evolving graph with
// preprocessing amortised across queries. NewEngine builds, for the base
// graph:
//
//   - the CSR backward transition matrix Q (SimRank-family measures),
//   - the CSR forward transition matrix W (RWR).
//
// A standalone Measure call rebuilds the matrix its kernel reads on every
// invocation — an O(m) cost that a system serving heavy query traffic
// cannot pay per request. The biclique edge-concentration compression,
// which only the memo-* all-pairs runs read, is mined once per epoch by the
// first such run or Compression call; no single-source read mines.
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

	// store is the versioned write path: each accepted batch is spliced into
	// a new epoch there. Engines derived through With share it — they are
	// views of the same evolving graph.
	store *dyngraph.Store

	// state is the read path: the current epoch's immutable preprocessed
	// structures, swapped wholesale on refresh. Shared across With.
	state *atomic.Pointer[engineState]

	// editMu serialises ApplyEdits so each materialised delta is
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

	backward *sparse.CSR     // Q: row-normalised transposed adjacency
	forward  *sparse.CSR     // W: row-normalised adjacency
	qt       lazyTranspose   // Qᵀ for the sieved SimRank* kernels, built on first use
	comp     lazyCompression // the biclique compression, mined on first use
	// miner is what comp mines with: the engine's WithMiner, fixed at
	// NewEngine and inherited by every later epoch.
	miner biclique.Options

	// pools is the per-query scratch the fast paths borrow. It is a separate
	// allocation, never embedded: the runtime's list of used pools holds
	// each pool until the second GC after its last use, and a pool inside
	// the state would keep a superseded epoch's graph and operators
	// reachable with it. Consecutive epochs with one node count share a set
	// (see ApplyEdits), so an epoch's first queries reuse warm arenas.
	pools *scratchPools

	// transitionTime is what building (epoch 0) or incrementally refreshing
	// (later epochs) the two transition matrices cost.
	transitionTime time.Duration
}

// scratchPools recycles the per-query scratch of the fast paths for one
// node count. The workspaces are dimensioned to that count, so a state of
// another count must not borrow from the set.
type scratchPools struct {
	// workspaces recycles the kernel workspaces of the exact single-source
	// fast paths, so steady-state queries allocate nothing beyond their
	// result.
	workspaces sync.Pool
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
	return p
}

// lazyTranspose is the transpose Qᵀ of a backward operator, which the
// sieved SimRank* kernels' forward sweeps scatter through. It is built once
// per epoch on the first sieved SimRank* read, so an engine serving only
// exact or RWR queries never pays for it.
type lazyTranspose struct {
	once sync.Once
	t    *sparse.CSR
}

// of returns the transpose of m, building it on first use.
func (lt *lazyTranspose) of(m *sparse.CSR) *sparse.CSR {
	lt.once.Do(func() { lt.t = m.Transpose() })
	return lt.t
}

// getWS borrows a kernel workspace from the state's pools; putWS returns it.
func (st *engineState) getWS() *sparse.Workspace {
	return st.pools.workspaces.Get().(*sparse.Workspace)
}

func (st *engineState) putWS(ws *sparse.Workspace) { st.pools.workspaces.Put(ws) }

// lazyCompression is an epoch's biclique compression (the paper's edge
// concentration, Sec. 4.3), which only the memo all-pairs runs and
// Engine.Compression read. It is mined once, on the first such call, so
// NewEngine, ApplyEdits and every single-source read leave it unbuilt.
type lazyCompression struct {
	once sync.Once
	c    *biclique.Compressed
	dur  time.Duration // what mining took
}

// of returns the compression of g under miner, mining it on first use.
func (lc *lazyCompression) of(g *Graph, miner biclique.Options) *biclique.Compressed {
	lc.once.Do(func() {
		t0 := time.Now()
		lc.c = biclique.Compress(g, miner)
		lc.dur = time.Since(t0)
	})
	return lc.c
}

// EngineStats reports the served graph and what building its transition
// matrices cost. The biclique compression is not part of it: Compression
// reports that, mining it on demand.
type EngineStats struct {
	// Nodes and Edges are the size of the served graph at the current epoch.
	Nodes, Edges int
	// Epoch is the graph version being served; 0 until the first
	// materialised mutation (or the warm-start epoch under WithBaseEpoch).
	Epoch uint64
	// TransitionTime covers building (epoch 0) or incrementally refreshing
	// (later epochs) both CSR transition matrices for the current epoch.
	TransitionTime time.Duration
}

// CompressionStats describes an epoch's biclique compression: the
// compressed bigraph the memo all-pairs runs iterate over.
type CompressionStats struct {
	// Edges is m, the edge count of the epoch's graph.
	Edges int
	// CompressedEdges is m̃, the edge count of the compressed bigraph.
	CompressedEdges int
	// Bicliques is the number of mined bicliques (concentration nodes).
	Bicliques int
	// Ratio is (1 − m̃/m)·100%.
	Ratio float64
	// MiningTime is what mining the epoch took.
	MiningTime time.Duration
}

// NewEngine builds the base epoch's transition matrices and returns a
// query engine. The options become the engine's defaults for every query it
// serves. It mines no bicliques: the first memo all-pairs run or
// Compression call does.
func NewEngine(g *Graph, opts ...Option) *Engine {
	e := &Engine{cfg: buildConfig(opts), opts: opts}
	e.cache = newResultCache(e.cfg.cacheSize)
	e.editMu = &sync.Mutex{}
	e.state = &atomic.Pointer[engineState]{}
	e.store = dyngraph.New(g, dyngraph.WithBaseEpoch(e.cfg.baseEpoch))
	st := newBaseState(g, e.cfg, true, true)
	st.pools = newScratchPools(g.N(), e.cfg.observer)
	e.state.Store(st)
	return e
}

// newBaseState builds the first epoch state of g under cfg: Q when
// backward, W when forward, and the compression unmined. NewEngine builds
// both matrices and adds the scratch pools; a built-in Measure builds, for
// one call, only the matrix its kernel row reads.
func newBaseState(g *Graph, cfg config, backward, forward bool) *engineState {
	st := &engineState{g: g, epoch: cfg.baseEpoch, miner: cfg.miner.internal()}
	t0 := time.Now()
	if backward {
		st.backward = sparse.BackwardTransition(g)
	}
	if forward {
		st.forward = sparse.ForwardTransition(g)
	}
	st.transitionTime = time.Since(t0)
	return st
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
// change the miner of the shared compression, and a WithCacheSize here does
// not resize the shared cache (build a new Engine for those).
func (e *Engine) With(opts ...Option) *Engine {
	ne := *e
	ne.opts = append(append([]Option(nil), e.opts...), opts...)
	ne.cfg = buildConfig(ne.opts)
	return &ne
}

// Stats returns the preprocessing summary for the current epoch.
func (e *Engine) Stats() EngineStats {
	st := e.load()
	return EngineStats{
		Nodes:          st.g.N(),
		Edges:          st.g.M(),
		Epoch:          st.epoch,
		TransitionTime: st.transitionTime,
	}
}

// Compression returns the current epoch's biclique compression, mining it
// first unless a memo all-pairs run or an earlier call already has. Mining
// runs once per epoch, with the miner given at NewEngine, and is shared by
// the engines With derives. It is the costly half of preprocessing, which
// is why nothing else mines: call it outside any timer that should cover
// only the memo iterations.
func (e *Engine) Compression() CompressionStats {
	st := e.load()
	c := st.comp.of(st.g, st.miner)
	return CompressionStats{
		Edges:           c.MOriginal,
		CompressedEdges: c.MCompressed,
		Bicliques:       c.NumConcentration(),
		Ratio:           c.CompressionRatio(),
		MiningTime:      st.comp.dur,
	}
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

// SingleSource returns the scores of query node q against every node under
// the named measure. It is served from the cached transition structures
// where the measure supports it, and from the result cache when the same
// (measure, parameters, node) was answered recently on the same graph
// epoch. The returned slice is the caller's to keep and mutate. Under
// WithTolerance the scores are sieved-approximate; use
// SingleSourceCertified to also receive the MaxError certificate.
func (e *Engine) SingleSource(ctx context.Context, measureName string, q int) ([]float64, error) {
	scores, _, err := e.SingleSourceCertified(ctx, measureName, q)
	return scores, err
}

// SingleSourceCertified is SingleSource plus the result's MaxError
// certificate: a machine-checkable bound on the element-wise deviation of
// the returned scores from the exact kernels at the same parameters. It is
// 0 for exact queries (the default) and at most the configured tolerance
// for sieved-approximate ones.
func (e *Engine) SingleSourceCertified(ctx context.Context, measureName string, q int) ([]float64, float64, error) {
	scores, maxErr, _, err := e.singleSource(ctx, e.load(), measureName, q)
	if err != nil {
		return nil, 0, err
	}
	return e.own(scores), maxErr, nil
}

// own returns a vector the caller may keep and mutate. With the result
// cache on, the read path returns the shared, read-only cache entry, so own
// copies it; with the cache off the vector is a fresh kernel output, or a
// copy of a registered measure's, that no one else references, and own
// returns it as is.
func (e *Engine) own(scores []float64) []float64 {
	if e.cache == nil {
		return scores
	}
	return append([]float64(nil), scores...)
}

// resultKey is the result-cache key of query node q under measureName and
// the engine's parameters, on the pinned state st.
func (e *Engine) resultKey(st *engineState, measureName string, q int) cacheKey {
	return cacheKey{
		measure: canonical(measureName),
		gen:     registryGeneration(),
		epoch:   st.epoch,
		params:  e.cfg.cacheParams(),
		node:    q,
	}
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

// singleSource is singleSourceObs counted under kind=single_source and
// untraced: the form SingleSourceCertified, SingleSourceInto and TopK run.
func (e *Engine) singleSource(ctx context.Context, st *engineState, measureName string, q int) ([]float64, float64, bool, error) {
	if o := e.cfg.observer; o != nil {
		o.qSingle.Inc()
	}
	return e.singleSourceObs(ctx, st, measureName, q, nil)
}

// singleSourceObs is the read path every single-source and top-k query
// takes (SingleSourceInto's exact fast path aside): node check, one
// result-cache probe, the kernel on a miss, then the cache fill. With the
// cache on, the vector it returns is the shared cache entry, which no one
// may write: top-k callers select straight from it, and callers that hand
// a vector out copy it through own. The caller counts the query under its
// own kind (singleSource under single_source, batch under batch); tr, when
// non-nil, receives the staged trace — the canonical measure, the pinned
// epoch, the plan/cache/kernel spans, the plan, the certificate and the
// kernel detail — with the caller owning the final Finish stamp.
func (e *Engine) singleSourceObs(ctx context.Context, st *engineState, measureName string, q int, tr *obs.Trace) ([]float64, float64, bool, error) {
	o := e.cfg.observer
	ctx, cancel := e.cfg.deadlineCtx(ctx)
	if cancel != nil {
		defer cancel()
	}
	t0 := time.Now()
	if err := e.cfg.checkQuery(ctx, st.g.N(), q); err != nil {
		o.observeCancel(ctx, err)
		return nil, 0, false, err
	}
	key := e.resultKey(st, measureName, q)
	if tr != nil {
		tr.Measure = key.measure
		tr.Node = q
		tr.Epoch = st.epoch
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
	if tr != nil {
		kt = &tr.Kernel
	}
	k := kernelsFor(measureName)
	t0 = time.Now()
	scores, maxErr, err := e.computeSingleSource(ctx, st, k, measureName, q, kt)
	kernelTime := time.Since(t0)
	if err != nil {
		o.observeCancel(ctx, err)
		return nil, 0, false, err
	}
	if tr != nil {
		tr.AddSpan("kernel", kernelTime)
		tr.MaxError = maxErr
		if k != nil && e.cfg.sieved() {
			tr.Plan = "sieved"
		} else {
			tr.Plan = "exact"
		}
	}
	if k == nil {
		// A registered Measure's vector is not the engine's: the measure
		// may keep the slice and write it later, so what the engine caches
		// or, with the cache off, hands out is a copy.
		scores = append([]float64(nil), scores...)
	}
	e.cache.put(key, scores, maxErr)
	return scores, maxErr, false, nil
}

// computeSingleSource is the kernel step of the allocating single-source
// read path, behind the panic isolation boundary. A measure with a kernel
// row k runs its exact kernel through runExact, or its sieved kernel when
// the config is sieved (a tolerance and no sieve), on the cached
// transition matrices; any other measure runs its own implementation. The
// second return is the MaxError certificate (0 on every exact path). kt,
// when non-nil, receives the kernel detail of the fast paths (other
// measures report nothing — their kernels are opaque to the engine).
func (e *Engine) computeSingleSource(ctx context.Context, st *engineState, k *kernelFamily, measureName string, q int, kt *obs.KernelTrace) (scores []float64, maxErr float64, err error) {
	defer e.recoverKernel(&err)
	if k != nil && !e.cfg.sieved() {
		scores = make([]float64, st.g.N())
		if err := e.runExact(ctx, st, k, q, scores, kt); err != nil {
			return nil, 0, err
		}
		return scores, 0, nil
	}
	o := e.cfg.observer
	if kt == nil && o != nil {
		// Observer-only: this path allocates its result vector anyway, so a
		// transient trace to aggregate from is free in comparison.
		kt = new(obs.KernelTrace)
	}
	start := time.Now()
	e.cfg.fireFault(FaultPointKernel)
	if k != nil {
		if scores, maxErr, err = k.sieved(ctx, st, e.cfg, q, kt); err != nil {
			return nil, 0, err
		}
	} else {
		m, err := Lookup(measureName, e.opts...)
		if err != nil {
			return nil, 0, err
		}
		if scores, err = m.SingleSource(ctx, st.g, q); err != nil {
			return nil, 0, err
		}
	}
	if o != nil {
		o.recordKernel(kt, time.Since(start))
	}
	return scores, maxErr, nil
}

// SingleSourceInto is the allocation-free variant of SingleSource for
// steady-state serving loops: the scores of query node q under the named
// measure are written into dst, which is grown only if its capacity is
// below the node count, and the filled slice is returned. The exact
// fast-path measures (geometric and exponential SimRank*, their memo
// variants, and RWR) run on the engine's pooled kernel workspaces and
// bypass the result cache entirely — a warmed engine performs zero heap
// allocations per call. Other measures, and engines configured with
// WithTolerance (unless a WithSieve makes the query exact), fall back to
// the read path SingleSource takes (result cache included) and copy its
// vector into dst.
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
	if err := e.cfg.checkQuery(ctx, st.g.N(), q); err != nil {
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
	if k := kernelsFor(measureName); k != nil && !e.cfg.sieved() {
		if o := e.cfg.observer; o != nil {
			o.qSingle.Inc()
		}
		if err := e.runExact(ctx, st, k, q, dst, nil); err != nil {
			e.cfg.observer.observeCancel(ctx, err)
			return nil, err
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
// the same (measure, parameters, node) is a cache hit, and the selection
// runs straight over the shared cache entry without copying it.
func (e *Engine) TopK(ctx context.Context, measureName string, q, k int, exclude ...int) ([]Ranked, error) {
	scores, _, _, err := e.singleSource(ctx, e.load(), measureName, q)
	if err != nil {
		return nil, err
	}
	return TopK(scores, k, append([]int{q}, exclude...)...), nil
}

// AllPairs computes the full similarity matrix under the named measure. A
// measure in the engine's kernel table reuses the current epoch's cached
// transition matrices (the memo variants its compression, which the
// epoch's first memo run mines); any other measure runs its registered
// implementation on the epoch's graph.
func (e *Engine) AllPairs(ctx context.Context, measureName string) (_ *Scores, err error) {
	o := e.cfg.observer
	if o != nil {
		o.qAllPairs.Inc()
	}
	ctx, cancel := e.cfg.deadlineCtx(ctx)
	if cancel != nil {
		defer cancel()
	}
	// Deferred before recoverKernel, so it runs after it and sees every
	// error return, a recovered panic included.
	defer func() { o.observeCancel(ctx, err) }()
	defer e.recoverKernel(&err)
	if err := e.cfg.checkRun(ctx); err != nil {
		return nil, err
	}
	st := e.load()
	if k := kernelsFor(measureName); k != nil {
		m, err := k.allPairs(ctx, st, e.cfg)
		if err != nil {
			return nil, err
		}
		return denseScores(m), nil
	}
	m, err := Lookup(measureName, e.opts...)
	if err != nil {
		return nil, err
	}
	return m.AllPairs(ctx, st.g)
}

// checkRun rejects a call before any work: a done ctx, a damping factor no
// measure can run — NaN, negative or at least 1 (0 selects the default) —
// or an eps that resolves zero iterations (at or above C, or NaN), which
// the measures whose K <= 0 selects their default would run at K = 5.
// Engine reads, AllPairs and the Measure adapters all run it.
func (cfg config) checkRun(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !(cfg.c >= 0 && cfg.c < 1) {
		return fmt.Errorf("simstar: damping factor C = %g outside (0, 1)", cfg.c)
	}
	if cfg.eps != 0 && cfg.coreOptions().IterationsGeometric() == 0 {
		return fmt.Errorf("simstar: eps = %g resolves zero iterations; it must lie below the damping factor", cfg.eps)
	}
	return nil
}

// checkQuery is checkRun for a single-source call on an n-node graph, which
// also rejects a query node outside [0, n).
func (cfg config) checkQuery(ctx context.Context, n, q int) error {
	if err := cfg.checkRun(ctx); err != nil {
		return err
	}
	if q < 0 || q >= n {
		return fmt.Errorf("simstar: query node %d out of range [0, %d)", q, n)
	}
	return nil
}
