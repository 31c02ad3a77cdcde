package simstar

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rwr"
)

// streamScratch is the pooled per-query scratch of the streaming top-k fast
// path: one kernel-sized score buffer and a reusable exclusion list. Pooled
// separately from the kernel workspaces because the kernels Reset their
// workspace internally — the score vector under selection must live
// elsewhere.
type streamScratch struct {
	scores  []float64
	exclude []int
}

// getStream borrows a streaming scratch from the state's pools; putStream
// returns it.
func (st *engineState) getStream() *streamScratch   { return st.pools.streams.Get().(*streamScratch) }
func (st *engineState) putStream(sc *streamScratch) { st.pools.streams.Put(sc) }

// TopKStream is a lazily-consumed top-k result: the k selected entries,
// already in final order (score descending, ties by ascending node id),
// handed out one at a time. The entries are identical — order, scores,
// tie-breaks — to what Engine.TopK returns for the same query; only the
// production differs: on the exact fast-path measures the stream never
// materialises a per-query O(n) score vector, so a consumer wanting k=10 of
// a million-node graph holds 10 entries, not a million scores.
//
// A stream is single-consumer and not safe for concurrent use. It probes
// the engine's result cache on creation but never populates it (caching
// would mean keeping the full vector the stream exists to avoid); see
// ARCHITECTURE.md for the lifecycle.
type TopKStream struct {
	ranked []Ranked
	pos    int
	maxErr float64
	cached bool
}

// Next returns the next entry best-first, and false once the stream is
// drained.
func (s *TopKStream) Next() (Ranked, bool) {
	if s.pos >= len(s.ranked) {
		return Ranked{}, false
	}
	r := s.ranked[s.pos]
	s.pos++
	return r, true
}

// Len reports the total number of entries the stream was created with,
// consumed or not.
func (s *TopKStream) Len() int { return len(s.ranked) }

// MaxError is the certified element-wise bound on how far the underlying
// scores can be from the exact kernels at the query's parameters: 0 for
// exact queries, at most the configured tolerance under WithTolerance.
func (s *TopKStream) MaxError() float64 { return s.maxErr }

// Cached reports whether the underlying scores came from the engine's
// result cache rather than a kernel run.
func (s *TopKStream) Cached() bool { return s.cached }

// Collect drains the remaining entries into a slice. The returned slice
// aliases the stream's storage; it is the caller's once the stream is
// abandoned.
func (s *TopKStream) Collect() []Ranked {
	r := s.ranked[s.pos:]
	s.pos = len(s.ranked)
	return r
}

// TopKStream answers the same query as Engine.TopK — the k nodes most
// similar to q under the named measure, excluding q and any nodes in exclude
// — as a lazy stream. For the exact fast-path measures (geometric and
// exponential SimRank*, their memo variants, and RWR) the kernel sweeps a
// pooled score buffer and bounded selection builds only the k result
// entries, so a warmed engine allocates O(k) per call — independent of the
// node count — instead of the O(n) vector TopK's SingleSource path returns.
// Other measures, and engines configured with WithTolerance, fall back to
// the materialising path and stream its selection.
//
// Streams probe the result cache (a SingleSource of the same query makes
// the stream a hit) but never populate it. Entries, order and tie-breaks
// are always identical to Engine.TopK at the same parameters.
func (e *Engine) TopKStream(ctx context.Context, measureName string, q, k int, exclude ...int) (_ *TopKStream, err error) {
	st := e.load()
	o := e.cfg.observer
	if o != nil {
		o.qStream.Inc()
	}
	if err := st.checkQuery(ctx, q); err != nil {
		return nil, err
	}
	builtin := builtinFor(measureName)
	if !fastPathKernel(builtin) || e.cfg.tolerance >= MinTolerance {
		// count=false: already counted under kind=stream above. The slow path
		// carries the deadline, fault and panic-isolation wrapping itself.
		scores, maxErr, cached, err := e.singleSourceObs(ctx, st, measureName, q, false, nil)
		if err != nil {
			return nil, err
		}
		top := TopK(scores, k, append([]int{q}, exclude...)...)
		return &TopKStream{ranked: top, maxErr: maxErr, cached: cached}, nil
	}
	ctx, cancel := e.cfg.deadlineCtx(ctx)
	if cancel != nil {
		defer cancel()
	}
	defer func() {
		if err != nil {
			o.observeCancel(ctx, err)
		}
	}()
	defer e.recoverKernel(&err)
	key := cacheKey{
		measure: canonical(measureName),
		gen:     registryGeneration(),
		epoch:   st.epoch,
		layout:  st.layoutKey(),
		params:  e.cfg.cacheParams(),
		node:    q,
	}
	if scores, maxErr, ok := e.cacheLookup(key); ok {
		top := TopK(scores, k, append([]int{q}, exclude...)...)
		return &TopKStream{ranked: top, maxErr: maxErr, cached: true}, nil
	}

	sc := st.getStream()
	defer st.putStream(sc)
	ws := st.getWS()
	defer st.putWS(ws)
	sw := st.sweeperFor(e.cfg)
	if sw != nil {
		defer st.putSweeper(sw)
	}

	sc.exclude = append(sc.exclude[:0], q)
	sc.exclude = append(sc.exclude, exclude...)
	kk := min(max(k, 0), st.g.N())
	// dst is the stream's storage — freshly allocated (never pooled: it
	// outlives this call inside the returned stream), sized so TopKInto
	// fills it without growing.
	dst := make([]Ranked, 0, kk)

	// The stream fast path borrows the workspace-resident kernel trace like
	// SingleSourceInto does, so observed streams stay O(k)-allocating.
	var kt *obs.KernelTrace
	if o != nil {
		kt = &ws.Trace
		kt.Reset()
	}
	start := time.Now()
	e.cfg.fireFault(FaultPointKernel)

	var top []Ranked
	if st.layout == nil {
		// Kernel order is external order: fuse selection into the kernel
		// call, skipping the full-vector staging entirely.
		switch builtin {
		case MeasureGeometric, MeasureGeometricMemo:
			opt := e.cfg.coreOptions()
			opt.Trace = kt
			if sw != nil {
				opt.Parallel = sw
				opt.Transposed = st.kernelBackwardT()
			}
			top, err = core.SingleSourceGeometricTopKWS(ctx, st.kernelBackward(), q, kk, opt, ws, sc.scores, dst, sc.exclude...)
		case MeasureExponential, MeasureExponentialMemo:
			opt := e.cfg.coreOptions()
			opt.Trace = kt
			if sw != nil {
				opt.Parallel = sw
				opt.Transposed = st.kernelBackwardT()
			}
			top, err = core.SingleSourceExponentialTopKWS(ctx, st.kernelBackward(), q, kk, opt, ws, sc.scores, dst, sc.exclude...)
		case MeasureRWR:
			opt := e.cfg.rwrOptions()
			opt.Trace = kt
			if sw != nil {
				opt.Parallel = sw
				opt.Transposed = st.kernelForwardT()
			}
			top, err = rwr.SingleSourceTopKWS(ctx, st.kernelForward(), q, kk, opt, ws, sc.scores, dst, sc.exclude...)
		}
	} else {
		// Under relabeling the tie-break is defined on external ids, so the
		// vector must be back in external order before selection.
		if err = e.exactSingleSourceInto(ctx, st, builtin, st.toInternal(q), ws, sw, sc.scores, kt); err == nil {
			st.externalize(sc.scores, ws)
			top = core.TopKInto(sc.scores, kk, dst, sc.exclude...)
		}
	}
	if err != nil {
		return nil, err
	}
	if o != nil {
		o.recordKernel(kt, time.Since(start))
	}
	return &TopKStream{ranked: top}, nil
}
