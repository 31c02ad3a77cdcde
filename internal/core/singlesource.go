package core

import (
	"context"

	"repro/internal/dense"
	"repro/internal/sparse"
)

// Single-source SimRank* answers one query node in O(K·m + K²·n) time
// without materialising the n×n matrix — the regime the paper's Exp-1
// evaluates (500 single-node queries per graph). Row q of the series (see
// weights) factors through the walk vectors w_β = (Qᵀ)^β·e_q:
//
//	ŝ_q = a_0 Σ_{α+β<=K} rel(α+β)·binom(α+β, α)·Q^α w_β
//	    = a_0 Σ_α Q^α y_α,   y_α = Σ_β rel(α+β)·binom(α+β, α)·w_β,
//
// evaluated by Horner's rule in Q. One kernel serves both families; it
// matches the all-pairs row to rounding (tested).
//
// Each family has two entry points. The *WS kernel writes into a caller's
// buffer and draws its intermediates from a pooled workspace, so a serving
// engine pays zero allocations per query; *FromTransition wraps it for
// callers that want a fresh vector. Both take a pre-built Q
// (sparse.BackwardTransition) so the CSR construction is amortised across
// queries, and the context is checked between sweeps so deadlines and
// cancellation abort long runs. The threshold-sieved kernel lives in
// approx.go.

// foldPollStride is how many fold-loop Axpys run between amortised context
// checks (see sparse.CtxPoll): small enough that a per-query deadline lands
// within a few O(n) vector ops, large enough that the poll stays off the
// fold's critical path.
const foldPollStride = 8

// SingleSourceGeometricFromTransition returns the geometric SimRank* scores
// between q and every node, row q of Geometric, against a pre-built
// backward transition matrix.
func SingleSourceGeometricFromTransition(ctx context.Context, qm *sparse.CSR, q int, opt Options) ([]float64, error) {
	dst := make([]float64, qm.R)
	if err := SingleSourceGeometricWS(ctx, qm, q, opt, nil, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// SingleSourceGeometricWS is the workspace form of the geometric
// single-source kernel: it writes the scores into dst (length n) and draws
// every intermediate vector from ws, so a serving layer that pools
// workspaces and reuses result buffers pays zero allocations per query. A
// nil ws uses a private one. The scores are bitwise-equal to
// SingleSourceGeometricFromTransition's.
//
//simstar:noalloc
func SingleSourceGeometricWS(ctx context.Context, qm *sparse.CSR, q int, opt Options, ws *sparse.Workspace, dst []float64) error {
	return singleSource(ctx, qm, q, opt.geometric(), opt, ws, dst)
}

// SingleSourceExponentialFromTransition returns the exponential SimRank*
// scores between q and every node, row q of Exponential, against a
// pre-built backward transition matrix.
func SingleSourceExponentialFromTransition(ctx context.Context, qm *sparse.CSR, q int, opt Options) ([]float64, error) {
	dst := make([]float64, qm.R)
	if err := SingleSourceExponentialWS(ctx, qm, q, opt, nil, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// SingleSourceExponentialWS is the workspace form of the exponential
// single-source kernel: scores go into dst (length n), intermediates come
// from ws (nil for a private one), and the scores are bitwise-equal to
// SingleSourceExponentialFromTransition's.
//
//simstar:noalloc
func SingleSourceExponentialWS(ctx context.Context, qm *sparse.CSR, q int, opt Options, ws *sparse.Workspace, dst []float64) error {
	return singleSource(ctx, qm, q, opt.exponential(), opt, ws, dst)
}

// singleSource is the exact single-source kernel over table w; opt supplies
// the sieve and the trace.
//
//simstar:noalloc
func singleSource(ctx context.Context, qm *sparse.CSR, q int, w weights, opt Options, ws *sparse.Workspace, dst []float64) error {
	k := w.k
	n := qm.R
	if len(dst) != n {
		panic("core: single-source dst length mismatch")
	}
	if ws == nil {
		//simstar:lint-ignore noalloc nil-ws convenience fallback, off the pooled serving path
		ws = sparse.NewWorkspace(n)
	} else if ws.Dim() != n {
		panic("core: single-source workspace dimension mismatch")
	}
	ws.Reset()

	// Each walk vector w_β folds into every y_α it contributes to as soon as
	// it exists, so only two walk buffers are ever live. A y_α's first write
	// overwrites it, so the accumulators are drawn raw.
	y := ws.RawVecs(k + 1)
	cur := ws.Take()
	cur[q] = 1
	next := ws.Raw()
	sweeps := 0
	// The fold runs O(K²) dense Axpys between backward sweeps; the amortised
	// poller bounds cancellation latency there to foldPollStride Axpys, so a
	// deadline firing mid-fold aborts the query without waiting for the next
	// sweep boundary.
	poll := sparse.PollEvery(ctx, foldPollStride)
	for beta := 0; beta <= k; beta++ {
		if beta > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			qm.MulVecTInto(next, cur)
			sweeps++
			cur, next = next, cur
		}
		if w.factorial {
			// The exponential coefficients factor, rel(α+β)·binom(α+β, α) =
			// d_α·d_β with d_j = rel(j), so y_{K−β} = d_{K−β}·p_β where
			// p_β = Σ_{β′<=β} d_β′·w_β′ is a running prefix sum: 2K+1
			// vector ops instead of (K+1)(K+2)/2. p lives in y_0, which it
			// ends as (d_0 = 1).
			if beta == 0 {
				dense.ScaledCopy(y[0], 1, cur)
			} else {
				dense.Axpy(y[0], w.rel(beta), cur)
			}
			if beta < k {
				dense.ScaledCopy(y[k-beta], w.rel(k-beta), y[0])
			}
			continue
		}
		for alpha := 0; alpha+beta <= k; alpha++ {
			if err := poll.Check(); err != nil {
				return err
			}
			if beta == 0 {
				dense.ScaledCopy(y[alpha], w.coef(alpha, 0), cur)
			} else {
				dense.Axpy(y[alpha], w.coef(alpha, beta), cur)
			}
		}
	}

	// Horner: z = y_K; z = Q·z + y_α for α = K−1 .. 0, the addition fused
	// into the sweep and the final a_0 scale folded into the last step.
	z := y[k]
	for alpha := k - 1; alpha >= 1; alpha-- {
		if err := ctx.Err(); err != nil {
			return err
		}
		qm.MulVecAddInto(next, z, y[alpha])
		sweeps++
		z, next = next, z
	}
	if k == 0 {
		dense.ScaledCopy(dst, w.a0, y[0])
	} else {
		if err := ctx.Err(); err != nil {
			return err
		}
		qm.MulVecAddScaleInto(dst, z, y[0], w.a0)
		sweeps++
	}
	applySieveVec(dst, opt.Sieve)
	if tr := opt.Trace; tr != nil {
		tr.AddSweeps(sweeps)
	}
	return nil
}

func applySieveVec(x []float64, eps float64) {
	if eps <= 0 {
		return
	}
	for i, v := range x {
		if v < eps {
			x[i] = 0
		}
	}
}

// Ranked is one entry of a top-k result.
type Ranked struct {
	Node  int
	Score float64
}

// rankedBelow is the total order of top-k selection: a ranks below b when
// its score is lower, or at equal score when its node id is larger — the
// deterministic tie-break by node id.
func rankedBelow(a, b Ranked) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Node > b.Node
}

// TopK returns the k highest-scoring nodes from a score vector, excluding
// the nodes in `exclude` (typically the query itself). Ties break by node id
// for determinism. Selection uses a bounded min-heap over the candidates —
// O(n log k) instead of a full O(n log n) sort, the difference between a
// per-query sort of millions of nodes and a cheap scan when k is small.
//
// The boundaries are defined, not incidental: k <= 0 returns an empty
// result, and k greater than the number of candidates (len(scores) minus
// the excluded nodes) returns every candidate, fully ordered.
func TopK(scores []float64, k int, exclude ...int) []Ranked {
	// Clamp before sizing the heap: it can never hold more than one entry
	// per score, so an oversized k must not grow the allocation.
	k = min(k, len(scores))
	if k <= 0 {
		return nil
	}
	var skip map[int]bool
	if len(exclude) > excludeScanMax {
		skip = make(map[int]bool, len(exclude))
		for _, e := range exclude {
			skip[e] = true
		}
	}
	// h is a min-heap under rankedBelow: h[0] is the weakest kept entry.
	h := make([]Ranked, 0, k)
	for i, s := range scores {
		if skip != nil {
			if skip[i] {
				continue
			}
		} else if excludedNode(exclude, i) {
			continue
		}
		r := Ranked{Node: i, Score: s}
		if len(h) < k {
			h = append(h, r)
			rankedSiftUp(h, len(h)-1)
		} else if rankedBelow(h[0], r) {
			h[0] = r
			rankedSiftDown(h)
		}
	}
	// Order the survivors best-first (score descending, node id ascending)
	// by in-place heapsort: popping the weakest to the back repeatedly
	// leaves the strongest at the front. rankedBelow is a strict total
	// order, so this is the exact sequence a comparison sort produces.
	for i := len(h) - 1; i > 0; i-- {
		h[0], h[i] = h[i], h[0]
		rankedSiftDown(h[:i])
	}
	return h
}

// excludeScanMax is the exclusion-list length up to which TopK skips
// excluded nodes by linear scan. Past it a lookup map is cheaper than
// scanning the list once per score.
const excludeScanMax = 16

// excludedNode reports whether node is in exclude.
func excludedNode(exclude []int, node int) bool {
	for _, e := range exclude {
		if e == node {
			return true
		}
	}
	return false
}

// rankedSiftUp restores the min-heap order of h (under rankedBelow) after an
// append at index i.
func rankedSiftUp(h []Ranked, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !rankedBelow(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// rankedSiftDown restores the min-heap order of h after the root changed.
func rankedSiftDown(h []Ranked) {
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && rankedBelow(h[l], h[min]) {
			min = l
		}
		if r < len(h) && rankedBelow(h[r], h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}
