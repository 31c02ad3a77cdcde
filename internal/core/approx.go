package core

import (
	"context"

	"repro/internal/obs"
	"repro/internal/sparse"
)

// Threshold-sieved approximate single-source SimRank*. The exact
// single-source kernel sweeps dense length-n vectors even when almost all
// of the propagating mass is negligible; this variant keeps the walk in a
// sparse frontier, drops entries below an adaptive threshold each sweep,
// and charges every drop against an error budget, so the result comes back
// with a certified element-wise bound:
//
//	|approx[i] − exact[i]| <= MaxError <= tol   for every node i,
//
// where "exact" is the dense kernel at the same Options (i.e. the
// certificate bounds the sieving error, not the series truncation both
// paths share). It folds with the exact kernel's generic double loop over
// the family's length-weight table, so one kernel serves both families, and
// its certificate holds for any non-negative table: the sieve thresholds
// derive from the tail of the table's coefficients, so late sweeps tolerate
// proportionally larger drops.
//
// tol below sparse.MinCertTolerance disables dropping entirely; callers
// that need bitwise equality with the exact kernel should dispatch to it
// instead (the sparse accumulation order differs in the last few ulps,
// which is what the certificate's sparse.CertSlack term covers).
//
// The kernel takes the backward transition matrix qm and its materialised
// transpose qt: backward sweeps scatter through qm's rows, forward sweeps
// through qt's (a forward product against a sparse frontier needs column
// access to qm, i.e. rows of qt).

// ApproxSingleSourceGeometricFromTransition answers one geometric
// single-source query with threshold sieving. It returns the scores and the
// certified MaxError bound against SingleSourceGeometricFromTransition.
func ApproxSingleSourceGeometricFromTransition(ctx context.Context, qm, qt *sparse.CSR, q int, tol float64, opt Options) ([]float64, float64, error) {
	return newApproxWS(qm.R, opt.geometric(), opt).run(ctx, qm, qt, q, tol)
}

// ApproxSingleSourceExponentialFromTransition answers one exponential
// single-source query with threshold sieving. It returns the scores and the
// certified MaxError bound against SingleSourceExponentialFromTransition.
func ApproxSingleSourceExponentialFromTransition(ctx context.Context, qm, qt *sparse.CSR, q int, tol float64, opt Options) ([]float64, float64, error) {
	return newApproxWS(qm.R, opt.exponential(), opt).run(ctx, qm, qt, q, tol)
}

// approxWS is the reusable workspace of the sieved kernel: the ping-pong
// frontiers and the per-α accumulators, all of dimension n, plus the
// precomputed downstream tail weights of table w.
type approxWS struct {
	w     weights
	trace *obs.KernelTrace
	cur   *sparse.Frontier
	spare *sparse.Frontier
	y     []*sparse.Frontier
	tail  []float64
}

func newApproxWS(n int, w weights, opt Options) *approxWS {
	ws := &approxWS{
		w:     w,
		trace: opt.Trace,
		cur:   sparse.NewFrontier(n),
		spare: sparse.NewFrontier(n),
		y:     make([]*sparse.Frontier, w.k+1),
		tail:  tailWeights(w),
	}
	for alpha := range ws.y {
		ws.y[alpha] = sparse.NewFrontier(n)
	}
	return ws
}

// tailWeights[β] bounds, element-wise on the final scores, the effect of
// dropping unit mass from the β-th backward walk vector w_β: the drop
// propagates to every w_{β'} with β' >= β and from there into the output
// through the table's coefficients, so the weight is
//
//	a_0 · Σ_{β'=β}^{K} Σ_{α=0}^{K−β'} rel(α+β') · binom(α+β', α).
//
// Every coefficient is non-negative, so this holds for any table. Summed by
// level l = α+β', the binomials add up to at most 2ˡ, which bounds the
// weight by a_0·Σ_{l>=β} rel(l)·2ˡ: C^β for the geometric table and C^β/β!
// for the exponential one.
func tailWeights(w weights) []float64 {
	tail := make([]float64, w.k+1)
	for beta := 0; beta <= w.k; beta++ {
		var sum float64
		for bp := beta; bp <= w.k; bp++ {
			for alpha := 0; alpha+bp <= w.k; alpha++ {
				sum += w.coef(alpha, bp)
			}
		}
		tail[beta] = w.a0 * sum
	}
	return tail
}

func (ws *approxWS) reset() {
	ws.cur.Reset()
	ws.spare.Reset()
	for _, f := range ws.y {
		f.Reset()
	}
}

func (ws *approxWS) run(ctx context.Context, qm, qt *sparse.CSR, q int, tol float64) ([]float64, float64, error) {
	ws.reset()
	w, tr := ws.w, ws.trace
	k := w.k
	// K backward sieve points plus K Horner sieve points.
	budget := sparse.NewCertBudget(tol, 2*k)
	budget.Trace = tr

	// Backward: w_β = (Qᵀ)^β e_q, folded into every y_α it contributes to as
	// soon as it exists — the same coefficient schedule as the exact kernel.
	cur, next := ws.cur, ws.spare
	cur.Add(int32(q), 1)
	for beta := 0; beta <= k; beta++ {
		if beta > 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
			next.Reset()
			qm.ScatterMulT(next, cur) // next = Qᵀ·cur
			cur, next = next, cur
			budget.SieveMass(cur, ws.tail[beta])
			if tr != nil {
				tr.AddSweeps(1)
				tr.ObserveFrontier(cur.Len())
			}
		}
		for alpha := 0; alpha+beta <= k; alpha++ {
			ws.y[alpha].AddScaled(w.coef(alpha, beta), cur)
		}
	}

	// Horner: z = y_K; z = Q·z + y_α for α = K−1 .. 0, sieving z after each
	// step. A drop at stage α still passes through Q^α (row sums <= 1) and
	// the final a_0 scale, so it is charged at weight a_0 on its peak.
	z, zbuf := ws.y[k], next
	for alpha := k - 1; alpha >= 0; alpha-- {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		zbuf.Reset()
		qt.ScatterMulT(zbuf, z) // zbuf = Q·z
		z, zbuf = zbuf, z
		z.AddScaled(1, ws.y[alpha])
		budget.SievePeak(z, w.a0)
		if tr != nil {
			tr.AddSweeps(1)
			tr.ObserveFrontier(z.Len())
		}
	}
	cert := budget.Certificate()
	if tr != nil {
		tr.Certificate = cert
	}
	return z.Dense(w.a0), cert, nil
}
