package core

import (
	"context"
	"math"

	"repro/internal/sparse"
)

// Threshold-sieved approximate single-source SimRank*. The exact
// single-source kernels sweep dense length-n vectors even when almost all
// of the propagating mass is negligible; these variants keep the walk in a
// sparse frontier, drop entries below an adaptive threshold each sweep, and
// charge every drop against an error budget, so the result comes back with
// a certified element-wise bound:
//
//	|approx[i] − exact[i]| <= MaxError <= tol   for every node i,
//
// where "exact" is the corresponding dense kernel at the same Options
// (i.e. the certificate bounds the sieving error, not the series
// truncation both paths share). The sieve thresholds derive from the
// geometric tail of the series: dropping mass from the β-th backward walk
// vector can only reach the output through coefficients whose total weight
// decays like C^β, so late sweeps tolerate proportionally larger drops.
//
// tol below sparse.MinCertTolerance disables dropping entirely; callers
// that need bitwise equality with the exact kernels should dispatch to
// those instead (the sparse accumulation order differs in the last few
// ulps, which is what the certificate's sparse.CertSlack term covers).
//
// Both kernels take the backward transition matrix qm and its materialised
// transpose qt: backward sweeps scatter through qm's rows, forward sweeps
// through qt's (a forward product against a sparse frontier needs column
// access to qm, i.e. rows of qt).

// ApproxSingleSourceGeometricFromTransition answers one geometric
// single-source query with threshold sieving. It returns the scores and the
// certified MaxError bound against SingleSourceGeometricFromTransition.
func ApproxSingleSourceGeometricFromTransition(ctx context.Context, qm, qt *sparse.CSR, q int, tol float64, opt Options) ([]float64, float64, error) {
	ws := newApproxGeoWS(qm.R, opt)
	return ws.run(ctx, qm, qt, q, tol)
}

// approxGeoWS is the reusable workspace of the sieved geometric kernel: the
// ping-pong frontiers and the per-α accumulators, all of dimension n, plus
// the precomputed downstream tail weights.
type approxGeoWS struct {
	opt     Options
	k       int
	cur     *sparse.Frontier
	spare   *sparse.Frontier
	y       []*sparse.Frontier
	weights []float64
}

func newApproxGeoWS(n int, opt Options) *approxGeoWS {
	opt = opt.withDefaults()
	k := opt.IterationsGeometric()
	ws := &approxGeoWS{
		opt:     opt,
		k:       k,
		cur:     sparse.NewFrontier(n),
		spare:   sparse.NewFrontier(n),
		y:       make([]*sparse.Frontier, k+1),
		weights: geoTailWeights(k, opt.C),
	}
	for alpha := range ws.y {
		ws.y[alpha] = sparse.NewFrontier(n)
	}
	return ws
}

// geoTailWeights[β] bounds, element-wise on the final scores, the effect of
// dropping unit mass from the β-th backward walk vector w_β: the drop
// propagates to every w_{β'} with β' >= β and from there into the output
// through the series coefficients, so the weight is
//
//	(1−C) · Σ_{β'=β}^{K} Σ_{α=0}^{K−β'} (C/2)^{α+β'} · binom(α+β', α),
//
// which is at most C^β (the geometric tail: the α-sum at level l = α+β'
// telescopes to 2^l, and (1−C)·Σ_{l>=β} C^l <= C^β).
func geoTailWeights(k int, c float64) []float64 {
	half := c / 2
	w := make([]float64, k+1)
	for beta := 0; beta <= k; beta++ {
		var sum float64
		for bp := beta; bp <= k; bp++ {
			for alpha := 0; alpha+bp <= k; alpha++ {
				sum += math.Pow(half, float64(alpha+bp)) * binom(alpha+bp, alpha)
			}
		}
		w[beta] = (1 - c) * sum
	}
	return w
}

func (ws *approxGeoWS) reset() {
	ws.cur.Reset()
	ws.spare.Reset()
	for _, f := range ws.y {
		f.Reset()
	}
}

func (ws *approxGeoWS) run(ctx context.Context, qm, qt *sparse.CSR, q int, tol float64) ([]float64, float64, error) {
	ws.reset()
	k, opt := ws.k, ws.opt
	half := opt.C / 2
	tr := opt.Trace
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
			budget.SieveMass(cur, ws.weights[beta])
			if tr != nil {
				tr.AddSweeps(1)
				tr.ObserveFrontier(cur.Len())
			}
		}
		for alpha := 0; alpha+beta <= k; alpha++ {
			coef := math.Pow(half, float64(alpha+beta)) * binom(alpha+beta, alpha)
			ws.y[alpha].AddScaled(coef, cur)
		}
	}

	// Horner: z = y_K; z = Q·z + y_α for α = K−1 .. 0, sieving z after each
	// step. A drop at stage α still passes through Q^α (row sums <= 1) and
	// the final (1−C) scale, so it is charged at weight (1−C) on its peak.
	z, zbuf := ws.y[k], next
	for alpha := k - 1; alpha >= 0; alpha-- {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		zbuf.Reset()
		qt.ScatterMulT(zbuf, z) // zbuf = Q·z
		z, zbuf = zbuf, z
		z.AddScaled(1, ws.y[alpha])
		budget.SievePeak(z, 1-opt.C)
		if tr != nil {
			tr.AddSweeps(1)
			tr.ObserveFrontier(z.Len())
		}
	}
	cert := budget.Certificate()
	if tr != nil {
		tr.Certificate = cert
	}
	return z.Dense(1 - opt.C), cert, nil
}

// ApproxSingleSourceExponentialFromTransition answers one exponential
// single-source query with threshold sieving. It returns the scores and the
// certified MaxError bound against SingleSourceExponentialFromTransition.
func ApproxSingleSourceExponentialFromTransition(ctx context.Context, qm, qt *sparse.CSR, q int, tol float64, opt Options) ([]float64, float64, error) {
	ws := newApproxExpWS(qm.R, opt)
	return ws.run(ctx, qm, qt, q, tol)
}

// approxExpWS is the sieved exponential kernel's workspace: two ping-pong
// frontiers, the backward accumulator v and the output accumulator s, plus
// the series coefficients (C/2)ʲ/j! and their suffix sums.
type approxExpWS struct {
	opt    Options
	k      int
	a, b   *sparse.Frontier
	v, s   *sparse.Frontier
	coef   []float64
	suffix []float64
}

func newApproxExpWS(n int, opt Options) *approxExpWS {
	opt = opt.withDefaults()
	k := opt.IterationsExponential()
	ws := &approxExpWS{
		opt:    opt,
		k:      k,
		a:      sparse.NewFrontier(n),
		b:      sparse.NewFrontier(n),
		v:      sparse.NewFrontier(n),
		s:      sparse.NewFrontier(n),
		coef:   make([]float64, k+1),
		suffix: make([]float64, k+2),
	}
	c := 1.0
	for j := 0; j <= k; j++ {
		ws.coef[j] = c
		c *= opt.C / (2 * float64(j+1))
	}
	for j := k; j >= 0; j-- {
		ws.suffix[j] = ws.suffix[j+1] + ws.coef[j]
	}
	return ws
}

func (ws *approxExpWS) run(ctx context.Context, qm, qt *sparse.CSR, q int, tol float64) ([]float64, float64, error) {
	ws.a.Reset()
	ws.b.Reset()
	ws.v.Reset()
	ws.s.Reset()
	k := ws.k
	scale := math.Exp(-ws.opt.C)
	tr := ws.opt.Trace
	budget := sparse.NewCertBudget(tol, 2*k)
	budget.Trace = tr

	// Backward: v = T_Kᵀ e_q = Σ_j coef_j·(Qᵀ)ʲ e_q. A drop of mass δ from
	// the walk at state j reaches v with 1-norm weight suffix[j] and the
	// output through e^{−C}·T_K, whose coefficient sum is suffix[0].
	cur, next := ws.a, ws.b
	cur.Add(int32(q), 1)
	for j := 0; ; j++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		ws.v.AddScaled(ws.coef[j], cur)
		if j == k {
			break
		}
		next.Reset()
		qm.ScatterMulT(next, cur)
		cur, next = next, cur
		budget.SieveMass(cur, scale*ws.suffix[0]*ws.suffix[j+1])
		if tr != nil {
			tr.AddSweeps(1)
			tr.ObserveFrontier(cur.Len())
		}
	}

	// Forward: s = T_K·v = Σ_i coef_i·Qⁱ v. A drop at state i passes only
	// through forward powers (peak-bounded) with coefficient tail suffix[i].
	fcur, fnext := ws.v, cur
	for i := 0; ; i++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		ws.s.AddScaled(ws.coef[i], fcur)
		if i == k {
			break
		}
		fnext.Reset()
		qt.ScatterMulT(fnext, fcur) // fnext = Q·fcur
		fcur, fnext = fnext, fcur
		budget.SievePeak(fcur, scale*ws.suffix[i+1])
		if tr != nil {
			tr.AddSweeps(1)
			tr.ObserveFrontier(fcur.Len())
		}
	}
	cert := budget.Certificate()
	if tr != nil {
		tr.Certificate = cert
	}
	return ws.s.Dense(scale), cert, nil
}
