package rwr

import (
	"context"

	"repro/internal/sparse"
)

// Threshold-sieved approximate single-source RWR. The walk mass spreads
// from the query node through Wᵀ sweeps; entries below an adaptive
// threshold are dropped each sweep and charged against an error budget, so
// the result carries a certified element-wise bound:
//
//	|approx[i] − exact[i]| <= MaxError <= tol   for every node i,
//
// where "exact" is SingleSourceFromTransition at the same Options. Mass
// dropped before step k can only reach the output through the series tail
// Σ_{l>=k} (1−C)·Cˡ, the geometric decay that lets late sweeps drop
// proportionally more. Tolerances below sparse.MinCertTolerance disable
// dropping; callers wanting bitwise equality with the exact kernel should
// dispatch to it directly.

// ApproxSingleSourceFromTransition answers one sieved RWR single-source
// query against a pre-built forward transition matrix, returning the scores
// and the certified MaxError bound.
func ApproxSingleSourceFromTransition(ctx context.Context, w *sparse.CSR, q int, tol float64, opt Options) ([]float64, float64, error) {
	ws := newApproxRWRWS(w.R, opt)
	return ws.run(ctx, w, q, tol)
}

// approxRWRWS is the sieved RWR workspace: two ping-pong frontiers, the
// dense output accumulator shared across runs, and the series-tail weights
// tail[k] = Σ_{l=k}^{K} (1−C)·Cˡ.
type approxRWRWS struct {
	opt  Options
	a, b *sparse.Frontier
	out  []float64
	tail []float64
}

func newApproxRWRWS(n int, opt Options) *approxRWRWS {
	opt = opt.withDefaults()
	ws := &approxRWRWS{
		opt:  opt,
		a:    sparse.NewFrontier(n),
		b:    sparse.NewFrontier(n),
		out:  make([]float64, n),
		tail: make([]float64, opt.K+2),
	}
	coef := 1 - opt.C
	for k := 0; k <= opt.K; k++ {
		ws.tail[k] = coef
		coef *= opt.C
	}
	// Suffix-sum the per-term weights into the series tails.
	for k := opt.K - 1; k >= 0; k-- {
		ws.tail[k] += ws.tail[k+1]
	}
	return ws
}

// run answers one query. The returned slice is ws.out — valid until the
// next run on the same workspace; callers retaining it across runs must
// copy.
func (ws *approxRWRWS) run(ctx context.Context, w *sparse.CSR, q int, tol float64) ([]float64, float64, error) {
	ws.a.Reset()
	ws.b.Reset()
	opt := ws.opt
	out := ws.out
	for i := range out {
		out[i] = 0
	}
	tr := opt.Trace
	budget := sparse.NewCertBudget(tol, opt.K)
	budget.Trace = tr

	cur, next := ws.a, ws.b
	cur.Add(int32(q), 1)
	coef := 1 - opt.C
	for k := 0; ; k++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		cur.AddScaledInto(out, coef)
		if k == opt.K {
			break
		}
		next.Reset()
		w.ScatterMulT(next, cur) // next = Wᵀ·cur
		cur, next = next, cur
		budget.SieveMass(cur, ws.tail[k+1])
		if tr != nil {
			tr.AddSweeps(1)
			tr.ObserveFrontier(cur.Len())
		}
		coef *= opt.C
	}
	cert := budget.Certificate()
	if tr != nil {
		tr.Certificate = cert
	}
	return out, cert, nil
}
