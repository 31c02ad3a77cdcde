package core

import (
	"context"
	"math"

	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/sparse"
)

// SeriesGeometric evaluates the K-th partial sum of the geometric SimRank*
// series (Eq. 9) by brute force:
//
//	Ŝ_K = (1−C) Σ_{l=0}^{K} (Cˡ/2ˡ) Σ_{α=0}^{l} binom(l,α) Q^α (Qᵀ)^{l−α}
//
// materialising dense powers of Q and Qᵀ and multiplying them pairwise. It
// costs O(K²·n³) (the "brute-force way" the paper dismisses in Sec. 4) and
// exists purely as an independent oracle: the recursive, memoized and
// single-source implementations are all tested against it.
func SeriesGeometric(g *graph.Graph, opt Options) *dense.Matrix {
	s, _ := SeriesGeometricCtx(context.Background(), g, opt)
	return s
}

// SeriesGeometricCtx is SeriesGeometric with cancellation checked between
// series terms — even an oracle sweep of dense O(n³) products should die
// with its caller's deadline.
func SeriesGeometricCtx(ctx context.Context, g *graph.Graph, opt Options) (*dense.Matrix, error) {
	opt = opt.withDefaults()
	k := opt.IterationsGeometric()
	n := g.N()
	q := sparse.BackwardTransition(g).ToDense()
	qt := q.Transpose()

	// qPow[α] = Q^α, qtPow[β] = (Qᵀ)^β.
	qPow := densePowers(q, k)
	qtPow := densePowers(qt, k)

	s := dense.New(n, n)
	for l := 0; l <= k; l++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lw := math.Pow(opt.C, float64(l)) / math.Pow(2, float64(l))
		for alpha := 0; alpha <= l; alpha++ {
			term := dense.Mul(qPow[alpha], qtPow[l-alpha])
			s.Axpy(lw*binom(l, alpha), term)
		}
	}
	s.Scale(1 - opt.C)
	sieve(s, opt.Sieve)
	return s, nil
}

// SeriesExponential evaluates the K-th partial sum of the exponential series
// (Eq. 18) by brute force: all in-link paths of total length l <= K. It is
// the exact oracle of the exponential solvers, which serve this partial sum
// (within the Eq. (12) bound Cᴷ⁺¹/(K+1)! of the limit S′). Theorem 3's
// closed form e^{−C}·T·Tᵀ is the limit, not a truncation: cutting each
// factor at K would add cross terms of length K < l <= 2K.
func SeriesExponential(g *graph.Graph, opt Options) *dense.Matrix {
	s, _ := SeriesExponentialCtx(context.Background(), g, opt)
	return s
}

// SeriesExponentialCtx is SeriesExponential with cancellation checked
// between series terms.
func SeriesExponentialCtx(ctx context.Context, g *graph.Graph, opt Options) (*dense.Matrix, error) {
	opt = opt.withDefaults()
	k := opt.IterationsExponential()
	n := g.N()
	q := sparse.BackwardTransition(g).ToDense()
	qt := q.Transpose()
	qPow := densePowers(q, k)
	qtPow := densePowers(qt, k)

	s := dense.New(n, n)
	for l := 0; l <= k; l++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lw := math.Pow(opt.C, float64(l)) / (factorial(l) * math.Pow(2, float64(l)))
		for alpha := 0; alpha <= l; alpha++ {
			term := dense.Mul(qPow[alpha], qtPow[l-alpha])
			s.Axpy(lw*binom(l, alpha), term)
		}
	}
	s.Scale(math.Exp(-opt.C))
	sieve(s, opt.Sieve)
	return s, nil
}

// LengthWeight is a pluggable length-weight sequence {w_l} for the Sec. 3.2
// ablation: the paper motivates Cˡ (geometric) and Cˡ/l! (exponential) and
// mentions Cˡ/l as a candidate it rejects because the series does not
// simplify. SeriesWeighted evaluates any of them.
type LengthWeight struct {
	Name string
	// Coef returns w_l.
	Coef func(l int) float64
	// Norm is Σ_{l=0}^∞ w_l, used to normalise scores into [0, 1].
	Norm float64
}

// GeometricWeight returns w_l = Cˡ with norm 1/(1−C).
func GeometricWeight(c float64) LengthWeight {
	return LengthWeight{
		Name: "geometric",
		Coef: func(l int) float64 { return math.Pow(c, float64(l)) },
		Norm: 1 / (1 - c),
	}
}

// ExponentialWeight returns w_l = Cˡ/l! with norm e^C.
func ExponentialWeight(c float64) LengthWeight {
	return LengthWeight{
		Name: "exponential",
		Coef: func(l int) float64 { return math.Pow(c, float64(l)) / factorial(l) },
		Norm: math.Exp(c),
	}
}

// HarmonicWeight returns w_0 = 1, w_l = Cˡ/l (l >= 1) with norm
// 1 + ln(1/(1−C)) — the candidate the paper discusses and rejects.
func HarmonicWeight(c float64) LengthWeight {
	return LengthWeight{
		Name: "harmonic",
		Coef: func(l int) float64 {
			if l == 0 {
				return 1
			}
			return math.Pow(c, float64(l)) / float64(l)
		},
		Norm: 1 + math.Log(1/(1-c)),
	}
}

// SeriesWeighted evaluates the K-th partial sum of the generalised SimRank*
// series with an arbitrary length weight,
//
//	S_K = (1/Norm) Σ_{l=0}^{K} (w_l/2ˡ) Σ_{α} binom(l,α) Q^α (Qᵀ)^{l−α},
//
// through the recurrence the SimRank* solvers run (Lemma 4's Pascal-triangle
// rule, evaluated by Horner's rule with steps b_l = w_l/(2ˡ·Norm), ρ_l = 1),
// so it costs O(K·n·m) rather than brute force. The binomial symmetry
// weight is fixed — it is what makes the recurrence exist at all (the
// paper's argument (b) for choosing binomials).
func SeriesWeighted(g *graph.Graph, w LengthWeight, k int) *dense.Matrix {
	s, _ := SeriesWeightedCtx(context.Background(), g, w, k)
	return s
}

// SeriesWeightedCtx is SeriesWeighted with cancellation checked between
// recurrence steps.
func SeriesWeightedCtx(ctx context.Context, g *graph.Graph, w LengthWeight, k int) (*dense.Matrix, error) {
	q := sparse.BackwardTransition(g)
	return iterate(ctx, g.N(), q.MulDenseInto, k, func(l int) (b, rho float64) {
		return w.Coef(l) / (math.Pow(2, float64(l)) * w.Norm), 1
	})
}

// densePowers returns [I, A, A², …, A^k].
func densePowers(a *dense.Matrix, k int) []*dense.Matrix {
	out := make([]*dense.Matrix, k+1)
	out[0] = dense.Identity(a.Rows)
	for i := 1; i <= k; i++ {
		out[i] = dense.Mul(out[i-1], a)
	}
	return out
}

// binom returns the binomial coefficient l-choose-a as a float64.
func binom(l, a int) float64 {
	if a < 0 || a > l {
		return 0
	}
	if a > l-a {
		a = l - a
	}
	r := 1.0
	for i := 0; i < a; i++ {
		r = r * float64(l-i) / float64(i+1)
	}
	return r
}

// factorial returns l! as a float64.
func factorial(l int) float64 {
	r := 1.0
	for i := 2; i <= l; i++ {
		r *= float64(i)
	}
	return r
}

// PathContribution returns the contribution rate a single in-link path of
// length l with α edges from the source towards one endpoint adds to the
// geometric SimRank* score, assuming unit transition weights:
// (1−C)·Cˡ·binom(l,α)/2ˡ. It reproduces the paper's worked examples
// (0.0384 for h←e←a→d, 0.0205 for h←e←a→b→f→d at C = 0.8) and is
// exposed for explanation tooling.
func PathContribution(c float64, l, alpha int) float64 {
	return (1 - c) * math.Pow(c, float64(l)) * binom(l, alpha) / math.Pow(2, float64(l))
}
