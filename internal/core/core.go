// Package core implements SimRank*, the paper's primary contribution: a
// revision of SimRank that scores node pairs by aggregating *all* in-link
// paths — weighted by a geometric (or exponential) length weight Cˡ and a
// binomial symmetry weight binom(l, α) — instead of only the symmetric
// in-link paths SimRank counts. This resolves the "zero-similarity" issue of
// Theorem 1 while keeping an O(Knm)-per-run iterative paradigm, improved to
// O(Kn·m̃) with fine-grained memoization over a biclique-compressed bigraph.
//
// Four all-pairs solvers mirror the paper's algorithm suite:
//
//	Geometric        iter-gSR*  — Eq. (14) fixed-point iterations
//	GeometricMemo    memo-gSR*  — Algorithm 1 (edge concentration)
//	Exponential      eSR*       — the Eq. (18) partial sum, same recurrence
//	ExponentialMemo  memo-eSR*  — the same through the compressed operator
//
// The two families are one series under two length-weight tables
// (weights), so all four run one recurrence (iterate), and the O(Km)-per-
// query single-source and sieved variants are one kernel each over the
// table. A brute-force series evaluator is the test oracle, and pluggable
// length weights serve the Section 3.2 ablation.
package core

import (
	"context"
	"math"

	"repro/internal/biclique"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sparse"
)

// Options configures a SimRank* computation.
type Options struct {
	// C is the damping factor in (0, 1); the paper uses 0.6 in experiments
	// and 0.8 in the Figure-1 walk-through. Defaults to 0.6.
	C float64
	// K is the number of iterations (equivalently, the series truncation
	// length). Defaults to 5, the paper's time-accuracy trade-off. If Eps is
	// set, K is derived from the error bounds instead.
	K int
	// Eps, when positive, selects K from the convergence bounds: Cᵏ⁺¹ <= Eps
	// for the geometric form (Lemma 3) and Cᵏ⁺¹/(k+1)! <= Eps for the
	// exponential form (Eq. 12).
	Eps float64
	// Sieve, when positive, zeroes result entries below the threshold after
	// the final iteration (the paper clips at 1e-4 to save space).
	Sieve float64
	// Mine configures the biclique miner for the memo variants.
	Mine biclique.Options
	// Trace, when non-nil, receives kernel-level detail (sweep counts,
	// frontier widths, sieve spend) from the single-source kernels. Nil —
	// the default — costs one branch per kernel run and zero allocations;
	// call sites on noalloc paths guard it explicitly (simlint obsnoop).
	Trace *obs.KernelTrace
}

func (o Options) withDefaults() Options {
	if o.C <= 0 || o.C >= 1 {
		o.C = 0.6
	}
	if o.K <= 0 {
		o.K = 5
	}
	return o
}

// IterationsGeometric returns the iteration count the geometric solvers will
// run: K, or the smallest k with Cᵏ⁺¹ <= Eps when Eps is set.
func (o Options) IterationsGeometric() int {
	o = o.withDefaults()
	if o.Eps <= 0 {
		return o.K
	}
	k := 0
	for bound := o.C; bound > o.Eps && k < 10_000; k++ {
		bound *= o.C
	}
	return k
}

// IterationsExponential returns the iteration count the exponential solvers
// will run: K, or the smallest k with Cᵏ⁺¹/(k+1)! <= Eps when Eps is set.
// The factorial decay is why memo-eSR* converges in far fewer iterations
// than memo-gSR* at equal accuracy (paper Exp-2).
func (o Options) IterationsExponential() int {
	o = o.withDefaults()
	if o.Eps <= 0 {
		return o.K
	}
	k := 0
	bound := o.C // k=0: C^1/1!
	for bound > o.Eps && k < 10_000 {
		k++
		bound *= o.C / float64(k+1)
	}
	return k
}

// weights is one SimRank* family's length-weight table. Both families are
// the series
//
//	Ŝ_K = a_0 · Σ_{l=0}^{K} rel(l) · Σ_{α=0}^{l} binom(l, α) Q^α (Qᵀ)^{l−α}
//
// with a scale a_0 and relative weights rel(l) = a_l/a_0:
//
//	geometric    Eq. (9):   a_0 = 1−C,     rel(l) = (C/2)ˡ
//	exponential  Eq. (18):  a_0 = e^{−C},  rel(l) = (C/2)ˡ/l!
//
// so one all-pairs routine (iterate), one exact single-source kernel and
// one sieved kernel serve both families; only the table differs.
type weights struct {
	k    int     // truncation length K
	a0   float64 // the scale a_0
	half float64 // C/2
	// factorial marks the exponential table, whose single-source
	// coefficients factor (see singleSource).
	factorial bool
}

// geometric returns the geometric table at o's C and K.
func (o Options) geometric() weights {
	o = o.withDefaults()
	return weights{k: o.IterationsGeometric(), a0: 1 - o.C, half: o.C / 2}
}

// exponential returns the exponential table at o's C and K.
func (o Options) exponential() weights {
	o = o.withDefaults()
	return weights{k: o.IterationsExponential(), a0: math.Exp(-o.C), half: o.C / 2, factorial: true}
}

// rel returns rel(l) = a_l/a_0.
func (w weights) rel(l int) float64 {
	r := math.Pow(w.half, float64(l))
	if w.factorial {
		r /= factorial(l)
	}
	return r
}

// step returns iterate's step l for the table: b_l = a_0 and
// ρ_l = rel(l+1)/rel(l).
func (w weights) step(l int) (b, rho float64) {
	if w.factorial {
		return w.a0, w.half / float64(l+1)
	}
	return w.a0, w.half
}

// coef returns the weight rel(α+β)·binom(α+β, α) of Q^α (Qᵀ)^β in the series.
func (w weights) coef(alpha, beta int) float64 {
	return w.rel(alpha+beta) * binom(alpha+beta, alpha)
}

// applyFn computes dst = Q·src; iterate is written against it so that the
// CSR and compressed-operator backends share all code.
type applyFn func(dst, src *dense.Matrix)

// iterate evaluates the K-th partial sum of a series by Lemma 4's
// recurrence, run from the longest paths inwards (Horner's rule in
// L(X) = Q·X + X·Qᵀ), with (b_l, ρ_l) = step(l):
//
//	S_K = b_K·I,  S_l = b_l·I + ρ_l·L(S_{l+1}),  l = K−1 .. 0.
//
// Since Lˡ(I) = Σ_α binom(l, α) Q^α (Qᵀ)^{l−α} by Pascal's rule, a table's
// steps (a_0, rel(l+1)/rel(l)) give S_0 = a_0 Σ_l rel(l)·Lˡ(I); for the
// geometric table ρ_l = C/2 and each step is one Eq. (14) fixed-point
// iteration. S_{l+1} is symmetric, so S·Qᵀ = (Q·S)ᵀ and a step costs one
// sparse×dense product (the "single summation" the paper contrasts with
// SimRank's double one). The context is checked between steps, so
// cancellation and deadlines abort a long run at step granularity.
func iterate(ctx context.Context, n int, apply applyFn, k int, step func(l int) (b, rho float64)) (*dense.Matrix, error) {
	s := dense.New(n, n)
	b, _ := step(k)
	s.AddDiag(b)
	m := dense.New(n, n)
	for l := k - 1; l >= 0; l-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		apply(m, s) // m = Q·S_{l+1}
		b, rho := step(l)
		assembleSymmetric(s, m, rho, b)
	}
	return s, nil
}

// allPairs runs iterate over one family's table and applies opt's sieve.
func allPairs(ctx context.Context, n int, apply applyFn, w weights, opt Options) (*dense.Matrix, error) {
	s, err := iterate(ctx, n, apply, w.k, w.step)
	if err != nil {
		return nil, err
	}
	sieve(s, opt.Sieve)
	return s, nil
}

// assembleSymmetric computes s = ρ·(m + mᵀ) + b·I with tiled transpose
// reads, keeping the mᵀ accesses cache-resident.
func assembleSymmetric(s, m *dense.Matrix, rho, b float64) {
	n := s.Rows
	const tile = 64
	nTiles := (n + tile - 1) / tile
	par.For(nTiles, 0, func(tlo, thi int) {
		for t := tlo; t < thi; t++ {
			ilo, ihi := t*tile, (t+1)*tile
			if ihi > n {
				ihi = n
			}
			for jlo := 0; jlo < n; jlo += tile {
				jhi := jlo + tile
				if jhi > n {
					jhi = n
				}
				for i := ilo; i < ihi; i++ {
					row := s.Row(i)
					mi := m.Row(i)
					for j := jlo; j < jhi; j++ {
						row[j] = rho * (mi[j] + m.Data[j*n+i])
					}
				}
			}
			for i := ilo; i < ihi; i++ {
				s.Data[i*n+i] += b
			}
		}
	})
}

// Geometric computes all-pairs geometric SimRank* with plain CSR iterations
// (the paper's iter-gSR*, O(Knm) time).
func Geometric(g *graph.Graph, opt Options) *dense.Matrix {
	s, _ := GeometricFromTransition(context.Background(), sparse.BackwardTransition(g), opt)
	return s
}

// GeometricFromTransition runs the geometric iterations against a pre-built
// backward transition matrix Q, the per-query amortisation a serving engine
// needs: build Q once, answer many queries. The context is checked between
// iterations, and the only possible error is ctx.Err().
func GeometricFromTransition(ctx context.Context, q *sparse.CSR, opt Options) (*dense.Matrix, error) {
	return allPairs(ctx, q.R, q.MulDenseInto, opt.geometric(), opt)
}

// GeometricMemo computes all-pairs geometric SimRank* through the
// biclique-compressed bigraph (the paper's memo-gSR*, Algorithm 1,
// O(Kn·m̃) time with m̃ <= m).
func GeometricMemo(g *graph.Graph, opt Options) *dense.Matrix {
	c := biclique.Compress(g, opt.Mine)
	return GeometricWithCompressed(g, c, opt)
}

// GeometricWithCompressed is GeometricMemo with a pre-built compression,
// letting callers amortise mining across runs (and letting the harness time
// the two phases separately, as the paper's Fig. 6(f) does).
func GeometricWithCompressed(g *graph.Graph, c *biclique.Compressed, opt Options) *dense.Matrix {
	s, _ := GeometricFromCompressed(context.Background(), c, opt)
	return s
}

// GeometricFromCompressed is GeometricWithCompressed with cancellation. A
// fresh operator is built per call, so concurrent calls may share c.
func GeometricFromCompressed(ctx context.Context, c *biclique.Compressed, opt Options) (*dense.Matrix, error) {
	op := c.Operator()
	return allPairs(ctx, c.N, op.Apply, opt.geometric(), opt)
}

// Exponential computes all-pairs exponential SimRank* (the paper's eSR*),
// the Eq. (18) partial sum at K, with plain CSR iterations.
func Exponential(g *graph.Graph, opt Options) *dense.Matrix {
	s, _ := ExponentialFromTransition(context.Background(), sparse.BackwardTransition(g), opt)
	return s
}

// ExponentialFromTransition runs the exponential iterations against a
// pre-built backward transition matrix, with cancellation checked between
// iterations.
func ExponentialFromTransition(ctx context.Context, q *sparse.CSR, opt Options) (*dense.Matrix, error) {
	return allPairs(ctx, q.R, q.MulDenseInto, opt.exponential(), opt)
}

// ExponentialMemo computes all-pairs exponential SimRank* through the
// compressed operator (the paper's memo-eSR*).
func ExponentialMemo(g *graph.Graph, opt Options) *dense.Matrix {
	s, _ := ExponentialFromCompressed(context.Background(), biclique.Compress(g, opt.Mine), opt)
	return s
}

// ExponentialFromCompressed is ExponentialMemo with a pre-built compression
// and cancellation. A fresh operator is built per call, so concurrent calls
// may share c.
func ExponentialFromCompressed(ctx context.Context, c *biclique.Compressed, opt Options) (*dense.Matrix, error) {
	op := c.Operator()
	return allPairs(ctx, c.N, op.Apply, opt.exponential(), opt)
}

// sieve zeroes entries below eps in place (threshold-sieved similarities —
// the one Lizorkin optimisation that ports to SimRank*, Sec. 4.3).
func sieve(m *dense.Matrix, eps float64) {
	if eps <= 0 {
		return
	}
	for i, v := range m.Data {
		if v < eps {
			m.Data[i] = 0
		}
	}
}

// Sieve exposes threshold sieving for externally produced score matrices.
func Sieve(m *dense.Matrix, eps float64) { sieve(m, eps) }
