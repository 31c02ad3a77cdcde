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
//	Exponential      eSR*       — Eq. (19) R/T recurrence, S = e^{-C}·T·Tᵀ
//	ExponentialMemo  memo-eSR*  — Eq. (19) through the compressed operator
//
// plus O(Km)-per-query single-source variants, a brute-force series
// evaluator used as a test oracle, and pluggable length weights for the
// Section 3.2 ablation.
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

// applyFn computes dst = Q·src; the iterative kernels are written against
// this so that the CSR and compressed-operator backends share all code.
type applyFn func(dst, src *dense.Matrix)

// geometricIterate runs the Eq. (14) fixed point:
//
//	S_0     = (1−C)·I
//	S_{k+1} = (C/2)·(Q·S_k + S_k·Qᵀ) + (1−C)·I
//
// exploiting S_k symmetry: S_k·Qᵀ = (Q·S_k)ᵀ, so each iteration costs one
// sparse×dense product (the "single summation" the paper contrasts with
// SimRank's double one). The context is checked between iterations, so
// cancellation and deadlines abort a long run at iteration granularity.
func geometricIterate(ctx context.Context, n int, apply applyFn, opt Options) (*dense.Matrix, error) {
	opt = opt.withDefaults()
	iters := opt.IterationsGeometric()
	s := dense.New(n, n)
	s.AddDiag(1 - opt.C)
	m := dense.New(n, n)
	for k := 0; k < iters; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		apply(m, s) // m = Q·S_k
		assembleSymmetric(s, m, opt.C)
	}
	sieve(s, opt.Sieve)
	return s, nil
}

// assembleSymmetric computes s = (C/2)·(m + mᵀ) + (1−C)·I with tiled
// transpose reads, keeping the mᵀ accesses cache-resident.
func assembleSymmetric(s, m *dense.Matrix, c float64) {
	n := s.Rows
	halfC := c / 2
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
						row[j] = halfC * (mi[j] + m.Data[j*n+i])
					}
				}
			}
			for i := ilo; i < ihi; i++ {
				s.Data[i*n+i] += 1 - c
			}
		}
	})
}

// Geometric computes all-pairs geometric SimRank* with plain CSR iterations
// (the paper's iter-gSR*, O(Knm) time).
func Geometric(g *graph.Graph, opt Options) *dense.Matrix {
	s, _ := GeometricCtx(context.Background(), g, opt)
	return s
}

// GeometricCtx is Geometric with cancellation: the context is checked
// between iterations and the only possible error is ctx.Err().
func GeometricCtx(ctx context.Context, g *graph.Graph, opt Options) (*dense.Matrix, error) {
	return GeometricFromTransition(ctx, sparse.BackwardTransition(g), opt)
}

// GeometricFromTransition runs the geometric iterations against a pre-built
// backward transition matrix Q, the per-query amortisation a serving engine
// needs: build Q once, answer many queries.
func GeometricFromTransition(ctx context.Context, q *sparse.CSR, opt Options) (*dense.Matrix, error) {
	return geometricIterate(ctx, q.R, q.MulDenseInto, opt)
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
	return geometricIterate(ctx, c.N, op.Apply, opt)
}

// exponentialIterate runs the Eq. (19) recurrence
//
//	R_0 = I, T_0 = 0;  T_{k+1} = T_k + (C/2)ᵏ/k!·R_k,  R_{k+1} = Q·R_k
//
// and returns S = e^{−C}·T·Tᵀ (Theorem 3's closed form, truncated).
func exponentialIterate(ctx context.Context, n int, apply applyFn, opt Options) (*dense.Matrix, error) {
	opt = opt.withDefaults()
	iters := opt.IterationsExponential()
	r := dense.Identity(n)
	next := dense.New(n, n)
	t := dense.New(n, n)
	coef := 1.0 // (C/2)^k / k! at k = 0
	for k := 0; ; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t.Axpy(coef, r)
		if k == iters {
			break
		}
		apply(next, r)
		r, next = next, r
		coef *= opt.C / (2 * float64(k+1))
	}
	s := dense.MulABT(t, t)
	s.Scale(math.Exp(-opt.C))
	sieve(s, opt.Sieve)
	return s, nil
}

// Exponential computes all-pairs exponential SimRank* (the paper's eSR*)
// with plain CSR iterations.
func Exponential(g *graph.Graph, opt Options) *dense.Matrix {
	s, _ := ExponentialCtx(context.Background(), g, opt)
	return s
}

// ExponentialCtx is Exponential with cancellation checked between
// iterations.
func ExponentialCtx(ctx context.Context, g *graph.Graph, opt Options) (*dense.Matrix, error) {
	return ExponentialFromTransition(ctx, sparse.BackwardTransition(g), opt)
}

// ExponentialFromTransition runs the exponential recurrence against a
// pre-built backward transition matrix.
func ExponentialFromTransition(ctx context.Context, q *sparse.CSR, opt Options) (*dense.Matrix, error) {
	return exponentialIterate(ctx, q.R, q.MulDenseInto, opt)
}

// ExponentialMemo computes all-pairs exponential SimRank* through the
// compressed operator (the paper's memo-eSR*).
func ExponentialMemo(g *graph.Graph, opt Options) *dense.Matrix {
	c := biclique.Compress(g, opt.Mine)
	return ExponentialWithCompressed(g, c, opt)
}

// ExponentialWithCompressed is ExponentialMemo with a pre-built compression.
func ExponentialWithCompressed(g *graph.Graph, c *biclique.Compressed, opt Options) *dense.Matrix {
	s, _ := ExponentialFromCompressed(context.Background(), c, opt)
	return s
}

// ExponentialFromCompressed is ExponentialWithCompressed with cancellation.
// A fresh operator is built per call, so concurrent calls may share c.
func ExponentialFromCompressed(ctx context.Context, c *biclique.Compressed, opt Options) (*dense.Matrix, error) {
	op := c.Operator()
	return exponentialIterate(ctx, c.N, op.Apply, opt)
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
