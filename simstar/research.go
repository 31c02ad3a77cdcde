package simstar

import (
	"context"

	"repro/internal/core"
	"repro/internal/simrank"
)

// This file is the research surface of the API: the knobs the paper's
// evaluation section turns that a production caller normally leaves alone —
// the SVD baseline, iteration-count resolution, and the Section 3.2
// length-weight ablation. cmd/experiments runs entirely on these plus the
// registry, so the experiments exercise the same public API as any other
// client.

// MeasureMtxSimRank is Li et al.'s low-rank SVD SimRank solver (mtx-SR),
// the paper's cost-inhibitive baseline. Configure the retained rank with
// WithRank. It is registered like the other measures but carries the
// O(r⁶) caveat of the closed form.
const MeasureMtxSimRank = "mtx-simrank"

// WithRank truncates the SVD of the mtx-simrank measure to the given rank.
// 0 keeps every singular value above a numeric-rank cut-off. Only
// mtx-simrank reads it.
func WithRank(r int) Option { return func(cfg *config) { cfg.rank = r } }

func init() {
	Register(MeasureMtxSimRank, factoryFor(MeasureMtxSimRank,
		func(ctx context.Context, g *Graph, cfg config) (*Scores, error) {
			// The SVD solver is not iterative; the entry check in AllPairs
			// is its cancellation point.
			m, err := simrank.MtxSR(g, simrank.MtxOptions{C: cfg.c, Rank: cfg.rank})
			if err != nil {
				return nil, err
			}
			return denseScores(m), nil
		}))
	RegisterAlias("mtx-sr", MeasureMtxSimRank)
}

// IterationsGeometric resolves the iteration count the geometric solvers
// run under the given options: WithK's value, or the smallest K with
// Cᵏ⁺¹ <= ε when WithEps is set.
func IterationsGeometric(opts ...Option) int {
	return buildConfig(opts).coreOptions().IterationsGeometric()
}

// IterationsExponential resolves the iteration count the exponential
// solvers run: WithK's value, or the smallest K with Cᵏ⁺¹/(k+1)! <= ε when
// WithEps is set. The factorial decay is why the exponential form needs far
// fewer iterations at equal accuracy.
func IterationsExponential(opts ...Option) int {
	return buildConfig(opts).coreOptions().IterationsExponential()
}

// LengthWeight is a pluggable in-link path length weight for the Section
// 3.2 ablation: SimRank* scores paths by Σ_l w_l·(path mass at length l).
type LengthWeight = core.LengthWeight

// GeometricWeight is the paper's Cˡ weight (normalised), the one SimRank*
// adopts for its computable fixed point.
func GeometricWeight(c float64) LengthWeight { return core.GeometricWeight(c) }

// ExponentialWeight is the Cˡ/l! weight behind eSR*.
func ExponentialWeight(c float64) LengthWeight { return core.ExponentialWeight(c) }

// HarmonicWeight is the Cˡ/l candidate the paper rejects as not admitting
// a simplification.
func HarmonicWeight(c float64) LengthWeight { return core.HarmonicWeight(c) }

// SeriesWeighted evaluates the K-term weighted series under an arbitrary
// positive length weight — the ablation's evaluator. It runs the recurrence
// the SimRank* solvers run (Lemma 4), O(K·n·m) time and two dense n×n
// matrices: small graphs only.
func SeriesWeighted(g *Graph, w LengthWeight, k int) *Scores {
	return denseScores(core.SeriesWeighted(g, w, k))
}
