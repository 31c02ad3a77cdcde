package simstar

import (
	"context"
	"fmt"

	"repro/internal/classic"
	"repro/internal/core"
	"repro/internal/prank"
	"repro/internal/rwr"
	"repro/internal/simrank"
	"repro/internal/sparse"
	"repro/internal/sparsesim"
)

// Measure is a node-pair similarity measure. Implementations answer
// all-pairs and single-source queries under a context: cancellation and
// deadlines are checked between iterations, so a long run aborts promptly
// with ctx.Err().
//
// SingleSource(ctx, g, q) always equals row q of AllPairs(ctx, g) — the
// conformance tests assert this for every registered measure. Measures
// without a cheaper native single-source form derive the row from an
// all-pairs run.
type Measure interface {
	// Name returns the name the measure answers to in the registry.
	Name() string
	// AllPairs computes the full n×n similarity matrix over g.
	AllPairs(ctx context.Context, g *Graph) (*Scores, error)
	// SingleSource computes the scores of query node q against every node
	// of g — row q of AllPairs, usually at far lower cost.
	SingleSource(ctx context.Context, g *Graph, q int) ([]float64, error)
}

// Canonical names of the built-in measures, as registered. Lookup also
// accepts the paper's algorithm names as aliases (iter-gsr*, memo-gsr*,
// esr*, memo-esr*, psum-sr).
const (
	MeasureGeometric       = "gsimrank*"        // iterative geometric SimRank* (iter-gSR*)
	MeasureGeometricMemo   = "memo-gsimrank*"   // geometric through edge concentration (memo-gSR*)
	MeasureExponential     = "esimrank*"        // exponential SimRank* (eSR*)
	MeasureExponentialMemo = "memo-esimrank*"   // exponential through edge concentration (memo-eSR*)
	MeasureSimRank         = "simrank"          // classic SimRank, partial-sums form (psum-SR)
	MeasureSimRankMatrix   = "simrank-matrix"   // SimRank, (1−C)-normalised matrix form
	MeasurePRank           = "prank"            // P-Rank, diagonal pinned to 1
	MeasurePRankMatrix     = "prank-matrix"     // P-Rank, (1−C)-normalised convention
	MeasureRWR             = "rwr"              // random walk with restart
	MeasureSparse          = "sparse-gsimrank*" // threshold-sieved sparse geometric SimRank*
	MeasureCoCitation      = "cocitation"       // co-citation counts (non-iterative baseline)
)

// measure adapts one family's solver functions to the Measure interface.
type measure struct {
	name string
	cfg  config
	// allPairs is required; single may be nil, in which case SingleSource
	// falls back to extracting row q from a full all-pairs run.
	allPairs func(ctx context.Context, g *Graph, cfg config) (*Scores, error)
	single   func(ctx context.Context, g *Graph, q int, cfg config) ([]float64, error)
}

func (m *measure) Name() string { return m.name }

func (m *measure) AllPairs(ctx context.Context, g *Graph) (*Scores, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return m.allPairs(ctx, g, m.cfg)
}

func (m *measure) SingleSource(ctx context.Context, g *Graph, q int) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if q < 0 || q >= g.N() {
		return nil, fmt.Errorf("simstar: query node %d out of range [0, %d)", q, g.N())
	}
	if m.single != nil {
		return m.single(ctx, g, q, m.cfg)
	}
	s, err := m.allPairs(ctx, g, m.cfg)
	if err != nil {
		return nil, err
	}
	return s.Row(q), nil
}

// factoryFor closes a measure template over the options given at Lookup.
func factoryFor(name string,
	allPairs func(ctx context.Context, g *Graph, cfg config) (*Scores, error),
	single func(ctx context.Context, g *Graph, q int, cfg config) ([]float64, error)) Factory {
	return func(opts ...Option) Measure {
		return &measure{name: name, cfg: buildConfig(opts), allPairs: allPairs, single: single}
	}
}

func init() {
	registerBuiltin(MeasureGeometric, factoryFor(MeasureGeometric,
		func(ctx context.Context, g *Graph, cfg config) (*Scores, error) {
			m, err := core.GeometricCtx(ctx, g, cfg.coreOptions())
			if err != nil {
				return nil, err
			}
			return denseScores(m), nil
		},
		func(ctx context.Context, g *Graph, q int, cfg config) ([]float64, error) {
			return core.SingleSourceGeometricFromTransition(ctx, sparse.BackwardTransition(g), q, cfg.coreOptions())
		}), &geometricKernels)

	registerBuiltin(MeasureGeometricMemo, factoryFor(MeasureGeometricMemo,
		func(ctx context.Context, g *Graph, cfg config) (*Scores, error) {
			opt := cfg.coreOptions()
			m, err := core.GeometricFromCompressed(ctx, compress(g, cfg), opt)
			if err != nil {
				return nil, err
			}
			return denseScores(m), nil
		},
		// Single-source never materialises the matrix, so it does not use
		// the compression; it still matches row q of the memo run exactly.
		func(ctx context.Context, g *Graph, q int, cfg config) ([]float64, error) {
			return core.SingleSourceGeometricFromTransition(ctx, sparse.BackwardTransition(g), q, cfg.coreOptions())
		}), &geometricMemoKernels)

	registerBuiltin(MeasureExponential, factoryFor(MeasureExponential,
		func(ctx context.Context, g *Graph, cfg config) (*Scores, error) {
			m, err := core.ExponentialCtx(ctx, g, cfg.coreOptions())
			if err != nil {
				return nil, err
			}
			return denseScores(m), nil
		},
		func(ctx context.Context, g *Graph, q int, cfg config) ([]float64, error) {
			return core.SingleSourceExponentialFromTransition(ctx, sparse.BackwardTransition(g), q, cfg.coreOptions())
		}), &exponentialKernels)

	registerBuiltin(MeasureExponentialMemo, factoryFor(MeasureExponentialMemo,
		func(ctx context.Context, g *Graph, cfg config) (*Scores, error) {
			opt := cfg.coreOptions()
			m, err := core.ExponentialFromCompressed(ctx, compress(g, cfg), opt)
			if err != nil {
				return nil, err
			}
			return denseScores(m), nil
		},
		func(ctx context.Context, g *Graph, q int, cfg config) ([]float64, error) {
			return core.SingleSourceExponentialFromTransition(ctx, sparse.BackwardTransition(g), q, cfg.coreOptions())
		}), &exponentialMemoKernels)

	Register(MeasureSimRank, factoryFor(MeasureSimRank,
		func(ctx context.Context, g *Graph, cfg config) (*Scores, error) {
			m, err := simrank.PSumCtx(ctx, g, cfg.simrankOptions())
			if err != nil {
				return nil, err
			}
			return denseScores(m), nil
		}, nil))

	Register(MeasureSimRankMatrix, factoryFor(MeasureSimRankMatrix,
		func(ctx context.Context, g *Graph, cfg config) (*Scores, error) {
			m, err := simrank.MatrixFormCtx(ctx, g, cfg.simrankOptions())
			if err != nil {
				return nil, err
			}
			return denseScores(m), nil
		}, nil))

	Register(MeasurePRank, factoryFor(MeasurePRank,
		func(ctx context.Context, g *Graph, cfg config) (*Scores, error) {
			m, err := prank.AllPairsCtx(ctx, g, cfg.prankOptions())
			if err != nil {
				return nil, err
			}
			return denseScores(m), nil
		}, nil))

	Register(MeasurePRankMatrix, factoryFor(MeasurePRankMatrix,
		func(ctx context.Context, g *Graph, cfg config) (*Scores, error) {
			m, err := prank.MatrixFormCtx(ctx, g, cfg.prankOptions())
			if err != nil {
				return nil, err
			}
			return denseScores(m), nil
		}, nil))

	registerBuiltin(MeasureRWR, factoryFor(MeasureRWR,
		func(ctx context.Context, g *Graph, cfg config) (*Scores, error) {
			m, err := rwr.AllPairsCtx(ctx, g, cfg.rwrOptions())
			if err != nil {
				return nil, err
			}
			return denseScores(m), nil
		},
		func(ctx context.Context, g *Graph, q int, cfg config) ([]float64, error) {
			return rwr.SingleSourceFromTransition(ctx, sparse.ForwardTransition(g), q, cfg.rwrOptions())
		}), &rwrKernels)

	Register(MeasureSparse, factoryFor(MeasureSparse,
		func(ctx context.Context, g *Graph, cfg config) (*Scores, error) {
			s, err := sparsesim.GeometricCtx(ctx, g, cfg.sparseOptions())
			if err != nil {
				return nil, err
			}
			return sparseScores(s), nil
		}, nil))

	Register(MeasureCoCitation, factoryFor(MeasureCoCitation,
		func(ctx context.Context, g *Graph, cfg config) (*Scores, error) {
			// Non-iterative: the entry check in AllPairs is the only
			// cancellation point.
			return denseScores(classic.CoCitation(g)), nil
		}, nil))

	// The paper's algorithm names.
	RegisterAlias("iter-gsr*", MeasureGeometric)
	RegisterAlias("gsr*", MeasureGeometric)
	RegisterAlias("memo-gsr*", MeasureGeometricMemo)
	RegisterAlias("esr*", MeasureExponential)
	RegisterAlias("memo-esr*", MeasureExponentialMemo)
	RegisterAlias("psum-sr", MeasureSimRank)
	RegisterAlias("ppr", MeasureRWR)
}
