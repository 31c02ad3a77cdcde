package simstar

import (
	"context"

	"repro/internal/classic"
	"repro/internal/prank"
	"repro/internal/simrank"
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

// rowMeasure is the Measure that Lookup returns for a name with a kernel
// row (kernels.go): it runs the row's all-pairs and exact kernels on a
// one-shot state built for the call, so a standalone call runs the code an
// Engine read runs. It holds the row rather than resolving its name, so it
// answers even where the name was re-registered to a factory returning it.
type rowMeasure struct {
	name string
	cfg  config
	k    *kernelFamily
}

func (m *rowMeasure) Name() string { return m.name }

// state builds the one-shot state of a call on g: the one transition
// matrix the row reads, and the compression unmined.
func (m *rowMeasure) state(g *Graph) *engineState {
	return newBaseState(g, m.cfg, !m.k.forward, m.k.forward)
}

func (m *rowMeasure) AllPairs(ctx context.Context, g *Graph) (*Scores, error) {
	if err := m.cfg.checkRun(ctx); err != nil {
		return nil, err
	}
	s, err := m.k.allPairs(ctx, m.state(g), m.cfg)
	if err != nil {
		return nil, err
	}
	return denseScores(s), nil
}

func (m *rowMeasure) SingleSource(ctx context.Context, g *Graph, q int) ([]float64, error) {
	if err := m.cfg.checkQuery(ctx, g.N(), q); err != nil {
		return nil, err
	}
	st := m.state(g)
	dst := make([]float64, g.N())
	if err := m.k.exact(ctx, st, m.cfg, q, nil, dst, nil); err != nil {
		return nil, err
	}
	return dst, nil
}

// measure adapts a solver without a kernel row to the Measure interface.
// Its single-source answer is row q of an all-pairs run.
type measure struct {
	name     string
	cfg      config
	allPairs func(ctx context.Context, g *Graph, cfg config) (*Scores, error)
}

func (m *measure) Name() string { return m.name }

func (m *measure) AllPairs(ctx context.Context, g *Graph) (*Scores, error) {
	if err := m.cfg.checkRun(ctx); err != nil {
		return nil, err
	}
	return m.allPairs(ctx, g, m.cfg)
}

func (m *measure) SingleSource(ctx context.Context, g *Graph, q int) ([]float64, error) {
	if err := m.cfg.checkQuery(ctx, g.N(), q); err != nil {
		return nil, err
	}
	s, err := m.allPairs(ctx, g, m.cfg)
	if err != nil {
		return nil, err
	}
	return s.Row(q), nil
}

// factoryFor closes a measure template over the options given at Lookup.
func factoryFor(name string, allPairs func(ctx context.Context, g *Graph, cfg config) (*Scores, error)) Factory {
	return func(opts ...Option) Measure {
		return &measure{name: name, cfg: buildConfig(opts), allPairs: allPairs}
	}
}

func init() {
	registerBuiltin(MeasureGeometric, &geometricKernels)
	registerBuiltin(MeasureGeometricMemo, &geometricMemoKernels)
	registerBuiltin(MeasureExponential, &exponentialKernels)
	registerBuiltin(MeasureExponentialMemo, &exponentialMemoKernels)
	registerBuiltin(MeasureRWR, &rwrKernels)

	Register(MeasureSimRank, factoryFor(MeasureSimRank,
		func(ctx context.Context, g *Graph, cfg config) (*Scores, error) {
			m, err := simrank.PSumCtx(ctx, g, cfg.simrankOptions())
			if err != nil {
				return nil, err
			}
			return denseScores(m), nil
		}))

	Register(MeasureSimRankMatrix, factoryFor(MeasureSimRankMatrix,
		func(ctx context.Context, g *Graph, cfg config) (*Scores, error) {
			m, err := simrank.MatrixFormCtx(ctx, g, cfg.simrankOptions())
			if err != nil {
				return nil, err
			}
			return denseScores(m), nil
		}))

	Register(MeasurePRank, factoryFor(MeasurePRank,
		func(ctx context.Context, g *Graph, cfg config) (*Scores, error) {
			m, err := prank.AllPairsCtx(ctx, g, cfg.prankOptions())
			if err != nil {
				return nil, err
			}
			return denseScores(m), nil
		}))

	Register(MeasurePRankMatrix, factoryFor(MeasurePRankMatrix,
		func(ctx context.Context, g *Graph, cfg config) (*Scores, error) {
			m, err := prank.MatrixFormCtx(ctx, g, cfg.prankOptions())
			if err != nil {
				return nil, err
			}
			return denseScores(m), nil
		}))

	Register(MeasureSparse, factoryFor(MeasureSparse,
		func(ctx context.Context, g *Graph, cfg config) (*Scores, error) {
			s, err := sparsesim.GeometricCtx(ctx, g, cfg.sparseOptions())
			if err != nil {
				return nil, err
			}
			return sparseScores(s), nil
		}))

	Register(MeasureCoCitation, factoryFor(MeasureCoCitation,
		func(ctx context.Context, g *Graph, cfg config) (*Scores, error) {
			// Non-iterative: the entry check in AllPairs is the only
			// cancellation point.
			return denseScores(classic.CoCitation(g)), nil
		}))

	// The paper's algorithm names.
	RegisterAlias("iter-gsr*", MeasureGeometric)
	RegisterAlias("gsr*", MeasureGeometric)
	RegisterAlias("memo-gsr*", MeasureGeometricMemo)
	RegisterAlias("esr*", MeasureExponential)
	RegisterAlias("memo-esr*", MeasureExponentialMemo)
	RegisterAlias("psum-sr", MeasureSimRank)
	RegisterAlias("ppr", MeasureRWR)
}
