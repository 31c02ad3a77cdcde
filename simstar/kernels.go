package simstar

import (
	"context"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/obs"
	"repro/internal/rwr"
	"repro/internal/sparse"
)

// This file is the kernel table, the one place a built-in measure name
// becomes a kernel: the Engine runs a name's row on its epoch state, and
// the Measure that Lookup returns for the name runs the same row on a
// one-shot state (see rowMeasure). Geometric and exponential SimRank* are
// one series under two length-weight tables, so their rows call the same
// internal/core exact kernel, sieved kernel and all-pairs recurrence and
// differ only in the table each core entry point selects; RWR has its own
// exact and sieved kernel. The memo variants answer single-source queries
// with their iterative family's kernels (the scores are identical) and
// differ only in all-pairs, which keeps the biclique-compressed operator.
//
// registerBuiltin attaches a row to the registry entry of each fast-path
// name, so re-registering the name drops the row together with the factory:
// the override is served, never the built-in kernel.

// kernelFamily is one row of the kernel table. Each func runs over the
// pinned epoch state and picks its own operator side (Q or W), transpose and
// options.
type kernelFamily struct {
	// forward marks the row whose kernels read W (RWR); the SimRank* rows
	// read Q. A one-shot state builds only the matrix its row reads.
	forward bool
	// exact runs the exact WS kernel for query node q into dst (length n),
	// drawing every intermediate from ws. kt (nilable) receives the kernel
	// detail.
	exact func(ctx context.Context, st *engineState, cfg config, q int, ws *sparse.Workspace, dst []float64, kt *obs.KernelTrace) error
	// sieved runs the threshold-sieved kernel at cfg's tolerance for query
	// node q and returns the scores plus their certified MaxError.
	sieved func(ctx context.Context, st *engineState, cfg config, q int, kt *obs.KernelTrace) ([]float64, float64, error)
	// allPairs computes the n×n matrix.
	allPairs func(ctx context.Context, st *engineState, cfg config) (*dense.Matrix, error)
}

var (
	geometricKernels = kernelFamily{
		exact:  geometricExact,
		sieved: geometricSieved,
		allPairs: func(ctx context.Context, st *engineState, cfg config) (*dense.Matrix, error) {
			return core.GeometricFromTransition(ctx, st.backward, cfg.coreOptions())
		},
	}
	geometricMemoKernels = kernelFamily{
		exact:  geometricExact,
		sieved: geometricSieved,
		allPairs: func(ctx context.Context, st *engineState, cfg config) (*dense.Matrix, error) {
			return core.GeometricFromCompressed(ctx, st.comp.of(st.g, st.miner), cfg.coreOptions())
		},
	}
	exponentialKernels = kernelFamily{
		exact:  exponentialExact,
		sieved: exponentialSieved,
		allPairs: func(ctx context.Context, st *engineState, cfg config) (*dense.Matrix, error) {
			return core.ExponentialFromTransition(ctx, st.backward, cfg.coreOptions())
		},
	}
	exponentialMemoKernels = kernelFamily{
		exact:  exponentialExact,
		sieved: exponentialSieved,
		allPairs: func(ctx context.Context, st *engineState, cfg config) (*dense.Matrix, error) {
			return core.ExponentialFromCompressed(ctx, st.comp.of(st.g, st.miner), cfg.coreOptions())
		},
	}
	rwrKernels = kernelFamily{
		forward: true,
		exact:   rwrExact,
		sieved:  rwrSieved,
		allPairs: func(ctx context.Context, st *engineState, cfg config) (*dense.Matrix, error) {
			return rwr.AllPairsFromTransition(ctx, st.forward, cfg.rwrOptions())
		},
	}
)

//simstar:noalloc
func geometricExact(ctx context.Context, st *engineState, cfg config, q int, ws *sparse.Workspace, dst []float64, kt *obs.KernelTrace) error {
	opt := cfg.coreOptions()
	opt.Trace = kt
	return core.SingleSourceGeometricWS(ctx, st.backward, q, opt, ws, dst)
}

//simstar:noalloc
func exponentialExact(ctx context.Context, st *engineState, cfg config, q int, ws *sparse.Workspace, dst []float64, kt *obs.KernelTrace) error {
	opt := cfg.coreOptions()
	opt.Trace = kt
	return core.SingleSourceExponentialWS(ctx, st.backward, q, opt, ws, dst)
}

//simstar:noalloc
func rwrExact(ctx context.Context, st *engineState, cfg config, q int, ws *sparse.Workspace, dst []float64, kt *obs.KernelTrace) error {
	opt := cfg.rwrOptions()
	opt.Trace = kt
	return rwr.SingleSourceWS(ctx, st.forward, q, opt, ws, dst)
}

func geometricSieved(ctx context.Context, st *engineState, cfg config, q int, kt *obs.KernelTrace) ([]float64, float64, error) {
	opt := cfg.coreOptions()
	opt.Trace = kt
	return core.ApproxSingleSourceGeometricFromTransition(ctx, st.backward, st.qt.of(st.backward), q, cfg.tolerance, opt)
}

func exponentialSieved(ctx context.Context, st *engineState, cfg config, q int, kt *obs.KernelTrace) ([]float64, float64, error) {
	opt := cfg.coreOptions()
	opt.Trace = kt
	return core.ApproxSingleSourceExponentialFromTransition(ctx, st.backward, st.qt.of(st.backward), q, cfg.tolerance, opt)
}

func rwrSieved(ctx context.Context, st *engineState, cfg config, q int, kt *obs.KernelTrace) ([]float64, float64, error) {
	opt := cfg.rwrOptions()
	opt.Trace = kt
	return rwr.ApproxSingleSourceFromTransition(ctx, st.forward, q, cfg.tolerance, opt)
}

// kernelsFor resolves measureName through the registry without
// instantiating a measure and returns its kernel row, or nil when the name
// is unknown, has no fast path, or is bound to a user-registered
// implementation. It never allocates on lower-case inputs, which is what
// keeps the engine's pooled query path at zero allocations.
func kernelsFor(measureName string) *kernelFamily {
	n := strings.ToLower(measureName)
	registry.RLock()
	defer registry.RUnlock()
	if target, ok := registry.aliases[n]; ok {
		n = target
	}
	return registry.factories[n].kernels
}

// runExact is the shared work of every exact fast-path query — single,
// Into, top-k and batched alike. It borrows a pooled workspace, fires
// the fault hook and runs row k's exact kernel for node q into dst
// (length n). kt, when non-nil, receives the kernel detail for a trace;
// otherwise, with an observer attached, the trace is borrowed from the
// workspace (&ws.Trace is a borrow, not an allocation), so the zero-alloc
// contract holds with observation on or off. The observer, if any, records
// the run here.
//
//simstar:noalloc
func (e *Engine) runExact(ctx context.Context, st *engineState, k *kernelFamily, q int, dst []float64, kt *obs.KernelTrace) error {
	ws := st.getWS()
	defer st.putWS(ws)
	o := e.cfg.observer
	if kt == nil && o != nil {
		kt = &ws.Trace
		kt.Reset()
	}
	grew := ws.Grows()
	start := time.Now()
	e.cfg.fireFault(FaultPointKernel)
	if err := k.exact(ctx, st, e.cfg, q, ws, dst, kt); err != nil {
		return err
	}
	if kt != nil {
		kt.WorkspaceGrew = ws.Grows() - grew
	}
	if o != nil {
		o.recordKernel(kt, time.Since(start))
	}
	return nil
}
