package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/biclique"
	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/dyngraph"
	"repro/internal/graph"
	"repro/internal/rwr"
	"repro/internal/sparse"
	"repro/simstar"
)

// The ladders time each layer's public functions directly, in process, on
// the run's own graph, sources and edit script: the layer below simserve
// with nothing of the layers above it.

// ladderSources caps the sources, and ladderEdits the edit requests, a
// ladder replays.
const (
	ladderSources = 24
	ladderEdits   = 32
	setupReps     = 3
	sweepReps     = 60
	panelReps     = 12
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeMs returns the median wall time of reps calls of fn, in ms.
func timeMs(reps int, fn func() error) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, ms(time.Since(t0)))
	}
	return median(xs), nil
}

// readLadder times sparse sweeps, then the WS kernels of internal/core and
// internal/rwr, then Engine.SingleSourceInto, on the run's exact-measure
// sources. eng must serve the unedited g100k.
func readLadder(ctx context.Context, g *graph.Graph, eng *simstar.Engine, sources []query, m map[string]float64) error {
	qm, wm := sparse.BackwardTransition(g), sparse.ForwardTransition(g)
	n := g.N()
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	var sweep []float64
	for i := 0; i < sweepReps; i++ {
		t0 := time.Now()
		qm.MulVecInto(y, x)
		qm.MulVecTInto(x, y)
		sweep = append(sweep, float64(time.Since(t0).Nanoseconds())/float64(2*qm.NNZ()))
	}
	m["sparse.sweep_ns_per_nnz"] = median(sweep)

	var panel []float64
	blocks := map[int][2]*dense.Matrix{}
	for _, w := range []int{3, 8} {
		b := dense.New(n, w)
		for i := range b.Data {
			b.Data[i] = 1 / float64(n)
		}
		blocks[w] = [2]*dense.Matrix{b, dense.New(n, w)}
	}
	for i := 0; i < panelReps; i++ {
		t0 := time.Now()
		for _, w := range []int{3, 8} {
			qm.MulDenseInto(blocks[w][1], blocks[w][0])
		}
		panel = append(panel, float64(time.Since(t0).Nanoseconds())/float64(qm.NNZ()*(3+8)))
	}
	m["sparse.panel_ns_per_nnz_col"] = median(panel)

	ws := sparse.NewWorkspace(n)
	dst := make([]float64, n)
	var wsMs, intoMs []float64
	for _, q := range sources {
		t0 := time.Now()
		var err error
		switch q.Class {
		case classGeo:
			err = core.SingleSourceGeometricWS(ctx, qm, q.Node, core.Options{}, ws, dst)
		case classExp:
			err = core.SingleSourceExponentialWS(ctx, qm, q.Node, core.Options{}, ws, dst)
		case classRWR:
			err = rwr.SingleSourceWS(ctx, wm, q.Node, rwr.Options{}, ws, dst)
		}
		if err != nil {
			return fmt.Errorf("WS kernel: %w", err)
		}
		wsMs = append(wsMs, ms(time.Since(t0)))
	}
	for _, q := range sources {
		t0 := time.Now()
		if _, err := eng.SingleSourceInto(ctx, q.Class.measure(), q.Node, dst); err != nil {
			return fmt.Errorf("SingleSourceInto: %w", err)
		}
		intoMs = append(intoMs, ms(time.Since(t0)))
	}
	m["kernel.ws_ms_p50"] = median(wsMs)
	m["simstar.into_ms_p50"] = median(intoMs)
	return nil
}

// ladderReadSources is the run's first ladderSources distinct
// exact-measure read queries, in op order: the sources the traced run's
// kernels saw.
func ladderReadSources(ops []op) []query {
	var out []query
	seen := make(map[query]bool)
	for _, o := range ops {
		for _, q := range o.Q {
			if q.Class == classSieve || seen[q] || len(out) == ladderSources {
				continue
			}
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// writeLadder replays the run's edit script (its first ladderEdits edit
// requests) through dyngraph.Store.Apply, then (*graph.Graph).ApplyEdits,
// then sparse.Update{Backward,Forward}Transition.
func writeLadder(g *graph.Graph, ops []op, m map[string]float64) error {
	var script [][]dyngraph.Edit
	for _, o := range ops {
		if o.Kind == opEdit && len(script) < ladderEdits {
			script = append(script, o.edits())
		}
	}
	store := dyngraph.New(g)
	var storeMs, applyMs, updateMs []float64
	for _, edits := range script {
		t0 := time.Now()
		if _, err := store.Apply(edits); err != nil {
			return fmt.Errorf("dyngraph apply: %w", err)
		}
		storeMs = append(storeMs, ms(time.Since(t0)))
	}
	cur := g
	qm, wm := sparse.BackwardTransition(g), sparse.ForwardTransition(g)
	for _, edits := range script {
		eops := make([]graph.EdgeOp, len(edits))
		for i, e := range edits {
			eops[i] = graph.EdgeOp{U: e.U, V: e.V, Delete: e.Op == dyngraph.OpDelete}
		}
		t0 := time.Now()
		next, delta, err := cur.ApplyEdits(eops)
		if err != nil {
			return fmt.Errorf("graph apply: %w", err)
		}
		applyMs = append(applyMs, ms(time.Since(t0)))
		t0 = time.Now()
		qm = sparse.UpdateBackwardTransition(qm, next, delta.DirtyIn)
		wm = sparse.UpdateForwardTransition(wm, next, delta.DirtyOut)
		updateMs = append(updateMs, ms(time.Since(t0)))
		cur = next
	}
	m["dyngraph.apply_ms_p50"] = median(storeMs)
	m["graph.apply_edits_ms_p50"] = median(applyMs)
	m["sparse.update_ms_p50"] = median(updateMs)
	return nil
}

// setupLadder times what simserve's start-up does: the edge-list parse,
// both transitions, and biclique.Compress at simserve's default miner
// options.
func setupLadder(g *graph.Graph, graphPath string, m map[string]float64) error {
	var err error
	m["graph.read_ms"], err = timeMs(setupReps, func() error {
		f, err := os.Open(graphPath)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = graph.ReadEdgeList(f)
		return err
	})
	if err != nil {
		return fmt.Errorf("reading edge list: %w", err)
	}
	m["sparse.transition_ms"], _ = timeMs(setupReps, func() error {
		sparse.BackwardTransition(g)
		sparse.ForwardTransition(g)
		return nil
	})
	m["biclique.compress_ms"], _ = timeMs(setupReps, func() error {
		biclique.Compress(g, biclique.Options{})
		return nil
	})
	return nil
}

// calibrate runs two fixed loops before a run: a dependent integer chain
// (host.alu_ms) and a pointer chase through 32 MiB (host.mem_ms). Their
// times move with the host, not with the program, so they tell host
// drift apart from program changes.
func calibrate() (aluMs, memMs float64) {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 60_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	aluMs = ms(time.Since(t0))
	sink = x

	// Sattolo's shuffle makes next one cycle through every slot, so the
	// chase cannot settle into a cache-resident loop.
	const slots = 8 << 20 // 8M int32 = 32 MiB, well past the last-level cache
	next := make([]int32, slots)
	for i := range next {
		next[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := slots - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	t0 = time.Now()
	p := int32(0)
	for i := 0; i < 2_000_000; i++ {
		p = next[p]
	}
	memMs = ms(time.Since(t0))
	sink = uint64(p)
	return aluMs, memMs
}

// sink keeps the calibration loops from being optimised away.
var sink uint64
