package sparse

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// workerCounts are the fan-outs every parallel-vs-serial test sweeps,
// including a count above GOMAXPROCS and a prime that never divides the
// dimensions evenly.
func workerCounts() []int {
	return []int{1, 2, 3, 7, runtime.GOMAXPROCS(0), 2 * runtime.GOMAXPROCS(0)}
}

func densityVec(rng *rand.Rand, n int, density float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		if rng.Float64() < density {
			x[i] = rng.Float64()
		}
	}
	return x
}

// TestSweeperVectorKernelsBitwise pins that the Sweeper's row-range forms of
// the three fused vector kernels reproduce the serial kernels bitwise for
// every worker count.
func TestSweeperVectorKernelsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomGraph(rng, 301, 2400)
	for _, m := range []*CSR{BackwardTransition(g), ForwardTransition(g)} {
		x := densityVec(rng, m.C, 0.7)
		add := densityVec(rng, m.R, 0.9)
		wantMul := make([]float64, m.R)
		m.MulVecInto(wantMul, x)
		wantAdd := make([]float64, m.R)
		m.MulVecAddInto(wantAdd, x, add)
		wantAddScale := make([]float64, m.R)
		m.MulVecAddScaleInto(wantAddScale, x, add, 0.4)
		for _, w := range workerCounts() {
			sw := NewSweeper(w)
			got := make([]float64, m.R)
			sw.MulVecInto(m, got, x)
			if !slices.Equal(got, wantMul) {
				t.Fatalf("workers=%d: MulVecInto differs from serial", w)
			}
			sw.MulVecAddInto(m, got, x, add)
			if !slices.Equal(got, wantAdd) {
				t.Fatalf("workers=%d: MulVecAddInto differs from serial", w)
			}
			sw.MulVecAddScaleInto(m, got, x, add, 0.4)
			if !slices.Equal(got, wantAddScale) {
				t.Fatalf("workers=%d: MulVecAddScaleInto differs from serial", w)
			}
			if w > 1 && sw.TakeParSweeps() == 0 {
				t.Fatalf("workers=%d: no sweep fanned out", w)
			}
		}
	}
}

// TestSweeperMulVecMatchesTransposeScatter pins the substitution the exact
// kernels rely on: a (parallel) gather over the materialised transpose is
// bitwise-identical to the serial scatter MulVecTInto, zero-skip and all.
func TestSweeperMulVecMatchesTransposeScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 257, 2100)
	for _, m := range []*CSR{BackwardTransition(g), ForwardTransition(g)} {
		mt := m.Transpose()
		x := densityVec(rng, m.R, 0.5) // sparse x exercises the scatter's zero-skip
		want := make([]float64, m.C)
		m.MulVecTInto(want, x)
		for _, w := range workerCounts() {
			sw := NewSweeper(w)
			got := make([]float64, m.C)
			sw.MulVecInto(mt, got, x)
			if !slices.Equal(got, want) {
				t.Fatalf("workers=%d: gather over transpose differs from serial scatter", w)
			}
		}
	}
}

// TestSweeperScatterMulTBitwise pins the parallel frontier sweep: values,
// touched list (sorted by both forms) and the positive-mass skip must match
// the serial scatter bitwise for every worker count, on supports both above
// and below the parallel gate.
func TestSweeperScatterMulTBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 400, 3600)
	m := BackwardTransition(g)
	for _, support := range []int{parallelGatherMin / 2, 3 * parallelGatherMin} {
		src := NewFrontier(m.R)
		for len(src.idx) < support {
			src.Add(int32(rng.Intn(m.R)), rng.Float64()+0.01)
		}
		want := NewFrontier(m.C)
		m.ScatterMulT(want, src)
		for _, w := range workerCounts() {
			sw := NewSweeper(w)
			got := NewFrontier(m.C)
			sw.ScatterMulT(m, got, src)
			if !slices.Equal(got.idx, want.idx) {
				t.Fatalf("support=%d workers=%d: touched lists differ (%d vs %d entries)",
					support, w, len(got.idx), len(want.idx))
			}
			for _, i := range want.idx {
				if got.val[i] != want.val[i] {
					t.Fatalf("support=%d workers=%d: value at %d differs: %g vs %g",
						support, w, i, got.val[i], want.val[i])
				}
			}
			// Repeated sweeps through the same sweeper must reuse the
			// per-worker segments, not accumulate stale first touches.
			got.Reset()
			sw.ScatterMulT(m, got, src)
			if !slices.Equal(got.idx, want.idx) {
				t.Fatalf("support=%d workers=%d: second sweep differs", support, w)
			}
		}
	}
}

// TestScatterMulTSortsTouched pins the canonical ordering contract the
// parallel form depends on.
func TestScatterMulTSortsTouched(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := randomGraph(rng, 100, 700)
	m := BackwardTransition(g)
	src := NewFrontier(m.R)
	// Touch in descending order so first-touch order alone would come out
	// unsorted.
	for i := m.R - 1; i >= 0; i -= 3 {
		src.Add(int32(i), 0.5)
	}
	dst := NewFrontier(m.C)
	m.ScatterMulT(dst, src)
	if !slices.IsSorted(dst.idx) {
		t.Fatal("serial ScatterMulT left the touched list unsorted")
	}
}

// TestSweeperConfigureReuse pins pool-borrow semantics: growing the worker
// count spawns workers, shrinking keeps them parked, and the ParSweeps
// counter resets per Configure.
func TestSweeperConfigureReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 128, 900)
	m := BackwardTransition(g)
	x := densityVec(rng, m.C, 1)
	y := make([]float64, m.R)
	want := make([]float64, m.R)
	m.MulVecInto(want, x)
	sw := NewSweeper(1)
	for _, w := range []int{4, 2, 8, 1, 3} {
		sw.Configure(w)
		if sw.Workers() != max(w, 1) {
			t.Fatalf("Workers() = %d after Configure(%d)", sw.Workers(), w)
		}
		sw.MulVecInto(m, y, x)
		if !slices.Equal(y, want) {
			t.Fatalf("Configure(%d): result differs", w)
		}
		ps := sw.TakeParSweeps()
		if w > 1 && ps != 1 {
			t.Fatalf("Configure(%d): ParSweeps = %d, want 1", w, ps)
		}
		if sw.TakeParSweeps() != 0 {
			t.Fatal("TakeParSweeps did not reset")
		}
	}
}
