package sparse

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dense"
)

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		// Leave some exact zeros so MulVecTInto's skip path is exercised.
		if rng.Intn(4) == 0 {
			continue
		}
		x[i] = rng.Float64()
	}
	return x
}

// The unrolled scatter must be bitwise-identical to a rolled reference: the
// four targets inside one unrolled step are distinct columns of one row, so
// no accumulation reorders.
func TestMulVecTIntoMatchesReference(t *testing.T) {
	g := dataset.RMATDefault(8, 6, 21) // heavy-tailed rows: long and short
	m := BackwardTransition(g)
	x := randVec(m.R, 5)

	want := make([]float64, m.C)
	for i := 0; i < m.R; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		cols, vals := m.RowView(i)
		for k, c := range cols {
			want[c] += vals[k] * xi
		}
	}
	got := make([]float64, m.C)
	got[0] = 123 // MulVecTInto must overwrite stale contents
	m.MulVecTInto(got, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: %g != %g", i, got[i], want[i])
		}
	}
	if out := m.MulVecT(x); len(out) != m.C {
		t.Fatalf("MulVecT length %d", len(out))
	} else {
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("MulVecT entry %d: %g != %g", i, out[i], want[i])
			}
		}
	}
}

// The fused Horner kernels must match the unfused sequence bitwise.
func TestFusedMulVecKernels(t *testing.T) {
	g := dataset.RMATDefault(7, 5, 8)
	m := ForwardTransition(g)
	x := randVec(m.C, 11)
	add := randVec(m.R, 12)

	plain := m.MulVec(x)
	wantAdd := make([]float64, m.R)
	wantScale := make([]float64, m.R)
	const scale = 0.4
	for i := range plain {
		wantAdd[i] = plain[i] + add[i]
		wantScale[i] = (plain[i] + add[i]) * scale
	}

	got := make([]float64, m.R)
	m.MulVecAddInto(got, x, add)
	for i := range wantAdd {
		if got[i] != wantAdd[i] {
			t.Fatalf("MulVecAddInto entry %d: %g != %g", i, got[i], wantAdd[i])
		}
	}
	m.MulVecAddScaleInto(got, x, add, scale)
	for i := range wantScale {
		if got[i] != wantScale[i] {
			t.Fatalf("MulVecAddScaleInto entry %d: %g != %g", i, got[i], wantScale[i])
		}
	}
}

// MulDenseInto must agree bitwise with a zero-then-axpy reference at every
// block width from a single column to a full 64-wide block.
func TestMulDensePanelsMatchesAxpyForm(t *testing.T) {
	g := dataset.RMATDefault(7, 5, 33)
	m := BackwardTransition(g)
	rng := rand.New(rand.NewSource(2))
	for w := 1; w <= 64; w++ {
		b := dense.New(m.C, w)
		for i := range b.Data {
			b.Data[i] = rng.Float64()
		}
		want := dense.New(m.R, w)
		for i := 0; i < m.R; i++ {
			wi := want.Row(i)
			cols, vals := m.RowView(i)
			for k, c := range cols {
				dense.Axpy(wi, vals[k], b.Row(int(c)))
			}
		}
		got := dense.New(m.R, w)
		m.MulDenseInto(got, b)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("w=%d: element %d: %g != %g", w, i, got.Data[i], want.Data[i])
			}
		}
	}
}
