package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestFrontierAddResetSum(t *testing.T) {
	f := NewFrontier(10)
	f.Add(3, 0.5)
	f.Add(3, 0.25)
	f.Add(7, 1)
	if f.Len() != 2 {
		t.Fatalf("Len = %d, want 2", f.Len())
	}
	if got := f.At(3); got != 0.75 {
		t.Fatalf("At(3) = %g, want 0.75", got)
	}
	if got := f.Sum(); got != 1.75 {
		t.Fatalf("Sum = %g, want 1.75", got)
	}
	// Non-positive contributions are ignored, keeping the touched list honest.
	f.Add(5, 0)
	f.Add(5, -1)
	if f.Len() != 2 || f.At(5) != 0 {
		t.Fatalf("non-positive Add leaked: Len=%d At(5)=%g", f.Len(), f.At(5))
	}
	f.Reset()
	if f.Len() != 0 || f.At(3) != 0 || f.At(7) != 0 {
		t.Fatal("Reset left residue")
	}
}

func TestFrontierSieve(t *testing.T) {
	f := NewFrontier(6)
	f.Add(0, 0.5)
	f.Add(1, 1e-5)
	f.Add(2, 2e-5)
	f.Add(3, 0.1)
	dropped, maxDropped := f.Sieve(1e-4)
	if want := 3e-5; math.Abs(dropped-want) > 1e-18 {
		t.Fatalf("dropped = %g, want %g", dropped, want)
	}
	if want := 2e-5; maxDropped != want {
		t.Fatalf("maxDropped = %g, want %g", maxDropped, want)
	}
	if f.Len() != 2 || f.At(1) != 0 || f.At(2) != 0 {
		t.Fatalf("sieved entries not removed: Len=%d", f.Len())
	}
	if f.At(0) != 0.5 || f.At(3) != 0.1 {
		t.Fatal("surviving entries perturbed")
	}
	// tau <= 0 is a no-op.
	if d, m := f.Sieve(0); d != 0 || m != 0 {
		t.Fatalf("Sieve(0) dropped %g/%g", d, m)
	}
}

// ScatterMulT over a frontier must agree with the dense MulVecT on the
// scattered vector.
func TestScatterMulTMatchesMulVecT(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, 3*n)
		q := BackwardTransition(g)
		src := NewFrontier(n)
		x := make([]float64, n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				v := rng.Float64()
				if v > 0 {
					src.Add(int32(i), v)
					x[i] = src.At(int32(i))
				}
			}
		}
		dst := NewFrontier(n)
		q.ScatterMulT(dst, src)
		want := q.MulVecT(x)
		for i := 0; i < n; i++ {
			if got := dst.At(int32(i)); math.Abs(got-want[i]) > 1e-12 {
				t.Fatalf("trial %d: entry %d = %g, want %g", trial, i, got, want[i])
			}
		}
		// The touched list must be exact: no phantom entries.
		idx, vals := dst.Entries()
		for _, i := range idx {
			if vals[i] == 0 {
				t.Fatalf("trial %d: phantom touched index %d", trial, i)
			}
		}
	}
}

// TestScatterMulTSortsTouched pins the canonical ordering of the touched
// list: the sieve and the next sweep walk it in order, so the order fixes
// the sieved kernels' bits and certificates.
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
		t.Fatal("ScatterMulT left the touched list unsorted")
	}
}

func TestScatterMulTDimensionMismatchPanics(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(1)), 4, 6)
	q := BackwardTransition(g)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on dimension mismatch")
		}
	}()
	q.ScatterMulT(NewFrontier(4), NewFrontier(5))
}
