package rwr

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

func TestApproxSingleSourceCertificate(t *testing.T) {
	ctx := context.Background()
	for _, tol := range []float64{1e-2, 1e-3, 1e-5, 1e-7} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 20 + rng.Intn(60)
			g := randomGraph(rng, n, 3*n)
			w := sparse.ForwardTransition(g)
			opt := Options{C: 0.6, K: 6}
			for q := 0; q < n; q += 5 {
				exact, err := SingleSourceFromTransition(ctx, w, q, opt)
				if err != nil {
					t.Fatal(err)
				}
				approx, bound, err := ApproxSingleSourceFromTransition(ctx, w, q, tol, opt)
				if err != nil {
					t.Fatal(err)
				}
				if bound > tol {
					t.Fatalf("tol=%g q=%d: MaxError %g exceeds tolerance", tol, q, bound)
				}
				for i := range exact {
					if diff := math.Abs(approx[i] - exact[i]); diff > bound {
						t.Fatalf("tol=%g q=%d i=%d: |approx−exact| = %g exceeds certificate %g", tol, q, i, diff, bound)
					}
				}
			}
		}
	}
}

func TestApproxHonoursCancellation(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(2)), 20, 60)
	w := sparse.ForwardTransition(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ApproxSingleSourceFromTransition(ctx, w, 0, 1e-4, Options{}); err == nil {
		t.Fatal("want cancellation error")
	}
}
