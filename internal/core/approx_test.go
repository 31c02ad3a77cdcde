package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/sparse"
)

func TestApproxKernelsHonourCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomApproxGraph(rng, 30, 90)
	qm := sparse.BackwardTransition(g)
	qt := qm.Transpose()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ApproxSingleSourceGeometricFromTransition(ctx, qm, qt, 0, 1e-4, Options{}); err == nil {
		t.Fatal("geometric: want cancellation error")
	}
	if _, _, err := ApproxSingleSourceExponentialFromTransition(ctx, qm, qt, 0, 1e-4, Options{}); err == nil {
		t.Fatal("exponential: want cancellation error")
	}
}

// checkCertificate asserts the two-sided contract |approx−exact| <= bound
// <= tol element-wise.
func checkCertificate(t *testing.T, exact, approx []float64, bound, tol float64) {
	t.Helper()
	if bound > tol {
		t.Fatalf("MaxError %g exceeds tolerance %g", bound, tol)
	}
	for i := range exact {
		if diff := math.Abs(approx[i] - exact[i]); diff > bound {
			t.Fatalf("entry %d: |approx−exact| = %g exceeds certificate %g (tol %g)", i, diff, bound, tol)
		}
	}
}

func randomApproxGraph(rng *rand.Rand, n, m int) *graph.Graph {
	edges := make([][2]int, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	return graph.FromEdges(n, edges)
}

// lowDegreeGraph builds the benchmark's 100k-node sparse graph: every node
// links to a handful of mostly-local neighbours, the regime (social and
// citation graphs) where a query's K-hop in-neighbourhood stays far below n
// and the sieved frontier path should win big.
func lowDegreeGraph(n, deg int) *graph.Graph {
	rng := rand.New(rand.NewSource(1729))
	edges := make([][2]int, 0, n*deg)
	for u := 0; u < n; u++ {
		for d := 0; d < deg; d++ {
			v := u + 1 + rng.Intn(64)
			if v >= n {
				v -= n
			}
			edges = append(edges, [2]int{u, v})
		}
	}
	return graph.FromEdges(n, edges)
}

// BenchmarkApproxSingleSource100k records the tentpole speedup: sieved
// single-source geometric SimRank* at eps=1e-4 against the exact dense
// kernel on a 100k-node low-degree graph. Compare the exact and approx
// sub-benchmark times for the multiplier.
func BenchmarkApproxSingleSource100k(b *testing.B) {
	g := lowDegreeGraph(100_000, 3)
	qm := sparse.BackwardTransition(g)
	qt := qm.Transpose()
	opt := Options{C: 0.6, K: 5}
	ctx := context.Background()
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SingleSourceGeometricFromTransition(ctx, qm, i%g.N(), opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("approx-1e-4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := ApproxSingleSourceGeometricFromTransition(ctx, qm, qt, i%g.N(), 1e-4, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("approx-exponential-1e-4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := ApproxSingleSourceExponentialFromTransition(ctx, qm, qt, i%g.N(), 1e-4, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}
