package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/sparse"
)

func randomGraph(rng *rand.Rand, n, m int) *graph.Graph {
	b := graph.NewBuilder()
	b.EnsureN(n)
	for i := 0; i < m; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestIterationsFromEps(t *testing.T) {
	opt := Options{C: 0.6, Eps: 0.001}
	if got := opt.IterationsGeometric(); got != 13 { // 0.6^14 ≈ 7.8e-4
		t.Fatalf("IterationsGeometric = %d, want 13", got)
	}
	if got := opt.IterationsExponential(); got != 4 { // 0.6^5/5! ≈ 6.5e-4
		t.Fatalf("IterationsExponential = %d, want 4", got)
	}
	// The paper's Exp-2 point: exponential needs far fewer iterations.
	if opt.IterationsExponential() >= opt.IterationsGeometric() {
		t.Fatal("exponential should converge in fewer iterations")
	}
	fixed := Options{C: 0.6, K: 7}
	if fixed.IterationsGeometric() != 7 || fixed.IterationsExponential() != 7 {
		t.Fatal("explicit K must be honoured")
	}
}

// The Figure-1 table: every pair the paper lists as zero-SimRank must be
// positive under SimRank* (Column SR*).
func TestFigure1PairsPositive(t *testing.T) {
	g := dataset.Figure1()
	opt := Options{C: 0.8, K: 15}
	s := Geometric(g, opt)
	id := func(l string) int {
		i, ok := g.NodeByLabel(l)
		if !ok {
			t.Fatalf("missing node %q", l)
		}
		return i
	}
	pairs := [][2]string{{"h", "d"}, {"a", "f"}, {"a", "c"}, {"g", "a"}, {"g", "b"}, {"i", "a"}, {"i", "h"}}
	for _, p := range pairs {
		if v := s.At(id(p[0]), id(p[1])); v <= 0 {
			t.Errorf("SimRank*(%s,%s) = %g, want > 0", p[0], p[1], v)
		}
	}
	// Relative order the paper's table implies: (g,b)=.075 is the largest of
	// the seven; (h,d)=.010 the smallest.
	gb := s.At(id("g"), id("b"))
	for _, p := range pairs {
		if v := s.At(id(p[0]), id(p[1])); v > gb+1e-12 {
			t.Errorf("SimRank*(%s,%s) = %g exceeds (g,b) = %g", p[0], p[1], v, gb)
		}
	}
}

// The Sec. 1 path-graph counterexample: on a_{−n} ← … ← a_0 → … → a_n,
// SimRank is zero whenever |i| != |j|, but a_0 is a common root, so
// SimRank* must be positive for every pair within horizon.
func TestBiPathZeroSimilarityResolved(t *testing.T) {
	g := dataset.BiPath(3) // nodes 0..6, centre 3
	s := Geometric(g, Options{C: 0.8, K: 12})
	// a_1 = node 4, a_{−2} = node 1: |1| != |−2|, zero under SimRank.
	if v := s.At(4, 1); v <= 0 {
		t.Fatalf("SimRank*(a_1, a_{−2}) = %g, want > 0", v)
	}
	// Symmetric pair a_2, a_{−2} (nodes 5 and 1) must score higher than the
	// dissymmetric pair a_1, a_{−2}: symmetry weight favours centred sources
	// at equal length... (lengths differ; just require positivity ordering
	// against the fully-unbalanced pair a_3, a_{−1}.)
	if s.At(5, 1) <= 0 || s.At(6, 2) <= 0 {
		t.Fatal("symmetric pairs must be positive")
	}
}

// Worked contribution rates from Sec. 3.2 at C = 0.8:
// len-3 path with α=2: (1−C)·C³·binom(3,2)/2³ = 0.0384,
// len-5 path with α=2: (1−C)·C⁵·binom(5,2)/2⁵ = 0.0205.
func TestPathContribution(t *testing.T) {
	if v := PathContribution(0.8, 3, 2); math.Abs(v-0.0384) > 1e-10 {
		t.Fatalf("len-3 contribution = %g, want 0.0384", v)
	}
	if v := PathContribution(0.8, 5, 2); math.Abs(v-0.0205) > 5e-5 {
		t.Fatalf("len-5 contribution = %g, want ≈0.0205", v)
	}
	if PathContribution(0.8, 3, 7) != 0 {
		t.Fatal("out-of-range α must contribute 0")
	}
}

// SeriesWeighted with the exponential weight must reproduce the literal
// Eq. (18) partial sum (both truncate at total path length K).
func TestSeriesWeightedExponentialAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomGraph(rng, 14, 55)
	const c, k = 0.6, 6
	got := SeriesWeighted(g, ExponentialWeight(c), k)
	want := SeriesExponential(g, Options{C: c, K: k})
	if d := got.MaxAbsDiff(want); d > 1e-10 {
		t.Fatalf("weighted series differs from Eq.(18) partial sum by %g", d)
	}
}

// The harmonic candidate weight stays a valid similarity: symmetric scores
// in [0, 1] (the ablation only questions its computability, not validity).
func TestHarmonicWeightValid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 15, 60)
	s := SeriesWeighted(g, HarmonicWeight(0.6), 8)
	if !s.IsSymmetric(1e-12) {
		t.Fatal("harmonic-weight scores not symmetric")
	}
	if s.MaxAbs() > 1+1e-10 {
		t.Fatalf("harmonic-weight scores exceed 1: %g", s.MaxAbs())
	}
}

func TestTopK(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5, 0.9, 0.2}
	top := TopK(scores, 3, 1)
	if len(top) != 3 {
		t.Fatalf("len = %d", len(top))
	}
	if top[0].Node != 3 || top[1].Node != 2 || top[2].Node != 4 {
		t.Fatalf("TopK = %+v", top)
	}
	all := TopK(scores, 100)
	if len(all) != 5 || all[0].Node != 1 { // tie 0.9: node 1 before 3
		t.Fatalf("TopK full = %+v", all)
	}
}

func TestSieve(t *testing.T) {
	g := dataset.Figure1()
	s := Geometric(g, Options{C: 0.6, K: 5, Sieve: 0.05})
	for _, v := range s.Data {
		if v != 0 && v < 0.05 {
			t.Fatalf("sieved matrix contains %g < threshold", v)
		}
	}
	vec, err := SingleSourceGeometricFromTransition(context.Background(), sparse.BackwardTransition(g), 0, Options{C: 0.6, K: 5, Sieve: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vec {
		if v != 0 && v < 0.05 {
			t.Fatalf("sieved vector contains %g", v)
		}
	}
}

func TestBinomAndFactorial(t *testing.T) {
	cases := []struct {
		l, a int
		want float64
	}{{0, 0, 1}, {4, 2, 6}, {5, 0, 1}, {5, 5, 1}, {10, 3, 120}, {3, -1, 0}, {3, 4, 0}}
	for _, c := range cases {
		if got := binom(c.l, c.a); got != c.want {
			t.Errorf("binom(%d,%d) = %g, want %g", c.l, c.a, got, c.want)
		}
	}
	if factorial(0) != 1 || factorial(5) != 120 {
		t.Fatal("factorial wrong")
	}
	// Row sums: Σ_α binom(l,α) = 2ˡ (the normalisation Sec. 3.2 relies on).
	for l := 0; l <= 12; l++ {
		var sum float64
		for a := 0; a <= l; a++ {
			sum += binom(l, a)
		}
		if math.Abs(sum-math.Pow(2, float64(l))) > 1e-9 {
			t.Fatalf("Σ binom(%d,·) = %g != 2^%d", l, sum, l)
		}
	}
}

// Empty and in-link-free graphs: S = (1−C)·I (only the l=0 term survives).
func TestDegenerateGraphs(t *testing.T) {
	g := graph.FromEdges(4, nil)
	s := Geometric(g, Options{C: 0.6, K: 5})
	want := dense.New(4, 4)
	want.AddDiag(0.4)
	if s.MaxAbsDiff(want) > 1e-14 {
		t.Fatalf("edgeless graph: %v", s.Data)
	}
	se := Exponential(g, Options{C: 0.6, K: 5})
	// With Q = 0 only the l = 0 term of Eq. (11) survives: S′ = e^{−C}·I.
	for i := 0; i < 4; i++ {
		if math.Abs(se.At(i, i)-math.Exp(-0.6)) > 1e-12 {
			t.Fatalf("exponential diag = %g, want e^{−C} = %g", se.At(i, i), math.Exp(-0.6))
		}
	}
}

// Deeper iterations only add path contributions: scores grow monotonically.
func TestMonotoneInK(t *testing.T) {
	g := dataset.Figure1()
	prev := Geometric(g, Options{C: 0.8, K: 1})
	for k := 2; k <= 8; k++ {
		cur := Geometric(g, Options{C: 0.8, K: k})
		for i, v := range cur.Data {
			if v < prev.Data[i]-1e-12 {
				t.Fatalf("K=%d: score decreased from %g to %g", k, prev.Data[i], v)
			}
		}
		prev = cur
	}
}
