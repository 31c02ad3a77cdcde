package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/biclique"
	"repro/internal/dataset"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/sparse"
)

// FuzzSimRankStar is the differential check of both SimRank* families. On a
// small graph it runs every solver the package has — plain and compressed
// all-pairs, the LengthWeight series, the exact single-source kernel and
// the sieved kernel — and checks them against each other, against the
// brute-force series oracle, and against the paper's invariants and
// truncation bounds. The seed corpus runs in every `go test`;
// `go test -run='^$' -fuzz=FuzzSimRankStar ./internal/core` explores beyond
// it.
//
// The inputs decode as follows: data[0] picks n in [1, 24] and each
// following byte pair one edge (u mod n, v mod n), at most 4n of them, so
// sinks and self-loops occur; exp picks the family; C = (10 + cPct mod 81)/100
// lies in [0.1, 0.9]; K = k mod 13; tol picks the sieve tolerance from
// {1e-2, 1e-4, 1e-6}.
func FuzzSimRankStar(f *testing.F) {
	for _, s := range simRankStarSeeds() {
		f.Add(s.data, s.exp, s.cPct, s.k, s.tol)
	}
	f.Fuzz(func(t *testing.T, data []byte, exp bool, cPct, k, tol uint8) {
		c := float64(10+int(cPct)%81) / 100
		checkSimRankStar(t, decodeGraph(data), families[exp], c, int(k)%13, tolerances[int(tol)%len(tolerances)])
	})
}

var tolerances = []float64{1e-2, 1e-4, 1e-6}

// family is one SimRank* family's solver set.
type family struct {
	name   string
	table  func(Options) weights
	series func(*graph.Graph, Options) *dense.Matrix
	plain  func(context.Context, *sparse.CSR, Options) (*dense.Matrix, error)
	memo   func(context.Context, *biclique.Compressed, Options) (*dense.Matrix, error)
	weight func(c float64) LengthWeight
	exact  func(context.Context, *sparse.CSR, int, Options, *sparse.Workspace, []float64) error
	sieved func(context.Context, *sparse.CSR, *sparse.CSR, int, float64, Options) ([]float64, float64, error)
	// bound is the distance of the K-th partial sum from the limit:
	// Lemma 3's Cᴷ⁺¹ and Eq. (12)'s Cᴷ⁺¹/(K+1)!.
	bound func(c float64, k int) float64
}

// families maps FuzzSimRankStar's exp input to a family.
var families = map[bool]family{
	false: {
		name:   "geometric",
		table:  Options.geometric,
		series: SeriesGeometric,
		plain:  GeometricFromTransition,
		memo:   GeometricFromCompressed,
		weight: GeometricWeight,
		exact:  SingleSourceGeometricWS,
		sieved: ApproxSingleSourceGeometricFromTransition,
		bound:  func(c float64, k int) float64 { return math.Pow(c, float64(k+1)) },
	},
	true: {
		name:   "exponential",
		table:  Options.exponential,
		series: SeriesExponential,
		plain:  ExponentialFromTransition,
		memo:   ExponentialFromCompressed,
		weight: ExponentialWeight,
		exact:  SingleSourceExponentialWS,
		sieved: ApproxSingleSourceExponentialFromTransition,
		bound:  func(c float64, k int) float64 { return math.Pow(c, float64(k+1)) / factorial(k+1) },
	},
}

// checkSimRankStar runs every check of FuzzSimRankStar on one input.
func checkSimRankStar(t *testing.T, g *graph.Graph, fam family, c float64, k int, tol float64) {
	t.Helper()
	ctx := context.Background()
	opt := Options{C: c, K: k}
	if k == 0 {
		// K <= 0 selects the default; an Eps at or above C resolves K = 0.
		opt = Options{C: c, Eps: 1}
	}
	w := fam.table(opt)
	if w.k != k {
		t.Fatalf("%s table resolved K = %d, want %d", fam.name, w.k, k)
	}
	n := g.N()
	qm := sparse.BackwardTransition(g)
	at := func(what string, d, limit float64) {
		t.Helper()
		if !(d <= limit) {
			t.Fatalf("%s C=%.2f K=%d n=%d: %s differ by %g > %g", fam.name, c, k, n, what, d, limit)
		}
	}

	s, err := fam.plain(ctx, qm, opt)
	if err != nil {
		t.Fatal(err)
	}
	at("all-pairs and the series oracle", s.MaxAbsDiff(fam.series(g, opt)), 1e-10)
	memo, err := fam.memo(ctx, biclique.Compress(g, opt.Mine), opt)
	if err != nil {
		t.Fatal(err)
	}
	at("compressed and plain all-pairs", memo.MaxAbsDiff(s), 1e-10)
	at("the LengthWeight series and all-pairs", SeriesWeighted(g, fam.weight(c), k).MaxAbsDiff(s), 1e-10)

	// The paper's invariants (Sec. 3.2): symmetric scores in [0, 1] whose
	// diagonal keeps at least the length-0 term a_0.
	if !s.IsSymmetric(1e-12) {
		t.Fatalf("%s C=%.2f K=%d: scores not symmetric", fam.name, c, k)
	}
	for i := 0; i < n; i++ {
		if d := s.At(i, i); d < w.a0-1e-12 {
			t.Fatalf("%s C=%.2f K=%d: diagonal %d = %g below a_0 = %g", fam.name, c, k, i, d, w.a0)
		}
		for j := 0; j < n; j++ {
			if v := s.At(i, j); v < 0 || v > 1+1e-12 {
				t.Fatalf("%s C=%.2f K=%d: score (%d,%d) = %g outside [0, 1]", fam.name, c, k, i, j, v)
			}
		}
	}

	// Truncation: the K-th partial sum sits within bound(K) of the limit,
	// and a K+20 reference within bound(K+20).
	ref, err := fam.plain(ctx, qm, Options{C: c, K: k + 20})
	if err != nil {
		t.Fatal(err)
	}
	at("the K and K+20 partial sums", s.MaxAbsDiff(ref), fam.bound(c, k)+fam.bound(c, k+20)+1e-12)

	// Every exact row matches its all-pairs row; one workspace serves every
	// query, so no state may leak between runs. The sieved kernel keeps its
	// certificate against the exact row.
	qt := qm.Transpose()
	ws := sparse.NewWorkspace(n)
	row := make([]float64, n)
	for q := 0; q < n; q++ {
		if err := fam.exact(ctx, qm, q, opt, ws, row); err != nil {
			t.Fatal(err)
		}
		var d float64
		for j, v := range row {
			d = math.Max(d, math.Abs(v-s.At(q, j)))
		}
		at("an exact row and its all-pairs row", d, 1e-12)
		approx, maxErr, err := fam.sieved(ctx, qm, qt, q, tol, opt)
		if err != nil {
			t.Fatal(err)
		}
		checkCertificate(t, row, approx, maxErr, tol)
	}
}

// decodeGraph reads FuzzSimRankStar's graph encoding (see there).
func decodeGraph(data []byte) *graph.Graph {
	n := 1
	if len(data) > 0 {
		n += int(data[0]) % 24
		data = data[1:]
	}
	var edges [][2]int
	for ; len(data) >= 2 && len(edges) < 4*n; data = data[2:] {
		edges = append(edges, [2]int{int(data[0]) % n, int(data[1]) % n})
	}
	return graph.FromEdges(n, edges)
}

// encodeGraph is decodeGraph's inverse for graphs of at most 24 nodes and
// 4n edges; longer edge lists are cut at 4n.
func encodeGraph(g *graph.Graph) []byte {
	data := []byte{byte(g.N() - 1)}
	g.Edges(func(u, v int) { data = append(data, byte(u), byte(v)) })
	return data
}

// starSeed is one FuzzSimRankStar input.
type starSeed struct {
	data         []byte
	exp          bool
	cPct, k, tol uint8
}

// simRankStarSeeds is the seed corpus: the paper's toy graphs, random
// graphs up to the decoder's 24 nodes and 4n edges, both damping factors
// the paper uses, every K from 0 to 6 or 8, every sieve tolerance and
// degenerate inputs. Every seed runs every check. The order is fixed: a
// seed's index names it in test output.
func simRankStarSeeds() []starSeed {
	var seeds []starSeed
	add := func(g *graph.Graph, exp bool, c float64, k, tol int) {
		seeds = append(seeds, starSeed{data: encodeGraph(g), exp: exp, cPct: uint8(math.Round(100*c) - 10), k: uint8(k), tol: uint8(tol)})
	}
	const geo, exp = false, true

	// Toy and random graphs at both of the paper's damping factors.
	rng := rand.New(rand.NewSource(1))
	for _, g := range []*graph.Graph{dataset.Figure1(), dataset.Path(6), dataset.Cycle(5), randomGraph(rng, 15, 40), randomGraph(rng, 20, 90)} {
		add(g, geo, 0.6, 4, 0)
		add(g, geo, 0.8, 6, 0)
	}
	rng = rand.New(rand.NewSource(2))
	for _, g := range []*graph.Graph{dataset.Figure1(), dataset.Star(7), randomGraph(rng, 12, 50)} {
		add(g, exp, 0.6, 5, 0)
		add(g, exp, 0.8, 7, 0)
	}
	// Random sizes and densities.
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(22)
		add(randomGraph(rng, n, rng.Intn(4*n+1)), geo, 0.6, 5, 1)
		n = 3 + rng.Intn(22)
		add(randomGraph(rng, n, rng.Intn(4*n+1)), exp, 0.6, 6, 1)
	}
	// Near the decoder's largest graphs, at other C and K.
	add(randomGraph(rand.New(rand.NewSource(3)), 24, 96), geo, 0.7, 6, 1)
	add(randomGraph(rand.New(rand.NewSource(4)), 22, 88), exp, 0.6, 7, 1)
	// Random damping factors, over both tables.
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(23)
		g := randomGraph(rng, n, rng.Intn(4*n+1))
		c := 0.3 + 0.6*rng.Float64()
		add(g, geo, c, 6, 2)
		add(g, exp, c, 6, 2)
	}
	// Every K on one graph per table: the truncation bound tightens with K.
	g := randomGraph(rand.New(rand.NewSource(5)), 20, 80)
	for k := 0; k <= 8; k++ {
		add(g, geo, 0.8, k, 0)
	}
	g = randomGraph(rand.New(rand.NewSource(6)), 18, 70)
	for k := 0; k <= 6; k++ {
		add(g, exp, 0.8, k, 0)
	}
	add(randomGraph(rand.New(rand.NewSource(7)), 15, 60), geo, 0.6, 6, 0)
	// The sieve at every tolerance.
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(15)
		g := randomApproxGraph(rng, n, 3*n)
		for tol := range tolerances {
			add(g, geo, 0.6, 5, tol)
		}
	}
	for seed := int64(11); seed <= 14; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(15)
		g := randomApproxGraph(rng, n, 3*n)
		for tol := range tolerances {
			add(g, exp, 0.6, 7, tol)
		}
	}
	// Degenerate inputs: one node with a self-loop, and an edgeless graph at
	// the largest K.
	for _, fam := range []bool{geo, exp} {
		add(graph.FromEdges(1, [][2]int{{0, 0}}), fam, 0.9, 12, 2)
		add(graph.FromEdges(4, nil), fam, 0.1, 12, 2)
	}
	return seeds
}
