package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/dense"
	"repro/internal/graph"
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

func TestBackwardTransition(t *testing.T) {
	// 0→2, 1→2, 2→0: I(2) = {0,1} so Q row 2 = [1/2, 1/2, 0].
	g := graph.FromEdges(3, [][2]int{{0, 2}, {1, 2}, {2, 0}})
	q := BackwardTransition(g)
	if q.At(2, 0) != 0.5 || q.At(2, 1) != 0.5 || q.At(2, 2) != 0 {
		t.Fatalf("Q row 2 wrong: %v %v %v", q.At(2, 0), q.At(2, 1), q.At(2, 2))
	}
	if q.At(0, 2) != 1 { // I(0) = {2}
		t.Fatal("Q row 0 wrong")
	}
	if got := q.At(1, 0); got != 0 { // I(1) = ∅ → empty row
		t.Fatalf("Q row 1 should be empty, got %v", got)
	}
}

func TestForwardTransition(t *testing.T) {
	g := graph.FromEdges(3, [][2]int{{0, 1}, {0, 2}, {1, 2}})
	w := ForwardTransition(g)
	if w.At(0, 1) != 0.5 || w.At(0, 2) != 0.5 {
		t.Fatal("W row 0 wrong")
	}
	if w.At(1, 2) != 1 {
		t.Fatal("W row 1 wrong")
	}
	if sums := w.RowSums(); sums[2] != 0 { // sink
		t.Fatal("sink row should sum to 0")
	}
}

func TestRowStochastic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 40, 200)
	for _, m := range []*CSR{BackwardTransition(g), ForwardTransition(g)} {
		for i, s := range m.RowSums() {
			empty := m.RowOff[i] == m.RowOff[i+1]
			if empty && s != 0 {
				t.Fatalf("empty row %d sums to %g", i, s)
			}
			if !empty && math.Abs(s-1) > 1e-12 {
				t.Fatalf("row %d sums to %g, want 1", i, s)
			}
		}
	}
}

func TestAdjacencyMatchesGraph(t *testing.T) {
	g := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {3, 0}})
	a := Adjacency(g)
	if a.NNZ() != g.M() {
		t.Fatalf("NNZ = %d, want %d", a.NNZ(), g.M())
	}
	g.Edges(func(u, v int) {
		if a.At(u, v) != 1 {
			t.Fatalf("A[%d,%d] != 1", u, v)
		}
	})
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, 25, 120)
	m := BackwardTransition(g)
	mt := m.Transpose()
	if mt.Transpose().ToDense().MaxAbsDiff(m.ToDense()) != 0 {
		t.Fatal("(Mᵀ)ᵀ != M")
	}
	md, mtd := m.ToDense(), mt.ToDense()
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			if md.At(i, j) != mtd.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulDenseAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 30, 150)
	q := BackwardTransition(g)
	b := dense.New(30, 17)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	got := q.MulDense(b)
	want := dense.Mul(q.ToDense(), b)
	if got.MaxAbsDiff(want) > 1e-12 {
		t.Fatalf("MulDense differs by %g", got.MaxAbsDiff(want))
	}
}

func TestMulVecVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomGraph(rng, 20, 80)
	q := BackwardTransition(g)
	x := make([]float64, 20)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := q.MulVec(x)
	want := q.ToDense().MulVec(x)
	for i := range y {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("MulVec[%d] = %g, want %g", i, y[i], want[i])
		}
	}
	yt := q.MulVecT(x)
	wantT := q.ToDense().Transpose().MulVec(x)
	for i := range yt {
		if math.Abs(yt[i]-wantT[i]) > 1e-12 {
			t.Fatalf("MulVecT[%d] = %g, want %g", i, yt[i], wantT[i])
		}
	}
}

// Property: MulVecT(x) == Transpose().MulVec(x) on random graphs.
func TestQuickTransposeMulVec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := randomGraph(rng, n, rng.Intn(4*n))
		m := ForwardTransition(g)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		a := m.MulVecT(x)
		bv := m.Transpose().MulVec(x)
		for i := range a {
			if math.Abs(a[i]-bv[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Q has exactly one entry per in-edge and NNZ = M.
func TestQuickNNZ(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		g := randomGraph(rng, n, rng.Intn(5*n))
		return BackwardTransition(g).NNZ() == g.M() && ForwardTransition(g).NNZ() == g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMulDense(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 1000, 8000)
	q := BackwardTransition(g)
	x := dense.New(1000, 1000)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.MulDense(x)
	}
}

func TestAtBinarySearch(t *testing.T) {
	g := dataset.RMATDefault(6, 5, 3) // 64 nodes
	m := Adjacency(g)
	d := m.ToDense()
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			if got, want := m.At(i, j), d.At(i, j); got != want {
				t.Fatalf("At(%d,%d) = %g, want %g", i, j, got, want)
			}
		}
	}
	// Boundary probes around a long row's first and last entries.
	for i := 0; i < m.R; i++ {
		cols, _ := m.RowView(i)
		if len(cols) == 0 {
			continue
		}
		if m.At(i, int(cols[0])) != 1 || m.At(i, int(cols[len(cols)-1])) != 1 {
			t.Fatalf("row %d: endpoint lookup failed", i)
		}
	}
}

func TestWorkspaceReuse(t *testing.T) {
	ws := NewWorkspace(8)
	a := ws.Take()
	a[3] = 42
	b := ws.Raw()
	b[0] = 7
	if ws.Dim() != 8 || len(a) != 8 || len(b) != 8 {
		t.Fatalf("bad dimensions")
	}
	ws.Reset()
	a2 := ws.Take()
	if &a2[0] != &a[0] {
		t.Fatalf("Take after Reset did not reuse the first buffer")
	}
	if a2[3] != 0 {
		t.Fatalf("Take returned a dirty buffer: %v", a2)
	}
	vecs := ws.RawVecs(3)
	if len(vecs) != 3 {
		t.Fatalf("RawVecs returned %d buffers", len(vecs))
	}
	// The family continues where Take left off: its first buffer is b, the
	// arena's second buffer.
	if &vecs[0][0] != &b[0] || len(vecs[2]) != 8 {
		t.Fatalf("RawVecs did not reuse the arena's buffers")
	}
}
