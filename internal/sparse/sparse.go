// Package sparse provides the CSR sparse-matrix substrate for all
// similarity computations. The paper's algorithms are driven by two
// row-stochastic operators derived from a digraph G:
//
//   - Q, the backward transition matrix (Sec. 2): [Q]_{i,j} = 1/|I(i)| if
//     there is an edge j→i, else 0 — i.e. the row-normalised transpose of the
//     adjacency matrix. SimRank and SimRank* iterate with Q.
//   - W, the forward walk matrix (Sec. 3.1): the row-normalised adjacency
//     matrix itself. RWR/PPR iterate with W.
//
// Go has no sparse linear-algebra standard library, so the package is built
// from scratch: CSR storage, sparse×dense products (parallel over rows),
// matvec, transpose-matvec and transpose materialisation.
package sparse

import (
	"fmt"

	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/par"
)

// CSR is a compressed-sparse-row matrix of float64.
type CSR struct {
	R, C   int
	RowOff []int32   // len R+1
	ColIdx []int32   // len nnz, ascending within each row
	Val    []float64 // len nnz
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.ColIdx) }

// RowView returns the column indices and values of row i.
func (m *CSR) RowView(i int) ([]int32, []float64) {
	lo, hi := m.RowOff[i], m.RowOff[i+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// At returns element (i, j) by binary search over row i, whose column
// indices are stored in ascending order. Use RowView for bulk access.
func (m *CSR) At(i, j int) float64 {
	cols, vals := m.RowView(i)
	lo, hi := 0, len(cols)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(cols[mid]) < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cols) && int(cols[lo]) == j {
		return vals[lo]
	}
	return 0
}

// BackwardTransition builds Q from g: row i holds 1/|I(i)| at each column
// j ∈ I(i). Rows of nodes with no in-links are empty (the SimRank base case
// s(a,b)=0 when I(a)=∅).
func BackwardTransition(g *graph.Graph) *CSR {
	n := g.N()
	m := &CSR{R: n, C: n, RowOff: make([]int32, n+1)}
	m.ColIdx = make([]int32, 0, g.M())
	m.Val = make([]float64, 0, g.M())
	for i := 0; i < n; i++ {
		in := g.In(i)
		if len(in) > 0 {
			w := 1 / float64(len(in))
			for _, j := range in {
				m.ColIdx = append(m.ColIdx, j)
				m.Val = append(m.Val, w)
			}
		}
		m.RowOff[i+1] = int32(len(m.ColIdx))
	}
	return m
}

// ForwardTransition builds W from g: row i holds 1/|O(i)| at each column
// j ∈ O(i). Rows of sink nodes are empty (the walk stops, matching the
// series form Eq. (6)).
func ForwardTransition(g *graph.Graph) *CSR {
	n := g.N()
	m := &CSR{R: n, C: n, RowOff: make([]int32, n+1)}
	m.ColIdx = make([]int32, 0, g.M())
	m.Val = make([]float64, 0, g.M())
	for i := 0; i < n; i++ {
		out := g.Out(i)
		if len(out) > 0 {
			w := 1 / float64(len(out))
			for _, j := range out {
				m.ColIdx = append(m.ColIdx, j)
				m.Val = append(m.Val, w)
			}
		}
		m.RowOff[i+1] = int32(len(m.ColIdx))
	}
	return m
}

// Adjacency builds the 0/1 adjacency matrix A of g ([A]_{i,j}=1 iff edge
// i→j), used by tests that validate the Lemma-1 walk-counting machinery.
func Adjacency(g *graph.Graph) *CSR {
	n := g.N()
	m := &CSR{R: n, C: n, RowOff: make([]int32, n+1)}
	m.ColIdx = make([]int32, 0, g.M())
	m.Val = make([]float64, 0, g.M())
	for i := 0; i < n; i++ {
		for _, j := range g.Out(i) {
			m.ColIdx = append(m.ColIdx, j)
			m.Val = append(m.Val, 1)
		}
		m.RowOff[i+1] = int32(len(m.ColIdx))
	}
	return m
}

// Transpose materialises mᵀ in CSR form.
func (m *CSR) Transpose() *CSR {
	t := &CSR{R: m.C, C: m.R, RowOff: make([]int32, m.C+1)}
	t.ColIdx = make([]int32, m.NNZ())
	t.Val = make([]float64, m.NNZ())
	for _, c := range m.ColIdx {
		t.RowOff[c+1]++
	}
	for i := 0; i < t.R; i++ {
		t.RowOff[i+1] += t.RowOff[i]
	}
	pos := make([]int32, t.R)
	for i := 0; i < m.R; i++ {
		cols, vals := m.RowView(i)
		for k, c := range cols {
			at := t.RowOff[c] + pos[c]
			t.ColIdx[at] = int32(i)
			t.Val[at] = vals[k]
			pos[c]++
		}
	}
	return t
}

// MulVec returns m·x.
func (m *CSR) MulVec(x []float64) []float64 {
	if len(x) != m.C {
		panic("sparse: MulVec dimension mismatch")
	}
	y := make([]float64, m.R)
	m.MulVecInto(y, x)
	return y
}

// MulVecInto computes y = m·x, overwriting y.
//
//simstar:noalloc
func (m *CSR) MulVecInto(y, x []float64) {
	for i := 0; i < m.R; i++ {
		cols, vals := m.RowView(i)
		var s float64
		for k, c := range cols {
			s += vals[k] * x[c]
		}
		y[i] = s
	}
}

// MulVecT returns mᵀ·x without materialising the transpose (scatter form).
func (m *CSR) MulVecT(x []float64) []float64 {
	if len(x) != m.R {
		panic("sparse: MulVecT dimension mismatch")
	}
	y := make([]float64, m.C)
	m.MulVecTInto(y, x)
	return y
}

// MulVecTInto computes y = mᵀ·x in scatter form, overwriting y. Rows whose
// x entry is zero are skipped, and the scatter over each contributing row is
// 4-way unrolled: within a row the column indices are distinct, so the four
// updates are independent and the accumulation order per target element is
// unchanged — results are bitwise-identical to the rolled loop.
//
//simstar:noalloc
func (m *CSR) MulVecTInto(y, x []float64) {
	if len(x) != m.R || len(y) != m.C {
		panic("sparse: MulVecTInto dimension mismatch")
	}
	for i := range y {
		y[i] = 0
	}
	for i := 0; i < m.R; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		cols, vals := m.RowView(i)
		k := 0
		for ; k+4 <= len(cols); k += 4 {
			c0, c1, c2, c3 := cols[k], cols[k+1], cols[k+2], cols[k+3]
			y[c0] += vals[k] * xi
			y[c1] += vals[k+1] * xi
			y[c2] += vals[k+2] * xi
			y[c3] += vals[k+3] * xi
		}
		for ; k < len(cols); k++ {
			y[cols[k]] += vals[k] * xi
		}
	}
}

// MulVecAddInto computes y = m·x + add, fusing the Horner-step addition into
// the sweep so the iteration makes one pass over y instead of two. y must
// alias neither x nor add. Element-wise the operations match MulVecInto
// followed by AddTo, so results are bitwise-identical.
//
//simstar:noalloc
func (m *CSR) MulVecAddInto(y, x, add []float64) {
	if len(x) != m.C || len(y) != m.R || len(add) != m.R {
		panic("sparse: MulVecAddInto dimension mismatch")
	}
	for i := 0; i < m.R; i++ {
		cols, vals := m.RowView(i)
		var s float64
		for k, c := range cols {
			s += vals[k] * x[c]
		}
		y[i] = s + add[i]
	}
}

// MulVecAddScaleInto computes y = (m·x + add)·scale, folding the final
// normalisation of a series kernel into its last sweep. Bitwise-identical to
// MulVecAddInto followed by an element-wise multiply.
//
//simstar:noalloc
func (m *CSR) MulVecAddScaleInto(y, x, add []float64, scale float64) {
	if len(x) != m.C || len(y) != m.R || len(add) != m.R {
		panic("sparse: MulVecAddScaleInto dimension mismatch")
	}
	for i := 0; i < m.R; i++ {
		cols, vals := m.RowView(i)
		var s float64
		for k, c := range cols {
			s += vals[k] * x[c]
		}
		y[i] = (s + add[i]) * scale
	}
}

// MulDense returns m·b for a dense b, parallelised over rows of m. This is
// the O(n·m_edges) kernel behind every iterative algorithm in the
// repository (Q·S per step of the SimRank* recurrence, W·S_k for RWR).
func (m *CSR) MulDense(b *dense.Matrix) *dense.Matrix {
	c := dense.New(m.R, b.Cols)
	m.MulDenseInto(c, b)
	return c
}

// MulDenseInto computes c = m·b, overwriting c, parallelised over rows of
// m. c must not alias b. Each sparse entry streams a full contiguous row of
// b into the accumulator row, so every output element accumulates over the
// row's nonzeros in order — the same order as the single-source gather
// kernels.
func (m *CSR) MulDenseInto(c, b *dense.Matrix) {
	if m.C != b.Rows || c.Rows != m.R || c.Cols != b.Cols {
		panic(fmt.Sprintf("sparse: MulDense shape mismatch (%dx%d)·(%dx%d)→(%dx%d)",
			m.R, m.C, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	par.For(m.R, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ci := c.Row(i)
			cols, vals := m.RowView(i)
			if len(cols) == 0 {
				dense.ZeroVec(ci)
				continue
			}
			// First source: scaled copy instead of zero-then-axpy, saving a
			// full pass over the row.
			dense.ScaledCopy(ci, vals[0], b.Row(int(cols[0])))
			for k := 1; k < len(cols); k++ {
				dense.Axpy(ci, vals[k], b.Row(int(cols[k])))
			}
		}
	})
}

// ToDense materialises the matrix densely (test/diagnostic use).
func (m *CSR) ToDense() *dense.Matrix {
	d := dense.New(m.R, m.C)
	for i := 0; i < m.R; i++ {
		cols, vals := m.RowView(i)
		row := d.Row(i)
		for k, c := range cols {
			row[c] = vals[k]
		}
	}
	return d
}

// RowSums returns the vector of row sums; for Q and W every non-empty row
// sums to 1 (row-stochasticity), which tests assert.
func (m *CSR) RowSums() []float64 {
	s := make([]float64, m.R)
	for i := 0; i < m.R; i++ {
		_, vals := m.RowView(i)
		s[i] = dense.SumVec(vals)
	}
	return s
}
