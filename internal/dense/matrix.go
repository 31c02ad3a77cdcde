// Package dense provides the dense linear-algebra substrate: row-major
// matrices with parallel multiply, a one-sided Jacobi SVD and an LU solver.
// It exists because the paper's baselines need operations absent from the Go
// standard library — mtx-SR (Li et al.) requires a singular value
// decomposition, a small linear solve and dense products of its factors.
package dense

import (
	"fmt"
	"math"

	"repro/internal/par"
)

// Matrix is a row-major dense matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// New returns a zero matrix of the given shape.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("dense: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("dense: ragged rows")
		}
		copy(m.Row(i), r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a mutable slice view.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom overwrites m with o. Shapes must match.
func (m *Matrix) CopyFrom(o *Matrix) {
	m.mustMatch(o)
	copy(m.Data, o.Data)
}

// Zero sets all elements to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Scale multiplies every element by a.
func (m *Matrix) Scale(a float64) {
	for i := range m.Data {
		m.Data[i] *= a
	}
}

// Add sets m = m + o.
func (m *Matrix) Add(o *Matrix) {
	m.mustMatch(o)
	for i, v := range o.Data {
		m.Data[i] += v
	}
}

// Axpy sets m = m + a·o.
func (m *Matrix) Axpy(a float64, o *Matrix) {
	m.mustMatch(o)
	for i, v := range o.Data {
		m.Data[i] += a * v
	}
}

// AddDiag adds a to every diagonal element (square matrices).
func (m *Matrix) AddDiag(a float64) {
	if m.Rows != m.Cols {
		panic("dense: AddDiag on non-square matrix")
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] += a
	}
}

// Transpose returns mᵀ as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Symmetrize sets m = (m + mᵀ)/2 in place (square matrices). It is used by
// the iterative SimRank* kernels to enforce exact symmetry against float
// round-off.
func (m *Matrix) Symmetrize() {
	if m.Rows != m.Cols {
		panic("dense: Symmetrize on non-square matrix")
	}
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := (m.Data[i*n+j] + m.Data[j*n+i]) / 2
			m.Data[i*n+j] = v
			m.Data[j*n+i] = v
		}
	}
}

// MaxAbs returns max |m_ij| — the ‖·‖_max norm the paper's error bounds use.
func (m *Matrix) MaxAbs() float64 {
	best := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > best {
			best = a
		}
	}
	return best
}

// MaxAbsDiff returns ‖m − o‖_max.
func (m *Matrix) MaxAbsDiff(o *Matrix) float64 {
	m.mustMatch(o)
	best := 0.0
	for i, v := range o.Data {
		if a := math.Abs(m.Data[i] - v); a > best {
			best = a
		}
	}
	return best
}

// IsSymmetric reports whether ‖m − mᵀ‖_max <= tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(m.Data[i*n+j]-m.Data[j*n+i]) > tol {
				return false
			}
		}
	}
	return true
}

// MulVec returns m·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("dense: MulVec dimension mismatch")
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		y[i] = Dot(m.Row(i), x)
	}
	return y
}

// Mul returns a·b computed with a cache-friendly ikj kernel parallelised
// over rows of a.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("dense: Mul shape mismatch (%dx%d)·(%dx%d)", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := New(a.Rows, b.Cols)
	MulInto(c, a, b)
	return c
}

// MulInto computes c = a·b, overwriting c. c must not alias a or b.
func MulInto(c, a, b *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("dense: MulInto shape mismatch")
	}
	par.For(a.Rows, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ci := c.Row(i)
			for k := range ci {
				ci[k] = 0
			}
			ai := a.Row(i)
			for k, av := range ai {
				if av == 0 {
					continue
				}
				Axpy(ci, av, b.Row(k))
			}
		}
	})
}

// MulABT returns a·bᵀ. It reads b row-wise on both sides, which keeps the
// kernel cache-friendly without materialising the transpose; the SVD
// reconstruction and mtx-SR's closed form use it.
func MulABT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic("dense: MulABT shape mismatch")
	}
	c := New(a.Rows, b.Rows)
	par.For(a.Rows, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ai := a.Row(i)
			ci := c.Row(i)
			for j := 0; j < b.Rows; j++ {
				ci[j] = Dot(ai, b.Row(j))
			}
		}
	})
	return c
}

func (m *Matrix) mustMatch(o *Matrix) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("dense: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
}
