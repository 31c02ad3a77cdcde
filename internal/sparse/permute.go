package sparse

// Node relabeling. CSR sweep cost is dominated by the x[col] gathers and
// y[col] scatters, whose cache behaviour depends entirely on how far column
// indices stray from the current row — a property of the node *numbering*,
// not the graph. Permute applies a relabeling perm (computed once, at
// preprocessing time, e.g. by graph.DegreeOrder) to a square operator so
// that every subsequent sweep enjoys the improved locality for free.

// InversePerm returns the inverse of a permutation: inv[perm[i]] = i. It
// panics if perm is not a bijection on [0, len(perm)).
func InversePerm(perm []int32) []int32 {
	inv := make([]int32, len(perm))
	for i := range inv {
		inv[i] = -1
	}
	for i, p := range perm {
		if p < 0 || int(p) >= len(perm) || inv[p] != -1 {
			panic("sparse: InversePerm of a non-bijective mapping")
		}
		inv[p] = int32(i)
	}
	return inv
}

// Permute returns the symmetric relabeling of a square matrix m under perm
// (perm[old] = new): out[perm[i], perm[j]] = m[i, j], i.e. P·M·Pᵀ. Row
// columns stay in ascending order. The build is two counting passes — a
// relabelled transpose followed by a plain transpose — so no per-row sorting
// is needed.
func Permute(m *CSR, perm []int32) *CSR {
	if m.R != m.C {
		panic("sparse: Permute requires a square matrix")
	}
	if len(perm) != m.R {
		panic("sparse: Permute dimension mismatch")
	}
	return transposeRelabel(m, perm).Transpose()
}

// transposeRelabel returns t with t[perm[j], perm[i]] = m[i, j] — the
// relabelled transpose (P·M·Pᵀ)ᵀ. Iterating source rows in new-id order
// makes every output row's columns ascend, keeping the CSR invariant without
// sorting.
func transposeRelabel(m *CSR, perm []int32) *CSR {
	inv := InversePerm(perm)
	n := m.R
	t := &CSR{R: n, C: n, RowOff: make([]int32, n+1)}
	t.ColIdx = make([]int32, m.NNZ())
	t.Val = make([]float64, m.NNZ())
	for _, c := range m.ColIdx {
		t.RowOff[perm[c]+1]++
	}
	for i := 0; i < n; i++ {
		t.RowOff[i+1] += t.RowOff[i]
	}
	pos := make([]int32, n)
	for ni := int32(0); int(ni) < n; ni++ {
		oi := inv[ni]
		cols, vals := m.RowView(int(oi))
		for k, c := range cols {
			r := perm[c]
			at := t.RowOff[r] + pos[r]
			t.ColIdx[at] = ni
			t.Val[at] = vals[k]
			pos[r]++
		}
	}
	return t
}

// PermuteVec gathers a vector from old-id order into new-id order:
// out[perm[i]] = x[i].
func PermuteVec(x []float64, perm []int32) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[perm[i]] = v
	}
	return out
}
