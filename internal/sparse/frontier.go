package sparse

import "slices"

// Frontier is a sparse non-negative vector accumulator over a fixed
// dimension: a dense scratch array plus the list of touched indices. It is
// the substrate of the threshold-sieved approximate kernels — a propagation
// frontier that stays proportional to the mass actually in flight instead of
// the full node count, so a sweep costs O(Σ deg(frontier)) rather than O(m).
//
// The accumulator relies on every added value being strictly positive (all
// sieved kernels propagate non-negative mass): an index is considered
// touched exactly when its scratch entry is non-zero, so zero or negative
// contributions that could cancel an entry back to zero would corrupt the
// touched list. Add enforces this by ignoring v <= 0.
//
// A Frontier is not safe for concurrent use; kernels own their frontiers.
type Frontier struct {
	val []float64
	idx []int32
}

// NewFrontier returns an empty frontier of dimension n.
func NewFrontier(n int) *Frontier {
	return &Frontier{val: make([]float64, n)}
}

// Dim returns the dimension the frontier accumulates over.
func (f *Frontier) Dim() int { return len(f.val) }

// Len returns the number of non-zero entries.
func (f *Frontier) Len() int { return len(f.idx) }

// Reset clears the frontier in O(Len) — only touched entries are zeroed.
func (f *Frontier) Reset() {
	for _, i := range f.idx {
		f.val[i] = 0
	}
	f.idx = f.idx[:0]
}

// Add accumulates v into entry i. Non-positive v is ignored (see the type
// comment: the touched list tracks non-zero entries, which only stays
// correct under strictly positive contributions).
func (f *Frontier) Add(i int32, v float64) {
	if v <= 0 {
		return
	}
	if f.val[i] == 0 {
		f.idx = append(f.idx, i)
	}
	f.val[i] += v
}

// At returns entry i.
func (f *Frontier) At(i int32) float64 { return f.val[i] }

// Entries returns the touched indices and the dense scratch (views; the
// scratch is only valid at touched indices — do not modify either).
func (f *Frontier) Entries() ([]int32, []float64) { return f.idx, f.val }

// Sum returns the 1-norm of the frontier (entries are non-negative).
func (f *Frontier) Sum() float64 {
	var s float64
	for _, i := range f.idx {
		s += f.val[i]
	}
	return s
}

// AddScaled accumulates coef·src into f. coef must be positive.
func (f *Frontier) AddScaled(coef float64, src *Frontier) {
	for _, i := range src.idx {
		f.Add(i, coef*src.val[i])
	}
}

// AddScaledInto accumulates coef·f into the dense vector dst.
func (f *Frontier) AddScaledInto(dst []float64, coef float64) {
	for _, i := range f.idx {
		dst[i] += coef * f.val[i]
	}
}

// Dense scatters the frontier into a fresh dense vector, scaled by coef.
func (f *Frontier) Dense(coef float64) []float64 {
	out := make([]float64, len(f.val))
	for _, i := range f.idx {
		out[i] = coef * f.val[i]
	}
	return out
}

// Sieve removes every entry strictly below tau, compacting the touched list
// in place. It returns the total removed mass (the 1-norm of what was
// dropped) and the largest single removed entry — the two quantities the
// certified error bounds are built from: transpose-direction sweeps account
// dropped mass in the 1-norm, forward sweeps in the ∞-norm. tau <= 0 is a
// no-op.
func (f *Frontier) Sieve(tau float64) (dropped, maxDropped float64) {
	if tau <= 0 {
		return 0, 0
	}
	keep := f.idx[:0]
	for _, i := range f.idx {
		v := f.val[i]
		if v < tau {
			dropped += v
			if v > maxDropped {
				maxDropped = v
			}
			f.val[i] = 0
			continue
		}
		keep = append(keep, i)
	}
	f.idx = keep
	return dropped, maxDropped
}

// ScatterMulT accumulates mᵀ·src into dst, traversing only the rows of m in
// src's support: dst[c] += m[i,c]·src[i] for every touched i. With m = Q
// (the backward transition matrix) this is one sparse backward sweep; with
// m = Qᵀ materialised it computes Q·src, one sparse forward sweep. dst and
// src must be distinct frontiers of matching dimensions.
//
// The touched list of dst comes back sorted ascending, not in first-touch
// order. The sieve and the next sweep walk the touched list in order: the
// sieve sums the dropped mass along it and the next sweep accumulates every
// output element along it. So this order fixes the sieved kernels' bits and
// certificates; changing it changes them.
func (m *CSR) ScatterMulT(dst, src *Frontier) {
	if src.Dim() != m.R || dst.Dim() != m.C {
		panic("sparse: ScatterMulT dimension mismatch")
	}
	for _, i := range src.idx {
		xi := src.val[i]
		cols, vals := m.RowView(int(i))
		for k, c := range cols {
			dst.Add(c, vals[k]*xi)
		}
	}
	slices.Sort(dst.idx)
}
