package sparse

import "repro/internal/obs"

// Workspace is a reusable arena of fixed-dimension dense vectors for the
// iterative single-source kernels. The exact kernels used to allocate (and
// the runtime to zero) O(K) length-n vectors per query — ~10MB per request
// at n=100k, K=5 — which dominated steady-state serving cost with GC
// pressure. A Workspace keeps those buffers alive between queries: Reset
// returns every buffer to the arena, Take/Raw hand them out again, and after
// the first few queries the arena stops growing, making the kernels
// allocation-free.
//
// A Workspace is not safe for concurrent use; serving layers pool them (one
// per in-flight query) rather than share them.
type Workspace struct {
	n    int
	bufs [][]float64
	next int
	hdr  [][]float64 // reusable header slice for RawVecs

	// Trace is a per-query kernel-trace scratch the workspace carries so
	// observed zero-alloc paths have a KernelTrace without allocating one:
	// the serving layer takes &ws.Trace for the duration of its loan.
	// Reset leaves it untouched — its lifecycle belongs to the borrower.
	Trace obs.KernelTrace
}

// NewWorkspace returns an empty arena of dimension n.
func NewWorkspace(n int) *Workspace { return &Workspace{n: n} }

// Dim returns the length of the buffers the arena hands out.
func (w *Workspace) Dim() int { return w.n }

// Reset returns every buffer to the arena. Buffers handed out earlier must
// not be used afterwards.
func (w *Workspace) Reset() { w.next = 0 }

// Take returns a zeroed length-n buffer from the arena, growing it on first
// use.
func (w *Workspace) Take() []float64 {
	b := w.Raw()
	for i := range b {
		b[i] = 0
	}
	return b
}

// Raw returns a length-n buffer with arbitrary contents — for targets a
// kernel overwrites entirely (MulVecInto, MulVecTInto), where Take's zeroing
// pass would be wasted.
func (w *Workspace) Raw() []float64 {
	if w.next == len(w.bufs) {
		w.bufs = append(w.bufs, make([]float64, w.n))
	}
	b := w.bufs[w.next]
	w.next++
	return b
}

// Grows reports how many arena buffers have ever been allocated — the
// trace-visible distinction between a warm pooled workspace (stable) and a
// fresh one paying its first-use growth.
func (w *Workspace) Grows() int { return len(w.bufs) }

// RawVecs returns count buffers with arbitrary contents in a reusable
// header slice, for an accumulator family whose first write overwrites each
// buffer. The returned slice is only valid until the next RawVecs or Reset
// call; a kernel takes its accumulator family in one call.
func (w *Workspace) RawVecs(count int) [][]float64 {
	w.hdr = w.hdr[:0]
	for i := 0; i < count; i++ {
		w.hdr = append(w.hdr, w.Raw())
	}
	return w.hdr
}
