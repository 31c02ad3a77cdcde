package simstar

import "repro/internal/core"

// Ranked is one entry of a top-k result.
type Ranked = core.Ranked

// TopK returns the k highest-scoring nodes from a score vector, excluding
// the nodes in exclude (typically the query itself). Selection runs in
// O(n log k) with a bounded min-heap; ties break by node id for
// determinism.
//
// The boundaries are part of the contract: k <= 0 returns an empty result,
// and k greater than the number of candidates (len(scores) minus the
// excluded nodes) returns every candidate, fully ordered. An oversized k is
// clamped before any allocation, so callers may pass "give me everything"
// values safely.
func TopK(scores []float64, k int, exclude ...int) []Ranked {
	return core.TopK(scores, k, exclude...)
}
