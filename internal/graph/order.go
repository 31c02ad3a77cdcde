package graph

import "sort"

// Node relabeling order. The similarity kernels sweep CSR operators whose
// gather/scatter locality is set entirely by the node numbering, so a
// one-time relabeling at preprocessing time buys cache hits on every later
// sweep. The order is a permutation perm with perm[old] = new;
// sparse.Permute applies it to an operator and sparse.InversePerm maps
// results back.

// DegreeOrder returns the relabeling that numbers nodes by descending total
// degree (in + out), ties broken by ascending old id. Hubs — the rows and
// columns almost every query touches — cluster at the front of the operator
// and of every dense iteration vector, so the hot working set stays within a
// few cache lines instead of being sprayed across O(n) memory.
func DegreeOrder(g *Graph) []int32 {
	n := g.N()
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	deg := func(v int32) int { return g.InDeg(int(v)) + g.OutDeg(int(v)) }
	sort.SliceStable(order, func(a, b int) bool { return deg(order[a]) > deg(order[b]) })
	perm := make([]int32, n)
	for newID, oldID := range order {
		perm[oldID] = int32(newID)
	}
	return perm
}
