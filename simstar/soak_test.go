package simstar_test

import (
	"context"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/simstar"
)

// The soak contract: under concurrent ApplyEdits/Snapshot churn, every
// MultiSource, BatchTopK and TopK answer must be bitwise-identical to
// a from-scratch engine at SOME materialised epoch — a query pins one
// atomic engineState and never sees a torn mix of two. The schedule is
// seeded and the op budget fixed, so the test is reproducible; it is run
// under -race in CI.

const (
	soakNodes      = 48
	soakBatches    = 5  // edit batches, so epochs 0..soakBatches exist
	soakOpsPerGoro = 40 // queries per reader goroutine
	soakReaders    = 4
	soakK          = 8
)

var soakMeasures = []string{simstar.MeasureGeometric, simstar.MeasureRWR}
var soakProbes = []int{1, 9, 17, 25}

// soakEdits evolves the edge slice deterministically (no map iteration —
// slice order is the schedule) and returns the batch plus the mutated
// slice. Node count stays fixed so every epoch's probe set is valid.
func soakEdits(rng *rand.Rand, edges [][2]int, set map[[2]int]bool) ([]simstar.Edit, [][2]int) {
	var batch []simstar.Edit
	for j := 0; j < 8; j++ {
		if rng.Intn(2) == 0 && len(edges) > 8 {
			i := rng.Intn(len(edges))
			e := edges[i]
			edges[i] = edges[len(edges)-1]
			edges = edges[:len(edges)-1]
			delete(set, e)
			batch = append(batch, simstar.DeleteEdge(e[0], e[1]))
			continue
		}
		for {
			e := [2]int{rng.Intn(soakNodes), rng.Intn(soakNodes)}
			if !set[e] {
				set[e] = true
				edges = append(edges, e)
				batch = append(batch, simstar.InsertEdge(e[0], e[1]))
				break
			}
		}
	}
	return batch, edges
}

// soakExpected holds the reference answers of one epoch, computed by a
// fresh engine on that epoch's graph: exact single-source vectors and
// top-k rankings per (measure, probe).
type soakExpected struct {
	scores map[string]map[int][]float64
	top    map[string]map[int][]simstar.Ranked
}

func soakReference(t *testing.T, edges [][2]int, opts []simstar.Option) soakExpected {
	t.Helper()
	eng := simstar.NewEngine(simstar.GraphFromEdges(soakNodes, append([][2]int(nil), edges...)), opts...)
	exp := soakExpected{
		scores: make(map[string]map[int][]float64),
		top:    make(map[string]map[int][]simstar.Ranked),
	}
	ctx := context.Background()
	for _, m := range soakMeasures {
		exp.scores[m] = make(map[int][]float64)
		exp.top[m] = make(map[int][]simstar.Ranked)
		for _, q := range soakProbes {
			s, err := eng.SingleSource(ctx, m, q)
			if err != nil {
				t.Fatal(err)
			}
			exp.scores[m][q] = s
			top, err := eng.TopK(ctx, m, q, soakK)
			if err != nil {
				t.Fatal(err)
			}
			exp.top[m][q] = top
		}
	}
	return exp
}

func float64sEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// epochsMatchingScores returns the epochs whose reference vector for
// (measure, q) equals got bitwise.
func epochsMatchingScores(refs []soakExpected, m string, q int, got []float64) []int {
	var out []int
	for e, ref := range refs {
		if float64sEqual(ref.scores[m][q], got) {
			out = append(out, e)
		}
	}
	return out
}

func epochsMatchingTop(refs []soakExpected, m string, q int, got []simstar.Ranked) []int {
	var out []int
	for e, ref := range refs {
		if rankedSliceEqual(ref.top[m][q], got) {
			out = append(out, e)
		}
	}
	return out
}

func intersect(a, b []int) []int {
	var out []int
	for _, x := range a {
		for _, y := range b {
			if x == y {
				out = append(out, x)
				break
			}
		}
	}
	return out
}

func TestSoakConcurrentQueriesDuringChurn(t *testing.T) {
	opts := []simstar.Option{simstar.WithC(0.6), simstar.WithK(4)}
	rng := rand.New(rand.NewSource(1234))

	// Epoch 0 graph plus the deterministic batch sequence, with a
	// from-scratch reference engine's answers at every epoch.
	edges := make([][2]int, 0, 220)
	set := make(map[[2]int]bool)
	for len(edges) < 200 {
		e := [2]int{rng.Intn(soakNodes), rng.Intn(soakNodes)}
		if !set[e] {
			set[e] = true
			edges = append(edges, e)
		}
	}
	baseEdges := append([][2]int(nil), edges...)
	batches := make([][]simstar.Edit, soakBatches)
	refs := make([]soakExpected, soakBatches+1)
	refs[0] = soakReference(t, edges, opts)
	for b := 0; b < soakBatches; b++ {
		batches[b], edges = soakEdits(rng, edges, set)
		refs[b+1] = soakReference(t, edges, opts)
	}

	eng := simstar.NewEngine(simstar.GraphFromEdges(soakNodes, baseEdges), opts...)
	ctx := context.Background()

	// Writer: materialise each batch, interleaved with snapshot traffic —
	// the full write-path surface racing the readers.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b, batch := range batches {
			stats, err := eng.ApplyEdits(batch...)
			if err != nil {
				t.Errorf("batch %d: %v", b, err)
				return
			}
			if !stats.Refreshed {
				t.Errorf("batch %d not refreshed", b)
				return
			}
			if snap := eng.Snapshot(); snap.Graph == nil {
				t.Errorf("snapshot after batch %d: %+v", b, snap)
				return
			}
			if _, err := eng.WriteSnapshot(io.Discard); err != nil {
				t.Errorf("write snapshot after batch %d: %v", b, err)
				return
			}
			runtime.Gosched()
		}
	}()

	// Readers: seeded schedules of MultiSource / BatchTopK / TopK.
	// Every answer must match one epoch's reference bitwise, and both
	// queries of one batch must match the SAME epoch — the no-torn-reads
	// assertion across the atomic state swap.
	for r := 0; r < soakReaders; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < soakOpsPerGoro; op++ {
				m := soakMeasures[rng.Intn(len(soakMeasures))]
				m2 := soakMeasures[rng.Intn(len(soakMeasures))]
				q := soakProbes[rng.Intn(len(soakProbes))]
				q2 := soakProbes[rng.Intn(len(soakProbes))]
				switch rng.Intn(3) {
				case 0:
					results := eng.MultiSource(ctx, []simstar.Query{
						{Measure: m, Node: q},
						{Measure: m2, Node: q2},
					})
					for i, res := range results {
						if res.Err != nil {
							t.Errorf("op %d slot %d: %v", op, i, res.Err)
							return
						}
					}
					es := intersect(
						epochsMatchingScores(refs, m, q, results[0].Scores),
						epochsMatchingScores(refs, m2, q2, results[1].Scores))
					if len(es) == 0 {
						t.Errorf("op %d: MultiSource answers match no single epoch (torn batch?)", op)
						return
					}
				case 1:
					results := eng.BatchTopK(ctx, []simstar.Query{
						{Measure: m, Node: q, K: soakK},
						{Measure: m2, Node: q2, K: soakK},
					})
					for i, res := range results {
						if res.Err != nil {
							t.Errorf("op %d slot %d: %v", op, i, res.Err)
							return
						}
					}
					es := intersect(
						epochsMatchingTop(refs, m, q, results[0].Top),
						epochsMatchingTop(refs, m2, q2, results[1].Top))
					if len(es) == 0 {
						t.Errorf("op %d: BatchTopK answers match no single epoch (torn batch?)", op)
						return
					}
				default:
					top, err := eng.TopK(ctx, m, q, soakK)
					if err != nil {
						t.Errorf("op %d: %v", op, err)
						return
					}
					if len(epochsMatchingTop(refs, m, q, top)) == 0 {
						t.Errorf("op %d: TopK answer matches no epoch", op)
						return
					}
				}
			}
		}(7_000 + int64(r))
	}
	wg.Wait()

	// After the churn settles, the engine must serve the final epoch's
	// reference answers exactly.
	final := refs[soakBatches]
	for _, m := range soakMeasures {
		for _, q := range soakProbes {
			got, err := eng.SingleSource(ctx, m, q)
			if err != nil {
				t.Fatal(err)
			}
			if !float64sEqual(got, final.scores[m][q]) {
				t.Fatalf("final %s q=%d diverges from the from-scratch reference", m, q)
			}
		}
	}
}
