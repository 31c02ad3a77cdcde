package dyngraph

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
)

func baseGraph() *graph.Graph {
	return graph.FromEdges(5, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 0}})
}

func TestStoreApplyMaterializesEveryCallByDefault(t *testing.T) {
	s := New(baseGraph())
	if snap := s.Snapshot(); snap.Epoch != 0 || snap.Graph.M() != 5 {
		t.Fatalf("initial snapshot = epoch %d, m %d", snap.Epoch, snap.Graph.M())
	}
	res, err := s.Apply([]Edit{Insert(4, 0), Delete(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Materialized || res.Snapshot.Epoch != 1 {
		t.Fatalf("result = %+v, want materialized epoch 1", res)
	}
	if m := res.Snapshot.Graph.M(); m != 5 {
		t.Fatalf("edges = %d, want 5 (one in, one out)", m)
	}
	if res.Delta.Inserted != 1 || res.Delta.Removed != 1 {
		t.Fatalf("delta = %+v", res.Delta)
	}
	if s.Snapshot().Graph.HasEdge(0, 1) {
		t.Fatal("deleted edge survived")
	}
	if !s.Snapshot().Graph.HasEdge(4, 0) {
		t.Fatal("inserted edge missing")
	}
}

func TestStoreNoOpBatchKeepsEpoch(t *testing.T) {
	s := New(baseGraph())
	res, err := s.Apply([]Edit{Insert(0, 1), Delete(3, 4)}) // both no-ops
	if err != nil {
		t.Fatal(err)
	}
	if res.Materialized || res.Snapshot.Epoch != 0 {
		t.Fatalf("no-op apply = %+v, want epoch 0", res)
	}
}

func TestStoreRejectsInvalidBatchAtomically(t *testing.T) {
	s := New(baseGraph())
	base := s.Snapshot().Graph
	for _, bad := range []Edit{Insert(-1, 0), Insert(math.MaxInt32+1, 0), {Op: 7, U: 0, V: 1}} {
		if _, err := s.Apply([]Edit{Insert(4, 4), bad}); err == nil {
			t.Fatalf("batch with %+v: want error", bad)
		}
		if snap := s.Snapshot(); snap.Epoch != 0 || snap.Graph != base {
			t.Fatalf("batch with %+v left epoch %d, graph changed %v", bad, snap.Epoch, snap.Graph != base)
		}
	}
	// A rejected batch leaves nothing behind that a later valid one trips on.
	res, err := s.Apply([]Edit{Insert(4, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Materialized || res.Snapshot.Epoch != 1 || !s.Snapshot().Graph.HasEdge(4, 4) {
		t.Fatalf("valid batch after rejections = %+v, want epoch 1 with edge 4→4", res)
	}
}

func TestStoreBaseEpoch(t *testing.T) {
	s := New(baseGraph(), WithBaseEpoch(41))
	if s.Snapshot().Epoch != 41 {
		t.Fatalf("base epoch = %d, want 41", s.Snapshot().Epoch)
	}
	res, err := s.Apply([]Edit{Insert(4, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.Epoch != 42 {
		t.Fatalf("epoch after edit = %d, want 42", res.Snapshot.Epoch)
	}
}

// Writers stream edits while readers hammer Snapshot: the snapshot must
// always be a coherent graph (self-consistent CSR), never a torn state.
// Run under -race in CI.
func TestStoreConcurrentReadersAndWriter(t *testing.T) {
	s := New(baseGraph())
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := s.Snapshot()
				// Walk the snapshot: a torn graph would panic or disagree.
				edges := 0
				snap.Graph.Edges(func(u, v int) { edges++ })
				if edges != snap.Graph.M() {
					t.Errorf("snapshot walk saw %d edges, M() = %d", edges, snap.Graph.M())
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if _, err := s.Apply([]Edit{Insert(i%7, (i+3)%7), Delete((i+1)%7, i%7)}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestEditsRoundTrip(t *testing.T) {
	edits := []Edit{Insert(0, 1), Delete(2, 3), Insert(100, 7)}
	var buf bytes.Buffer
	if err := WriteEdits(&buf, edits); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdits(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(edits) {
		t.Fatalf("len = %d, want %d", len(got), len(edits))
	}
	for i := range edits {
		if got[i] != edits[i] {
			t.Fatalf("edit %d = %+v, want %+v", i, got[i], edits[i])
		}
	}
}

func TestReadEditsRejectsMalformed(t *testing.T) {
	for _, bad := range []string{"x 1 2\n", "+ 1\n", "+ a b\n", "+ -1 2\n"} {
		if _, err := ReadEdits(strings.NewReader(bad)); err == nil {
			t.Fatalf("want error for %q", bad)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := New(baseGraph())
	if _, err := s.Apply([]Edit{Insert(4, 0)}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s.Snapshot()); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", snap.Epoch)
	}
	if snap.Graph.N() != 5 || snap.Graph.M() != 6 || !snap.Graph.HasEdge(4, 0) {
		t.Fatalf("graph N=%d M=%d", snap.Graph.N(), snap.Graph.M())
	}
	// A store warm-started from the snapshot resumes the epoch sequence.
	s2 := New(snap.Graph, WithBaseEpoch(snap.Epoch))
	res, err := s2.Apply([]Edit{Insert(4, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.Epoch != 2 {
		t.Fatalf("resumed epoch = %d, want 2", res.Snapshot.Epoch)
	}
}
