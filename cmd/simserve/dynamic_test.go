package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/simstar"
)

func TestEdgeMutationEndpoints(t *testing.T) {
	s, h := newTestServer(t)
	loadTestGraph(t, h)
	base := s.engine().Graph()
	// The test graph is labelled; mutate by id ("preprint"→"classicB").
	pre, _ := base.NodeByLabel("preprint")
	clB, _ := base.NodeByLabel("classicB")

	rec := doJSON(t, h, "POST", "/v1/edges", map[string]any{
		"insert": [][2]int{{pre, clB}},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("insert: status %d: %s", rec.Code, rec.Body)
	}
	var er editsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Epoch != 1 || er.Inserted != 1 || !er.Refreshed || er.Edges != 10 {
		t.Fatalf("insert response %+v, want epoch 1, 1 inserted, 10 edges", er)
	}
	if !s.engine().Graph().HasEdge(pre, clB) {
		t.Fatal("edge not visible after insert")
	}

	// A delete-only batch takes it back out.
	rec = doJSON(t, h, "POST", "/v1/edges", map[string]any{
		"delete": [][2]int{{pre, clB}},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Epoch != 2 || er.Removed != 1 || er.Edges != 9 {
		t.Fatalf("delete response %+v, want epoch 2, 1 removed, 9 edges", er)
	}

	// Stats reports the epoch.
	var st statsResponse
	rec = doJSON(t, h, "GET", "/v1/stats", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Engine.Epoch != 2 {
		t.Fatalf("stats engine %+v, want epoch 2", st.Engine)
	}
}

func TestEdgeMutationChangesScores(t *testing.T) {
	s, h := newTestServer(t)
	loadTestGraph(t, h)
	g := s.engine().Graph()
	q, _ := g.NodeByLabel("classicA")
	query := map[string]any{"measure": simstar.MeasureGeometric, "node": q}

	var before, after singleResponse
	rec := doJSON(t, h, "POST", "/v1/query/single", query)
	if err := json.Unmarshal(rec.Body.Bytes(), &before); err != nil {
		t.Fatal(err)
	}
	rev, _ := g.NodeByLabel("review")
	rec = doJSON(t, h, "POST", "/v1/edges", map[string]any{"insert": [][2]int{{rev, q}}})
	if rec.Code != http.StatusOK {
		t.Fatalf("insert: status %d: %s", rec.Code, rec.Body)
	}
	rec = doJSON(t, h, "POST", "/v1/query/single", query)
	if err := json.Unmarshal(rec.Body.Bytes(), &after); err != nil {
		t.Fatal(err)
	}
	if after.Cached {
		t.Fatal("post-mutation query served from cache: stale epoch")
	}
	same := true
	for i := range before.Scores {
		if before.Scores[i] != after.Scores[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("scores unchanged after an in-link mutation of the query node")
	}
}

func TestEdgeMutationBadRequests(t *testing.T) {
	_, h := newTestServer(t)
	// 409 before a graph is loaded.
	rec := doJSON(t, h, "POST", "/v1/edges", map[string]any{"insert": [][2]int{{0, 1}}})
	if rec.Code != http.StatusConflict {
		t.Fatalf("no graph: status %d, want 409", rec.Code)
	}
	loadTestGraph(t, h)
	for name, body := range map[string]map[string]any{
		"empty":        {},
		"negative":     {"insert": [][2]int{{-1, 0}}},
		"huge-node-id": {"insert": [][2]int{{0, maxGraphNodes}}},
	} {
		rec := doJSON(t, h, "POST", "/v1/edges", body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, rec.Code)
		}
	}
	// POST is the one mutation route.
	rec = doJSON(t, h, "DELETE", "/v1/edges", map[string]any{"edges": [][2]int{{0, 1}}})
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE method on /v1/edges: status %d, want 405", rec.Code)
	}
}

func TestSnapshotEndpointAndWarmRestart(t *testing.T) {
	s, h := newTestServer(t)
	s.snapPath = filepath.Join(t.TempDir(), "graph.snap")
	loadTestGraph(t, h)
	if rec := doJSON(t, h, "POST", "/v1/edges", map[string]any{"insert": [][2]int{{0, 4}}}); rec.Code != http.StatusOK {
		t.Fatalf("insert: status %d", rec.Code)
	}
	rec := doJSON(t, h, "POST", "/v1/snapshot", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot: status %d: %s", rec.Code, rec.Body)
	}
	var sr snapshotResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Epoch != 1 || sr.Bytes <= 0 {
		t.Fatalf("snapshot response %+v", sr)
	}
	if fi, err := os.Stat(s.snapPath); err != nil || fi.Size() != sr.Bytes {
		t.Fatalf("snapshot file: %v (size %v, want %d)", err, fi, sr.Bytes)
	}

	// Warm restart: the loader main uses resumes graph AND epoch.
	g, epoch, err := loadSnapshot(s.snapPath, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || g.N() != 7 || g.M() != 10 {
		t.Fatalf("reloaded epoch %d, %d nodes, %d edges", epoch, g.N(), g.M())
	}
	s2 := newServer()
	s2.swap(simstar.NewEngine(g, simstar.WithBaseEpoch(epoch)), false)
	if got := s2.engine().Epoch(); got != 1 {
		t.Fatalf("warm engine epoch = %d, want 1", got)
	}
}

func TestSnapshotWithoutPathIs409(t *testing.T) {
	_, h := newTestServer(t)
	loadTestGraph(t, h)
	if rec := doJSON(t, h, "POST", "/v1/snapshot", nil); rec.Code != http.StatusConflict {
		t.Fatalf("status %d, want 409", rec.Code)
	}
}

// Concurrent batch queries racing edge mutations and full graph swaps: every
// response must be a coherent answer from some epoch — no 5xx, no torn
// vectors. Runs under the -race CI job.
func TestConcurrentBatchQueriesRacingMutations(t *testing.T) {
	_, h := newTestServer(t)
	loadTestGraph(t, h)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec := doJSON(t, h, "POST", "/v1/query/batch", map[string]any{
					"mode": "scores",
					"queries": []map[string]any{
						{"measure": simstar.MeasureGeometric, "node": (w + i) % 7},
						{"measure": simstar.MeasureRWR, "node": (w + i + 1) % 7},
					},
				})
				if rec.Code != http.StatusOK {
					t.Errorf("batch status %d: %s", rec.Code, rec.Body)
					return
				}
				var br batchResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
					t.Error(err)
					return
				}
				for _, res := range br.Results {
					if res.Error != "" {
						t.Errorf("query error under mutation: %s", res.Error)
						return
					}
					// Vectors answer from one coherent epoch: always a full
					// row of whatever graph version served it (>= base size).
					if len(res.Scores) < 7 {
						t.Errorf("torn score vector: len %d", len(res.Scores))
						return
					}
				}
			}
		}(w)
	}

	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		switch rng.Intn(3) {
		case 0: // stream an insert + a delete
			rec := doJSON(t, h, "POST", "/v1/edges", map[string]any{
				"insert": [][2]int{{rng.Intn(7), rng.Intn(7)}},
				"delete": [][2]int{{rng.Intn(7), rng.Intn(7)}},
			})
			if rec.Code != http.StatusOK {
				t.Fatalf("edit %d: status %d: %s", i, rec.Code, rec.Body)
			}
		case 1: // a delete-only batch
			rec := doJSON(t, h, "POST", "/v1/edges", map[string]any{
				"delete": [][2]int{{rng.Intn(7), rng.Intn(7)}},
			})
			if rec.Code != http.StatusOK {
				t.Fatalf("delete %d: status %d: %s", i, rec.Code, rec.Body)
			}
		case 2: // full graph swap
			loadTestGraph(t, h)
		}
	}
	close(stop)
	wg.Wait()
}

// The epoch must survive a snapshot/restore/mutate cycle without colliding
// with cache entries of earlier epochs (regression guard for the cache key).
func TestEpochMonotoneAcrossMutations(t *testing.T) {
	s, h := newTestServer(t)
	loadTestGraph(t, h)
	last := uint64(0)
	for i := 0; i < 5; i++ {
		rec := doJSON(t, h, "POST", "/v1/edges", map[string]any{
			"insert": [][2]int{{0, 3 + i}},
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("edit %d: status %d: %s", i, rec.Code, rec.Body)
		}
		var er editsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Fatal(err)
		}
		if er.Epoch != last+1 {
			t.Fatalf("epoch %d after edit %d, want %d", er.Epoch, i, last+1)
		}
		last = er.Epoch
	}
	if got := s.engine().Epoch(); got != last {
		t.Fatalf("engine epoch %d, want %d", got, last)
	}
}
