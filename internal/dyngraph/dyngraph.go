// Package dyngraph is the dynamic-graph subsystem: a versioned store over
// the immutable CSR graphs the rest of the repository computes on. Each
// batch of streamed edge insertions and removals is validated and spliced
// into a new copy-on-write CSR snapshot, its epoch, so readers always query
// an immutable snapshot while writers never block on queries — the HTAP
// separation of the update path from the analytical path.
//
// The store is the write side; the read side is whatever holds a Snapshot.
// Snapshots are plain immutable graphs tagged with an epoch number, fetched
// with one atomic load, so a query engine can keep serving an old epoch
// while the next one is being spliced, and swap over between requests.
package dyngraph

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Op is the kind of one edge mutation.
type Op uint8

const (
	// OpInsert adds the directed edge U→V (a no-op if present).
	OpInsert Op = iota
	// OpDelete removes the directed edge U→V (a no-op if absent).
	OpDelete
)

// String returns the mutation-stream text form of the op ("+" or "-").
func (o Op) String() string {
	if o == OpDelete {
		return "-"
	}
	return "+"
}

// Edit is one edge mutation in the stream.
type Edit struct {
	Op   Op
	U, V int
}

// Insert returns an insertion edit for the edge u→v.
func Insert(u, v int) Edit { return Edit{Op: OpInsert, U: u, V: v} }

// Delete returns a removal edit for the edge u→v.
func Delete(u, v int) Edit { return Edit{Op: OpDelete, U: u, V: v} }

func (e Edit) op() graph.EdgeOp {
	return graph.EdgeOp{U: e.U, V: e.V, Delete: e.Op == OpDelete}
}

// Snapshot is one immutable materialised version of the graph. Epoch starts
// at the store's base epoch and advances by one per Apply that changed the
// graph.
type Snapshot struct {
	Graph *graph.Graph
	Epoch uint64
}

// Result reports what one Apply call did.
type Result struct {
	// Snapshot is the store's current snapshot after the call.
	Snapshot Snapshot
	// Materialized reports whether this call spliced a new snapshot. False
	// when the batch was a structural no-op (the epoch does not advance
	// then).
	Materialized bool
	// Delta describes the splice when Materialized; nil otherwise.
	Delta *graph.EditDelta
}

// Option configures a Store.
type Option func(*Store)

// WithBaseEpoch numbers the store's initial snapshot, so a store warm-started
// from a persisted epoch continues the sequence instead of restarting at 0.
func WithBaseEpoch(epoch uint64) Option {
	return func(s *Store) { s.base = epoch }
}

// Store is the versioned graph store. One mutex serialises writers; readers
// take the current snapshot with a single atomic load and are never blocked
// by a write in progress.
type Store struct {
	mu   sync.Mutex
	snap atomic.Pointer[Snapshot]
	base uint64
}

// New returns a store whose initial snapshot is base at the configured base
// epoch (0 by default).
func New(base *graph.Graph, opts ...Option) *Store {
	s := &Store{}
	for _, o := range opts {
		o(s)
	}
	s.snap.Store(&Snapshot{Graph: base, Epoch: s.base})
	return s
}

// Snapshot returns the current materialised snapshot: one atomic load, safe
// from any goroutine, never blocked by writers.
func (s *Store) Snapshot() Snapshot { return *s.snap.Load() }

// Apply splices the batch into a new snapshot, advancing the epoch if the
// graph changed. The batch is atomic: any invalid edit (unknown op, or a
// node id that is negative or exceeds int32) rejects the whole batch and
// leaves the store as it was.
func (s *Store) Apply(edits []Edit) (Result, error) {
	ops := make([]graph.EdgeOp, len(edits))
	for i, e := range edits {
		if e.Op != OpInsert && e.Op != OpDelete {
			return Result{}, fmt.Errorf("dyngraph: unknown op %d", e.Op)
		}
		ops[i] = e.op()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.snap.Load()
	ng, delta, err := cur.Graph.ApplyEdits(ops)
	if err != nil {
		return Result{}, err
	}
	if delta.Empty() {
		return Result{Snapshot: *cur}, nil
	}
	next := &Snapshot{Graph: ng, Epoch: cur.Epoch + 1}
	s.snap.Store(next)
	return Result{Snapshot: *next, Materialized: true, Delta: delta}, nil
}
