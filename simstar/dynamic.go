package simstar

import (
	"io"
	"time"

	"repro/internal/dyngraph"
	"repro/internal/sparse"
)

// This file is the dynamic-graph surface of the API: streamed edge
// mutations against a live Engine, versioned by epoch, with incremental
// refresh of the preprocessed structures. The write path (ApplyEdits) and
// the read path (queries) are isolated from each other — see the Engine
// doc comment and ARCHITECTURE.md for the design.

// Edit is one streamed edge mutation: an insertion or removal of a directed
// edge, identified by dense node ids. Build them with InsertEdge and
// DeleteEdge.
type Edit = dyngraph.Edit

// EditOp is the kind of an Edit: EditInsert or EditDelete.
type EditOp = dyngraph.Op

// The two edit kinds.
const (
	// EditInsert adds the edge (a no-op if it already exists).
	EditInsert EditOp = dyngraph.OpInsert
	// EditDelete removes the edge (a no-op if it does not exist).
	EditDelete EditOp = dyngraph.OpDelete
)

// InsertEdge returns an edit inserting the directed edge u→v. Inserting an
// edge whose endpoints lie past the current node range grows the graph,
// exactly as the GraphBuilder would.
func InsertEdge(u, v int) Edit { return dyngraph.Insert(u, v) }

// DeleteEdge returns an edit removing the directed edge u→v.
func DeleteEdge(u, v int) Edit { return dyngraph.Delete(u, v) }

// ReadEdits parses a mutation stream ("+ u v" / "- u v" per line, '#'
// comments) — the format cmd/gengraph -edits emits.
func ReadEdits(r io.Reader) ([]Edit, error) { return dyngraph.ReadEdits(r) }

// WriteEdits serialises a mutation stream in the format ReadEdits parses.
func WriteEdits(w io.Writer, edits []Edit) error { return dyngraph.WriteEdits(w, edits) }

// GraphSnapshot is the engine's current graph version: the immutable graph
// being served and its epoch number.
type GraphSnapshot struct {
	// Graph is the immutable graph of the served epoch.
	Graph *Graph
	// Epoch is the version number of the served graph.
	Epoch uint64
}

// EditStats reports what one ApplyEdits call did.
type EditStats struct {
	// Epoch is the graph version being served after the call.
	Epoch uint64
	// Applied is the number of edits in the accepted batch.
	Applied int
	// Inserted and Removed count the edges the batch actually added and
	// removed (no-op edits — inserting a present edge, deleting an absent
	// one — are never counted).
	Inserted, Removed int
	// Refreshed reports whether this call swapped in a new epoch state:
	// false exactly when the batch left the graph unchanged.
	Refreshed bool
	// RefreshTime is what the incremental state refresh cost, when
	// Refreshed: the transition-matrix splice. The new epoch's bicliques
	// are not mined here, but by its first memo all-pairs run or
	// Engine.Compression call.
	RefreshTime time.Duration
	// Nodes and Edges are the size of the served graph after the call.
	Nodes, Edges int
}

// ApplyEdits applies a batch of edge mutations to the served graph. The
// batch is atomic: an invalid edit (a negative node id, or one past int32)
// rejects the whole batch and changes nothing. A batch that changes the
// graph materialises a new graph epoch and swaps in an
// incrementally-refreshed state — only transition-matrix rows whose
// neighbourhoods changed are recomputed, everything else is reused — after
// which queries (including the result cache, which keys on the epoch) see
// the new graph. A batch of no-op edits keeps the epoch, and with it the
// cache.
//
// Scores computed on the refreshed epoch are bitwise-identical to those of
// an engine built from scratch on the mutated graph, for every measure.
//
// Queries already in flight keep the epoch they started with; edits never
// block queries. Edits applied through engines derived With are visible to
// the whole family, which shares one store. Concurrent ApplyEdits calls are
// serialised internally.
func (e *Engine) ApplyEdits(edits ...Edit) (EditStats, error) {
	e.editMu.Lock()
	defer e.editMu.Unlock()
	res, err := e.store.Apply(edits)
	if err != nil {
		return EditStats{}, err
	}
	stats := EditStats{Applied: len(edits)}
	if res.Materialized {
		// editMu is held, so the loaded state is exactly the snapshot the
		// delta was spliced against.
		old := e.state.Load()
		g := res.Snapshot.Graph
		// The new epoch inherits the old one's scratch pools, warm arenas
		// included, unless the edits grew the graph: arenas of the old
		// dimension must never reach a kernel of the new one. In-flight
		// queries on the old state keep returning scratch to the set they
		// borrowed from.
		pools := old.pools
		if g.N() != old.g.N() {
			pools = newScratchPools(g.N(), e.cfg.observer)
		}
		ns := &engineState{g: g, epoch: res.Snapshot.Epoch, miner: old.miner, pools: pools}
		t0 := time.Now()
		ns.backward = sparse.UpdateBackwardTransition(old.backward, g, res.Delta.DirtyIn)
		ns.forward = sparse.UpdateForwardTransition(old.forward, g, res.Delta.DirtyOut)
		ns.transitionTime = time.Since(t0)
		e.state.Store(ns)
		stats.Refreshed = true
		stats.RefreshTime = time.Since(t0)
		stats.Inserted = res.Delta.Inserted
		stats.Removed = res.Delta.Removed
	}
	st := e.state.Load()
	stats.Epoch = st.epoch
	stats.Nodes = st.g.N()
	stats.Edges = st.g.M()
	return stats, nil
}

// Snapshot returns the engine's current graph version. The graph is
// immutable: it is safe to read from any goroutine while edits continue.
func (e *Engine) Snapshot() GraphSnapshot {
	st := e.load()
	return GraphSnapshot{Graph: st.g, Epoch: st.epoch}
}

// Epoch returns the graph version currently served.
func (e *Engine) Epoch() uint64 { return e.load().epoch }

// WriteSnapshot persists the currently-served graph and its epoch in the
// binary snapshot format, so a server can warm-restart with ReadSnapshot +
// NewEngine(g, WithBaseEpoch(epoch)) without replaying any mutations. The
// returned GraphSnapshot is exactly the version written — with mutations
// racing the call, that may already differ from a fresh Snapshot(), so
// callers reporting what they persisted must use the return value.
func (e *Engine) WriteSnapshot(w io.Writer) (GraphSnapshot, error) {
	st := e.load()
	err := dyngraph.WriteSnapshot(w, dyngraph.Snapshot{Graph: st.g, Epoch: st.epoch})
	if err != nil {
		return GraphSnapshot{}, err
	}
	return GraphSnapshot{Graph: st.g, Epoch: st.epoch}, nil
}

// ReadSnapshot parses a binary snapshot written by WriteSnapshot, returning
// the graph and the epoch it was persisted at.
func ReadSnapshot(r io.Reader) (*Graph, uint64, error) {
	snap, err := dyngraph.ReadSnapshot(r)
	if err != nil {
		return nil, 0, err
	}
	return snap.Graph, snap.Epoch, nil
}
