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
// being served, its epoch number, and how many accepted edits are still
// pending materialisation (non-zero only under WithEpochInterval > 1).
type GraphSnapshot struct {
	// Graph is the immutable graph of the served epoch.
	Graph *Graph
	// Epoch is the version number of the served graph.
	Epoch uint64
	// Pending counts accepted edits not yet materialised into an epoch.
	Pending int
}

// EditStats reports what one ApplyEdits or Refresh call did.
type EditStats struct {
	// Epoch is the graph version being served after the call.
	Epoch uint64
	// Applied is the number of edits this call accepted into the delta log.
	Applied int
	// Pending is the number of accepted edits not yet materialised.
	Pending int
	// Inserted and Removed count the edges actually added/removed by the
	// materialisation this call triggered (0 when nothing materialised, and
	// no-op edits — inserting a present edge, deleting an absent one — are
	// never counted).
	Inserted, Removed int
	// Refreshed reports whether this call swapped in a new epoch state.
	Refreshed bool
	// RefreshTime is what the incremental state refresh cost, when
	// Refreshed: the transition-matrix splice, but not the biclique
	// re-mining, which is deferred to the first memo query of the epoch.
	RefreshTime time.Duration
	// Nodes and Edges are the size of the served graph after the call.
	Nodes, Edges int
}

// ApplyEdits streams a batch of edge mutations into the engine's versioned
// store. The batch is atomic: an invalid edit (negative node id) rejects the
// whole batch. By default every call materialises a new graph epoch and
// swaps in an incrementally-refreshed state — only transition-matrix rows
// whose neighbourhoods changed are recomputed, everything else is reused —
// after which queries (including the result cache, which keys on the epoch)
// see the new graph. Under WithEpochInterval(n) edits accumulate and
// materialise once n are pending, or on Refresh.
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
	return e.finishEdits(res), nil
}

// Refresh materialises any pending edits into a new epoch immediately,
// regardless of the epoch interval. With nothing pending it is a no-op.
func (e *Engine) Refresh() (EditStats, error) {
	e.editMu.Lock()
	defer e.editMu.Unlock()
	res, err := e.store.Flush()
	if err != nil {
		return EditStats{}, err
	}
	return e.finishEdits(res), nil
}

// finishEdits swaps in the refreshed state for a materialised store result
// and assembles the stats. Caller holds editMu, so the loaded state is
// exactly the snapshot the delta was spliced against.
func (e *Engine) finishEdits(res dyngraph.Result) EditStats {
	stats := EditStats{Applied: res.Applied, Pending: res.Pending}
	if res.Materialized {
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
		ns := newEngineState(g, res.Snapshot.Epoch, pools)
		t0 := time.Now()
		ns.backward = sparse.UpdateBackwardTransition(old.backward, g, res.Delta.DirtyIn)
		ns.forward = sparse.UpdateForwardTransition(old.forward, g, res.Delta.DirtyOut)
		// Re-derive the cache-conscious layout for the mutated graph: the
		// incremental splice above works in natural order, and the permuted
		// operators are rebuilt from it. The old state's mode (not the
		// calling engine's config) carries forward, so engines derived
		// through With can never flip a shared state's layout.
		ns.layout = newLayoutState(old.layoutMode(), g, ns.backward, ns.forward)
		ns.transitionTime = time.Since(t0)
		// Mining is the expensive half of preprocessing; defer it so the
		// update path stays fast and non-memo queries never pay it. The old
		// epoch's mined result rides along so Stats keeps reporting the most
		// recently mined figures until this epoch mines its own.
		ns.comp = newCompHolder(g, e.cfg.miner.internal(), old.comp.peek())
		e.state.Store(ns)
		stats.Refreshed = true
		stats.RefreshTime = time.Since(t0)
		stats.Inserted = res.Delta.Inserted
		stats.Removed = res.Delta.Removed
	}
	if res.Applied > 0 || res.Materialized {
		// The engine exposes no delta-log reader and WriteSnapshot persists
		// whole epochs, so materialised log entries have no consumer here —
		// compact them away or a long-lived mutation workload would leak one
		// entry per edit forever. Pending (unmaterialised) entries survive,
		// as does anything accepted on top of the current epoch.
		e.store.Compact(e.state.Load().epoch)
	}
	st := e.state.Load()
	stats.Epoch = st.epoch
	stats.Nodes = st.g.N()
	stats.Edges = st.g.M()
	return stats
}

// Snapshot returns the engine's current graph version. The graph is
// immutable: it is safe to read from any goroutine while edits continue.
func (e *Engine) Snapshot() GraphSnapshot {
	st := e.load()
	return GraphSnapshot{Graph: st.g, Epoch: st.epoch, Pending: e.store.Pending()}
}

// Epoch returns the graph version currently served.
func (e *Engine) Epoch() uint64 { return e.load().epoch }

// WriteSnapshot persists the currently-served graph and its epoch in the
// binary snapshot format, so a server can warm-restart with ReadSnapshot +
// NewEngine(g, WithBaseEpoch(epoch)) without replaying the delta log.
// Pending (unmaterialised) edits are not included; call Refresh first if
// they must be. The returned GraphSnapshot is exactly the version written
// — with mutations racing the call, that may already differ from a fresh
// Snapshot(), so callers reporting what they persisted must use the return
// value.
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
