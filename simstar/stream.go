package simstar

import "context"

// TopKStream is a lazily-consumed top-k result: the k selected entries,
// already in final order (score descending, ties by ascending node id),
// handed out one at a time. The entries are identical — order, scores,
// tie-breaks — to what Engine.TopK returns for the same query, because both
// select from the same single-source vector; the stream is that answer in
// iterator form, for consumers that emit entries as they go.
//
// A stream is single-consumer and not safe for concurrent use. See
// ARCHITECTURE.md for the lifecycle.
type TopKStream struct {
	ranked []Ranked
	pos    int
	maxErr float64
	cached bool
}

// Next returns the next entry best-first, and false once the stream is
// drained.
func (s *TopKStream) Next() (Ranked, bool) {
	if s.pos >= len(s.ranked) {
		return Ranked{}, false
	}
	r := s.ranked[s.pos]
	s.pos++
	return r, true
}

// Len reports the total number of entries the stream was created with,
// consumed or not.
func (s *TopKStream) Len() int { return len(s.ranked) }

// MaxError is the certified element-wise bound on how far the underlying
// scores can be from the exact kernels at the query's parameters: 0 for
// exact queries, at most the configured tolerance under WithTolerance.
func (s *TopKStream) MaxError() float64 { return s.maxErr }

// Cached reports whether the underlying scores came from the engine's
// result cache rather than a kernel run.
func (s *TopKStream) Cached() bool { return s.cached }

// Collect drains the remaining entries into a slice. The returned slice
// aliases the stream's storage; it is the caller's once the stream is
// abandoned.
func (s *TopKStream) Collect() []Ranked {
	r := s.ranked[s.pos:]
	s.pos = len(s.ranked)
	return r
}

// TopKStream answers the same query as Engine.TopK — the k nodes most
// similar to q under the named measure, excluding q and any nodes in exclude
// — as a lazy stream. It takes TopK's read path: one result-cache probe,
// the kernel on a miss and the cache fill, then selection straight from the
// shared score vector. A stream therefore fills the cache like every other
// read, and a stream, TopK or SingleSource of the same query is a hit after
// any one of them. Streams count under simstar_queries_total{kind="stream"}.
func (e *Engine) TopKStream(ctx context.Context, measureName string, q, k int, exclude ...int) (*TopKStream, error) {
	if o := e.cfg.observer; o != nil {
		o.qStream.Inc()
	}
	// count=false: already counted under kind=stream above.
	scores, maxErr, cached, err := e.singleSourceObs(ctx, e.load(), measureName, q, false, nil)
	if err != nil {
		return nil, err
	}
	top := TopK(scores, k, append([]int{q}, exclude...)...)
	return &TopKStream{ranked: top, maxErr: maxErr, cached: cached}, nil
}
