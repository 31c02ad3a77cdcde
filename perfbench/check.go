package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/simstar"
)

// checkSample is how many reads, besides every tolerance read, the answer
// check replays per run.
const checkSample = 48

// scoreTol is how far a replayed score may differ from the server's.
const scoreTol = 1e-9

// slot addresses one query of one op.
type slot struct{ op, q int }

// checkSlots picks the reads the answer check replays: every tolerance
// read plus a seed-chosen sample of checkSample others.
func checkSlots(ops []op, seed int64) map[slot]bool {
	picked := make(map[slot]bool)
	var others []slot
	for i, o := range ops {
		for j, q := range o.Q {
			if q.Class == classSieve {
				picked[slot{i, j}] = true
			} else {
				others = append(others, slot{i, j})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	rng.Shuffle(len(others), func(a, b int) { others[a], others[b] = others[b], others[a] })
	for _, s := range others[:min(checkSample, len(others))] {
		picked[s] = true
	}
	return picked
}

// expected is the in-process answer to one query at one point of the edit
// script.
type expected struct {
	top   []simstar.Ranked
	exact []float64 // the exact scores, for tolerance reads' certificates
}

type expectKey struct {
	q     query
	edits int // edit requests applied before the read
}

// checker replays reads on an in-process engine built on g100k with the
// result cache off, applying the run's edit script at the same positions.
type checker struct {
	eng  *simstar.Engine
	memo map[expectKey]*expected
}

func newChecker(g *graph.Graph) *checker {
	return &checker{
		eng:  simstar.NewEngine(g, simstar.WithCacheSize(-1)),
		memo: make(map[expectKey]*expected),
	}
}

func (c *checker) expect(ctx context.Context, k expectKey) (*expected, error) {
	if e, ok := c.memo[k]; ok {
		return e, nil
	}
	e := &expected{}
	m, node := k.q.Class.measure(), k.q.Node
	if k.q.Class == classSieve {
		scores, err := c.eng.With(simstar.WithTolerance(tolerance)).SingleSource(ctx, m, node)
		if err != nil {
			return nil, err
		}
		e.top = simstar.TopK(scores, topK, node)
		if e.exact, err = c.eng.SingleSource(ctx, m, node); err != nil {
			return nil, err
		}
	} else {
		var err error
		if e.top, err = c.eng.TopK(ctx, m, node, topK); err != nil {
			return nil, err
		}
	}
	c.memo[k] = e
	return e, nil
}

// compare checks one server answer: top-k ids exactly, scores within
// scoreTol, and for a tolerance read the certificate: maxError at most the
// tolerance and |approx − exact| ≤ maxError on every returned entry.
func compare(q query, got answer, want *expected) error {
	if len(got.Top) != len(want.top) {
		return fmt.Errorf("%d entries, want %d", len(got.Top), len(want.top))
	}
	for i, r := range got.Top {
		w := want.top[i]
		if r.Node != w.Node {
			return fmt.Errorf("rank %d is node %d, want %d", i, r.Node, w.Node)
		}
		if math.Abs(r.Score-w.Score) > scoreTol {
			return fmt.Errorf("rank %d score %.17g, want %.17g", i, r.Score, w.Score)
		}
	}
	if q.Class != classSieve {
		return nil
	}
	if got.MaxError > tolerance {
		return fmt.Errorf("maxError %g exceeds the tolerance %g", got.MaxError, tolerance)
	}
	for _, r := range got.Top {
		if d := math.Abs(r.Score - want.exact[r.Node]); d > got.MaxError {
			return fmt.Errorf("node %d: |approx−exact| = %g exceeds maxError %g", r.Node, d, got.MaxError)
		}
	}
	return nil
}

// checkRuns replays the picked reads once and compares every phase's
// answers against them; a mismatch becomes the request's error. It returns
// how many answers were compared.
func (c *checker) checkRuns(ctx context.Context, ops []op, picked map[slot]bool, phases []*phaseOut) (int, error) {
	compared, edits := 0, 0
	for i, o := range ops {
		if o.Kind == opEdit {
			if _, err := c.eng.ApplyEdits(o.edits()...); err != nil {
				return compared, fmt.Errorf("replaying edit %d: %w", i, err)
			}
			edits++
			continue
		}
		for j, q := range o.Q {
			if !picked[slot{i, j}] {
				continue
			}
			want, err := c.expect(ctx, expectKey{q, edits})
			if err != nil {
				return compared, fmt.Errorf("replaying op %d: %w", i, err)
			}
			for _, ph := range phases {
				r := &ph.results[i]
				if r.Err != nil {
					continue
				}
				compared++
				if err := compare(q, r.Answers[j], want); err != nil {
					r.Err = fmt.Errorf("wrong answer to %s node %d: %w", q.Class.measure(), q.Node, err)
				}
			}
		}
	}
	return compared, nil
}
