package main

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between the closest ranks; NaN for no samples. xs is not
// modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), which is how the benchmark's spread is judged. It needs at
// least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n, m := len(s), len(s)+1
	at := func(i int) float64 {
		// Rank i·(n+1)/4, with Python's clamping of the lower rank to
		// 1..n-1 (so tiny samples extrapolate, as Python's do).
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// blockReads is the number of reads in one block of the timed phase: ten
// of them lie beyond each block's p90.
const blockReads = 100

// sample is one timed request as the end-to-end statistics see it.
type sample struct {
	start, lat float64 // ms; start is since the timed phase began
	read       bool    // a query, not an edit
	ok         bool
}

// blockStats cuts the timed phase, in request order, into blocks of
// blockReads reads each, writes riding in the block they fall in and a
// short remainder joining the last block (a run with fewer reads is one
// block). For each block it returns the p50 and p90 of its successful
// reads' latencies and its request rate: its requests divided by the time
// from its first request's start to the next block's, or to wall for the
// last, so the blocks' times add up to the phase.
func blockStats(samples []sample, wall float64) (p50, p90, rate []float64) {
	var cuts []int // index of each block's first sample
	reads := 0
	for i, s := range samples {
		if !s.read {
			continue
		}
		if reads%blockReads == 0 {
			cuts = append(cuts, i)
		}
		reads++
	}
	if len(cuts) == 0 {
		return nil, nil, nil
	}
	cuts[0] = 0
	if reads%blockReads != 0 && len(cuts) > 1 {
		cuts = cuts[:len(cuts)-1]
	}
	for b, from := range cuts {
		to, end := len(samples), wall
		if b+1 < len(cuts) {
			to, end = cuts[b+1], samples[cuts[b+1]].start
		}
		var lat []float64
		for _, s := range samples[from:to] {
			if s.read && s.ok {
				lat = append(lat, s.lat)
			}
		}
		p50 = append(p50, percentile(lat, 50))
		p90 = append(p90, percentile(lat, 90))
		rate = append(rate, float64(to-from)/((end-samples[from].start)/1e3))
	}
	return p50, p90, rate
}

// span is one timed interval of the trace the benchmark keeps in memory
// and writes out when it ends. Request spans are roots; the stages the
// server reports hang below a "server" span covering its total time.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root
	Req    int     `json:"req"`    // index of the op in the stream
	Name   string  `json:"name"`
	Start  float64 `json:"start_us,omitempty"` // roots only: since the phase began
	Dur    float64 `json:"dur_us"`
}

// selfTimes returns each span's duration minus the durations of its
// direct children, by span ID.
func selfTimes(spans []span) map[int]float64 {
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.Dur
		if s.Parent != 0 {
			self[s.Parent] -= s.Dur
		}
	}
	return self
}

// planRoutes counts the routes in a batch trace's plan: one note per
// kernel group, "; "-separated, each starting with its route
// ("blocked b=3 chunk=8; fanout b=1").
func planRoutes(plan string) map[string]int {
	routes := make(map[string]int)
	for _, note := range strings.Split(plan, ";") {
		if f := strings.Fields(note); len(f) > 0 {
			routes[f[0]]++
		}
	}
	return routes
}

// parsePrometheus reads the text exposition format into
// "name{labels}" → value, skipping comments.
func parsePrometheus(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
