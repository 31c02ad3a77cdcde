// Package fault is the deterministic fault-injection harness behind
// `simserve -fault` and simserve's storm test: a seeded Injector parsed
// from a compact spec string decides, at named points in the serving path,
// whether to panic, sleep, or fail an I/O read. Every decision is drawn
// from a per-point counter-driven PRNG stream — no clocks, no global rand —
// so the same (seed, spec) pair replays the identical fault schedule, by
// draw index, on every run, which is what lets a test assert that faults
// fired and that availability and certificates held instead of flaking.
//
// Spec grammar (comma-separated entries):
//
//	point:rate[:delay]
//
// where point is a dotted site.action name (see the Point* constants), rate
// is either a firing probability in [0,1] or the token trigger "xN" (fire
// the first N draws, then never — the clock-free way to script "the first
// two snapshot reads fail, the third succeeds"), and delay is a
// time.ParseDuration string for the slow-action points.
//
// Example: "kernel.panic:0.02,kernel.slow:0.1:2ms,snapshot.err:x2".
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The injection points the serving path fires. Sites fire every action
// registered for them: an engine kernel entry consults kernel.slow then
// kernel.panic; each snapshot read consults snapshot.slow then snapshot.err.
const (
	// PointKernelPanic panics at kernel entry — exercises the engine's and
	// the worker pools' recover-and-quarantine paths.
	PointKernelPanic = "kernel.panic"
	// PointKernelSlow sleeps at kernel entry — an artificial slow sweep that
	// drives deadline overruns and admission-queue pressure.
	PointKernelSlow = "kernel.slow"
	// PointSnapshotErr fails a snapshot read with ErrInjected — exercises
	// warm-restart validation and retry.
	PointSnapshotErr = "snapshot.err"
	// PointSnapshotSlow delays a snapshot read.
	PointSnapshotSlow = "snapshot.slow"
)

// ErrInjected is the error returned by injected I/O failures.
var ErrInjected = errors.New("fault: injected error")

// rule is one parsed spec entry.
type rule struct {
	prob  float64       // firing probability per draw, when first == 0
	first uint64        // "xN": fire draws 1..N, then never
	delay time.Duration // sleep when firing, for the slow actions
}

// pointState is the deterministic draw stream of one point.
type pointState struct {
	rng   uint64 // splitmix64 state
	draws uint64
	fired uint64
}

// Injector decides fault firings. The zero value and the nil pointer are
// inert: every method on a nil *Injector is a no-op, so call sites wire the
// hook unconditionally and pay one nil check when injection is off.
type Injector struct {
	seed  uint64
	mu    sync.Mutex
	rules map[string]*rule
	state map[string]*pointState
}

// Parse builds an Injector from a spec string (see the package comment for
// the grammar). An empty spec yields a nil Injector, which is valid and
// inert.
func Parse(seed uint64, spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	in := &Injector{
		seed:  seed,
		rules: make(map[string]*rule),
		state: make(map[string]*pointState),
	}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		fields := strings.Split(entry, ":")
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("fault: entry %q: want point:rate[:delay]", entry)
		}
		point := strings.TrimSpace(fields[0])
		if point == "" || !strings.Contains(point, ".") {
			return nil, fmt.Errorf("fault: entry %q: point must be a dotted site.action name", entry)
		}
		var r rule
		rateStr := strings.TrimSpace(fields[1])
		if n, ok := strings.CutPrefix(rateStr, "x"); ok {
			first, err := strconv.ParseUint(n, 10, 64)
			if err != nil || first == 0 {
				return nil, fmt.Errorf("fault: entry %q: bad token trigger %q", entry, rateStr)
			}
			r.first = first
		} else {
			prob, err := strconv.ParseFloat(rateStr, 64)
			if err != nil || prob < 0 || prob > 1 {
				return nil, fmt.Errorf("fault: entry %q: rate must be a probability in [0,1] or xN", entry)
			}
			r.prob = prob
		}
		if len(fields) == 3 {
			d, err := time.ParseDuration(strings.TrimSpace(fields[2]))
			if err != nil || d < 0 {
				return nil, fmt.Errorf("fault: entry %q: bad delay %q", entry, fields[2])
			}
			r.delay = d
		}
		if _, dup := in.rules[point]; dup {
			return nil, fmt.Errorf("fault: duplicate point %q", point)
		}
		in.rules[point] = &r
	}
	return in, nil
}

// splitmix64 is the per-point PRNG step: tiny, seedable, and good enough to
// decorrelate firing schedules across points.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Fire draws the point's next decision: whether it fires, and the configured
// delay when it does. Points without a rule never fire and record nothing.
func (in *Injector) Fire(point string) (bool, time.Duration) {
	if in == nil {
		return false, 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	r, ok := in.rules[point]
	if !ok {
		return false, 0
	}
	st, ok := in.state[point]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(point))
		st = &pointState{rng: in.seed ^ h.Sum64()}
		in.state[point] = st
	}
	st.draws++
	fired := false
	if r.first > 0 {
		fired = st.draws <= r.first
	} else {
		st.rng = splitmix64(st.rng)
		// Top 53 bits → uniform float64 in [0, 1).
		u := float64(st.rng>>11) / (1 << 53)
		fired = u < r.prob
	}
	if fired {
		st.fired++
	}
	return fired, r.delay
}

// Hook adapts the injector to the engine's fault-hook shape: a call with a
// site name consults the site's slow rule (sleeping through the configured
// delay) and then its panic rule (panicking with an identifiable message).
// A nil Injector returns a nil hook.
func (in *Injector) Hook() func(site string) {
	if in == nil {
		return nil
	}
	return func(site string) {
		if fired, d := in.Fire(site + ".slow"); fired && d > 0 {
			time.Sleep(d)
		}
		if fired, _ := in.Fire(site + ".panic"); fired {
			panic("fault: injected panic at " + site)
		}
	}
}

// Reader wraps r so every Read consults snapshot.slow (delaying) and
// snapshot.err (failing with ErrInjected). A nil Injector returns r
// unchanged.
func (in *Injector) Reader(r io.Reader) io.Reader {
	if in == nil {
		return r
	}
	return &faultReader{in: in, r: r}
}

type faultReader struct {
	in *Injector
	r  io.Reader
}

func (fr *faultReader) Read(p []byte) (int, error) {
	if fired, d := fr.in.Fire(PointSnapshotSlow); fired && d > 0 {
		time.Sleep(d)
	}
	if fired, _ := fr.in.Fire(PointSnapshotErr); fired {
		return 0, ErrInjected
	}
	return fr.r.Read(p)
}

// Counts reports, per configured point, how many draws fired so far — the
// injector's own ledger, used by tests to cross-check the schedule actually
// exercised.
func (in *Injector) Counts() map[string]uint64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]uint64, len(in.state))
	for p, st := range in.state {
		out[p] = st.fired
	}
	return out
}

// String renders the configured points in sorted order, for logs.
func (in *Injector) String() string {
	if in == nil {
		return "<no faults>"
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	points := make([]string, 0, len(in.rules))
	for p := range in.rules {
		points = append(points, p)
	}
	sort.Strings(points)
	return strings.Join(points, ",")
}
