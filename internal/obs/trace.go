package obs

import "time"

// Span is one timed stage of a query trace.
type Span struct {
	// Stage names the lifecycle stage: "plan", "cache", "kernel" and
	// "select" for one query; "batch" (the engine call) and "assemble" for
	// a request-level batch trace; "stream" for an NDJSON emission loop.
	Stage string `json:"stage"`
	// DurationUs is the stage's wall time in microseconds.
	DurationUs float64 `json:"duration_us"`
}

// KernelTrace is the kernel-reported detail of one query: what the sweep
// loops, the sieve and the workspace arena actually did. It is the sink
// the WS/Into kernel paths fill when tracing is on — threaded as a nilable
// pointer (core.Options.Trace, rwr.Options.Trace, sparse.CertBudget.Trace)
// whose call sites guard with an explicit nil check so the disabled path
// costs one branch and zero allocations (enforced by simlint's obsnoop).
//
// Methods on a non-nil receiver are plain field updates; a KernelTrace is
// per-query and never written concurrently.
type KernelTrace struct {
	// Sweeps counts matrix-sweep iterations the kernels ran.
	Sweeps int `json:"sweeps"`
	// FrontierMax is the widest sparse frontier a sieved kernel carried
	// (0 for exact dense kernels, whose frontier is implicitly n).
	FrontierMax int `json:"frontier_max,omitempty"`
	// FrontierLast is the frontier width at the final sweep.
	FrontierLast int `json:"frontier_last,omitempty"`
	// SievePoints counts sieve invocations that charged the error budget.
	SievePoints int `json:"sieve_points,omitempty"`
	// SieveSpend is the total certified error mass the sieves dropped —
	// the CertBudget spend backing the query's MaxError.
	SieveSpend float64 `json:"sieve_spend,omitempty"`
	// Certificate is the kernel's certified |approx-exact| bound
	// (0 for exact kernels).
	Certificate float64 `json:"certificate,omitempty"`
	// WorkspaceGrew counts arena buffers the workspace allocated during the
	// query — non-zero only on a pool miss or first use, the pooled
	// steady state reuses every buffer.
	WorkspaceGrew int `json:"workspace_grew,omitempty"`
}

// Reset zeroes the trace for reuse.
func (t *KernelTrace) Reset() {
	if t == nil {
		return
	}
	*t = KernelTrace{}
}

// AddSweeps records n completed sweep iterations.
func (t *KernelTrace) AddSweeps(n int) {
	if t == nil {
		return
	}
	t.Sweeps += n
}

// ObserveFrontier records one sweep's sparse-frontier width.
func (t *KernelTrace) ObserveFrontier(n int) {
	if t == nil {
		return
	}
	if n > t.FrontierMax {
		t.FrontierMax = n
	}
	t.FrontierLast = n
}

// AddSieveSpend records one sieve's certified dropped mass.
func (t *KernelTrace) AddSieveSpend(spent float64) {
	if t == nil {
		return
	}
	t.SievePoints++
	t.SieveSpend += spent
}

// Trace is the structured record of one query's path through the engine:
// which stages ran, how long each took, whether the result cache answered,
// and what the kernels reported. simstar fills it for a batch query that
// carries one in Query.Trace; cmd/simserve embeds it in JSON responses
// under ?trace=1.
type Trace struct {
	// Measure is the canonical measure name the query resolved to.
	Measure string `json:"measure"`
	// Node is the query node; -1 for request-level traces that cover many
	// nodes (batch).
	Node int `json:"node"`
	// K is the ranking size for top-k queries, 0 otherwise.
	K int `json:"k,omitempty"`
	// Queries is the slot count for batch-level traces, 0 otherwise.
	Queries int `json:"queries,omitempty"`
	// Epoch is the graph version the query was answered against.
	Epoch uint64 `json:"epoch"`
	// Cached reports whether the result came from the result cache.
	Cached bool `json:"cached"`
	// Plan records the execution route a single query took — "cache",
	// "exact" or "sieved". Batch-level traces carry no plan: every batch
	// query takes the single-query route.
	Plan string `json:"plan,omitempty"`
	// MaxError is the certified error bound of the answer (0 = exact).
	MaxError float64 `json:"max_error"`
	// Spans are the timed stages in execution order.
	Spans []Span `json:"spans"`
	// Kernel is the kernel-reported detail; zero-valued when the cache
	// answered and no kernel ran.
	Kernel KernelTrace `json:"kernel"`
	// TotalUs is the end-to-end time in microseconds, covering the spans
	// and everything between them.
	TotalUs float64 `json:"total_us"`
}

// AddSpan appends one timed stage.
func (t *Trace) AddSpan(stage string, d time.Duration) {
	t.Spans = append(t.Spans, Span{Stage: stage, DurationUs: us(d)})
}

// Finish stamps the trace's end-to-end time from its start instant.
func (t *Trace) Finish(start time.Time) {
	t.TotalUs = us(time.Since(start))
}

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
