package simstar

import (
	"context"
	"errors"
	"time"

	"repro/internal/obs"
)

// This file is the engine's observability surface: the Observer that
// aggregates query/cache/kernel counters into an obs.Registry. A structured
// per-stage record of one query comes from Query.Trace, which MultiSource
// and BatchTopK fill. The hooks threading through the serving paths are
// nilable and explicitly guarded, so an engine without an observer pays one
// branch per hook and the //simstar:noalloc paths stay allocation-free with
// observation on or off (asserted in observe_test.go, enforced by simlint's
// obsnoop analyzer).

// Observer aggregates an engine's serving metrics into an obs.Registry:
// queries by kind, result-cache hits and misses, kernel sweep counts and
// wall time, certified sieve spend, and workspace-pool behaviour. One
// Observer may be shared by several engines (their counts merge) and by the
// serving layer on top (cmd/simserve registers its HTTP metrics in the same
// registry); all updates are lock-free and safe under full concurrency.
type Observer struct {
	reg *obs.Registry

	qSingle   *obs.Counter
	qBatch    *obs.Counter
	qAllPairs *obs.Counter

	cacheHits   *obs.Counter
	cacheMisses *obs.Counter

	sweeps     *obs.Counter
	sieveSpend *obs.FloatCounter
	poolMisses *obs.Counter

	deadlineExceeded *obs.Counter

	kernelSeconds *obs.Histogram
	cancelLatency *obs.Histogram
}

// NewObserver builds an Observer registering its metric families in reg
// (nil means a fresh private registry, read back through Registry). The
// families:
//
//	simstar_queries_total{kind}            counter   queries served, by engine call (single_source, batch, all_pairs)
//	simstar_cache_hits_total               counter   result-cache hits
//	simstar_cache_misses_total             counter   result-cache misses
//	simstar_kernel_sweeps_total            counter   kernel matrix sweeps
//	simstar_sieve_spend_total              counter   certified sieve error mass
//	simstar_workspace_pool_misses_total    counter   pool-miss workspace builds
//	simstar_deadline_exceeded_total        counter   queries and all-pairs runs failed by an expired deadline
//	simstar_kernel_seconds                 histogram kernel wall time per query
//	simstar_cancel_latency_seconds         histogram overrun past an expired deadline
//
// Registration is idempotent per (name, labels), so two observers over one
// registry share the underlying counters.
func NewObserver(reg *obs.Registry) *Observer {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	o := &Observer{reg: reg}
	const qName = "simstar_queries_total"
	const qHelp = "Queries served, by engine call: single_source counts SingleSource, SingleSourceCertified, SingleSourceInto and TopK calls, batch counts every query of MultiSource/BatchTopK, all_pairs counts AllPairs calls."
	o.qSingle = reg.Counter(qName, qHelp, obs.Label{Name: "kind", Value: "single_source"})
	o.qBatch = reg.Counter(qName, qHelp, obs.Label{Name: "kind", Value: "batch"})
	o.qAllPairs = reg.Counter(qName, qHelp, obs.Label{Name: "kind", Value: "all_pairs"})
	o.cacheHits = reg.Counter("simstar_cache_hits_total",
		"Single-source result-cache hits, exact-donor hits included.")
	o.cacheMisses = reg.Counter("simstar_cache_misses_total",
		"Single-source result-cache misses.")
	o.sweeps = reg.Counter("simstar_kernel_sweeps_total",
		"Matrix-sweep iterations the single-source kernels ran.")
	o.sieveSpend = reg.FloatCounter("simstar_sieve_spend_total",
		"Certified error mass the approximate kernels' sieves dropped.")
	o.poolMisses = reg.Counter("simstar_workspace_pool_misses_total",
		"Kernel workspaces allocated because the per-epoch pool had none to reuse.")
	o.deadlineExceeded = reg.Counter("simstar_deadline_exceeded_total",
		"Queries that failed with context.DeadlineExceeded because their deadline (WithDeadline or a caller deadline) expired before or during the run, counted once per distinct query of a batch and once per AllPairs call.")
	o.kernelSeconds = reg.Histogram("simstar_kernel_seconds",
		"Kernel wall time per uncached single-source query, in seconds.",
		obs.LatencyBuckets)
	o.cancelLatency = reg.Histogram("simstar_cancel_latency_seconds",
		"How far past its expired deadline a query kept running before the kernels' amortised cancellation polls aborted it, in seconds.",
		obs.CancelLatencyBuckets)
	return o
}

// Registry returns the registry the observer's metrics live in — the thing
// to render with WritePrometheus or merge server-level metrics into.
func (o *Observer) Registry() *obs.Registry { return o.reg }

// recordKernel folds one uncached query's kernel-reported detail and wall
// time into the aggregates. kt may be nil (a caller observing only
// latency); callers guard o themselves — the method assumes a non-nil
// receiver so the hot path pays exactly one branch when observation is off.
func (o *Observer) recordKernel(kt *obs.KernelTrace, d time.Duration) {
	if kt != nil {
		if kt.Sweeps > 0 {
			o.sweeps.Add(uint64(kt.Sweeps))
		}
		if kt.SieveSpend > 0 {
			o.sieveSpend.Add(kt.SieveSpend)
		}
	}
	o.kernelSeconds.Observe(d.Seconds())
}

// observeCancel folds a query's deadline outcome into the aggregates: when
// err is the context's DeadlineExceeded, the abort is counted and the
// overrun — how far past the deadline the query actually stopped, the
// latency the amortised kernel polls bound — lands in the cancel-latency
// histogram. Nil-safe on both the observer and the error, so serving paths
// call it unconditionally on their error returns.
func (o *Observer) observeCancel(ctx context.Context, err error) {
	if o == nil || !errors.Is(err, context.DeadlineExceeded) {
		return
	}
	o.deadlineExceeded.Inc()
	if dl, ok := ctx.Deadline(); ok {
		o.cancelLatency.Observe(time.Since(dl).Seconds())
	}
}

// Metrics returns the engine's observer: the one WithObserver configured,
// or nil when the engine runs unobserved.
func (e *Engine) Metrics() *Observer { return e.cfg.observer }
