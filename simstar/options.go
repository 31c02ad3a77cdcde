package simstar

import (
	"time"

	"repro/internal/biclique"
	"repro/internal/core"
	"repro/internal/prank"
	"repro/internal/rwr"
	"repro/internal/simrank"
	"repro/internal/sparse"
	"repro/internal/sparsesim"
)

// Option configures a Measure or an Engine. The one functional-option set
// replaces the per-package options structs the measures used to take; each
// measure reads the fields it understands and ignores the rest.
type Option func(*config)

// config carries every tunable across the measure family. Zero values mean
// "use the paper's default" (C=0.6, K=5, λ=0.5, δ=1e-4), resolved by each
// measure's own defaulting so simstar and direct internal calls agree.
type config struct {
	c         float64
	k         int
	eps       float64
	sieve     float64
	tolerance float64
	lambda    float64
	delta     float64
	rank      int
	miner     MinerOptions
	// Engine-only knobs. These shape how queries are served, never what
	// they return, and are therefore excluded from result-cache keys
	// (see (config).cacheParams). The graph *content* a query sees is
	// versioned separately, by the epoch field of the cache key.
	workers   int
	cacheSize int
	baseEpoch uint64
	observer  *Observer
	deadline  time.Duration
	fault     *faultHook
}

// cacheParams strips the serving knobs so that two configs computing the
// same numbers share one result-cache key regardless of worker count,
// cache capacity, or base epoch. A tolerance that does not make the query
// sieved (see sieved) normalises to 0 for the same reason: such a query is
// served by the exact kernels, so its result is the exact result — a
// distinct key would fragment the cache and dodge the exact-donor probe.
//
// The directive below is the machine-checked contract (simlint's cachekey
// analyzer): every field stripped here must be listed, and anything not
// listed must ride into the cache key untouched. Add a field to the list
// only if it can never change what a query returns.
//
//simstar:cachekey-exempt workers cacheSize baseEpoch observer deadline fault
func (cfg config) cacheParams() config {
	cfg.workers = 0
	cfg.cacheSize = 0
	cfg.baseEpoch = 0
	// Observation never changes what a query returns; stripping it also
	// keeps cache keys, and with them batch deduplication, identical with
	// and without metrics.
	cfg.observer = nil
	// A deadline bounds how long a query may run, never what it returns when
	// it completes — a query that beat its budget produced the exact same
	// scores an unbounded run would have.
	cfg.deadline = 0
	// Fault injection perturbs scheduling (delays) or aborts queries
	// (panics, surfaced as ErrKernelPanic); a query that survives to return
	// a result returns the unperturbed result.
	cfg.fault = nil
	if !cfg.sieved() {
		cfg.tolerance = 0
	}
	return cfg
}

// sieved reports whether cfg sends a measure with a kernel row down its
// threshold-sieved kernel: a tolerance of at least MinTolerance and no
// sieve. A sieved kernel applies no WithSieve threshold, and clipping its
// output would not keep the certificate — an entry near the threshold can
// move by about the threshold — so a query that sets a sieve runs exactly.
// Every decision between the exact and the sieved path reads this.
func (cfg config) sieved() bool {
	return cfg.tolerance >= MinTolerance && !(cfg.sieve > 0)
}

// MinerOptions controls the biclique miner behind the memoized SimRank*
// variants and the Engine's cached compression.
type MinerOptions struct {
	// MinSources and MinTargets bound biclique dimensions (both >= 2;
	// smaller bicliques never save edges).
	MinSources, MinTargets int
	// Passes is the number of pair-seeded greedy sweeps; 0 means the default.
	Passes int
	// MaxPairsPerNode caps source pairs enumerated per node; 0 = default.
	MaxPairsPerNode int
	// DisablePairMining keeps only the identical-set pass.
	DisablePairMining bool
}

func (m MinerOptions) internal() biclique.Options {
	return biclique.Options{
		MinSources:        m.MinSources,
		MinTargets:        m.MinTargets,
		Passes:            m.Passes,
		MaxPairsPerNode:   m.MaxPairsPerNode,
		DisablePairMining: m.DisablePairMining,
	}
}

// WithC sets the damping factor in (0, 1). Default 0.6, which 0 also
// selects. Every call under any other value — NaN, negative or at least 1 —
// returns an error instead of scores.
func WithC(c float64) Option { return func(cfg *config) { cfg.c = c } }

// WithK sets the iteration count (series truncation length). Default 5.
// Ignored when WithEps selects the count from the error bounds.
func WithK(k int) Option { return func(cfg *config) { cfg.k = k } }

// WithEps derives the iteration count from the convergence bounds instead
// of WithK: the smallest K with Cᵏ⁺¹ <= eps (geometric) or
// Cᵏ⁺¹/(k+1)! <= eps (exponential). An eps at or above C (or NaN) resolves
// zero iterations, which the measures whose own K <= 0 means "default"
// cannot run: every call under it returns an error instead of scores, as
// for an out-of-range C. A negative eps is ignored.
func WithEps(eps float64) Option { return func(cfg *config) { cfg.eps = eps } }

// WithSieve zeroes result entries below the threshold after the final
// iteration (the paper clips at 1e-4 to save space). A query that sets a
// sieve is answered by the exact kernels even under WithTolerance, with a
// zero certificate.
func WithSieve(eps float64) Option { return func(cfg *config) { cfg.sieve = eps } }

// MinTolerance is the smallest tolerance WithTolerance honours: below it
// (including the zero default) queries run the exact kernels and report a
// zero MaxError certificate.
const MinTolerance = sparse.MinCertTolerance

// WithTolerance switches single-source queries served by an Engine to the
// threshold-sieved approximate propagation path: each iteration drops
// frontier entries too small to move any score by more than the remaining
// error budget, and the result carries a certified bound MaxError <= eps on
// the element-wise deviation from the exact kernels. The default (0) and
// any eps below MinTolerance serve exact results with a zero certificate.
// Only the Engine fast-path measures (geometric and exponential SimRank*,
// their memo variants, and RWR) have a sieved path; other measures ignore
// the tolerance and answer exactly. So does a query that also sets
// WithSieve: the sieved path applies no sieve, and a sieve applied after it
// would void the certificate, so such a query runs the exact kernels and
// reports a zero MaxError. The tolerance is part of the
// result-cache key: an approximate entry can only be re-served to requests
// with the identical tolerance (exact entries satisfy any tolerance).
func WithTolerance(eps float64) Option { return func(cfg *config) { cfg.tolerance = eps } }

// WithMiner configures the biclique miner used by the memoized variants and
// the Engine's cached compression.
func WithMiner(m MinerOptions) Option { return func(cfg *config) { cfg.miner = m } }

// WithLambda balances P-Rank's in-link (λ) versus out-link (1−λ) evidence.
// Default 0.5. Only P-Rank reads it.
func WithLambda(l float64) Option { return func(cfg *config) { cfg.lambda = l } }

// WithDelta sets the in-flight sieving threshold of the sparse SimRank*
// solver (entries below δ are dropped during iteration, not after).
// Default 1e-4. Only the sparse measure reads it.
func WithDelta(d float64) Option { return func(cfg *config) { cfg.delta = d } }

// WithWorkers bounds the concurrency of the Engine's batch queries
// (MultiSource, BatchTopK). 0, the default, means one worker per CPU.
// Only the Engine reads it; it never changes what a query returns.
func WithWorkers(n int) Option { return func(cfg *config) { cfg.workers = n } }

// WithCacheSize sets the capacity, in entries, of the Engine's single-source
// result cache. 0, the default, means DefaultCacheSize; a negative value
// disables the cache. Only the Engine reads it; it never changes what a
// query returns.
func WithCacheSize(n int) Option { return func(cfg *config) { cfg.cacheSize = n } }

// WithBaseEpoch numbers the engine's initial graph epoch, so an engine
// warm-started from a persisted snapshot (ReadSnapshot) resumes the version
// sequence instead of restarting at 0. Fixed at engine construction.
func WithBaseEpoch(epoch uint64) Option { return func(cfg *config) { cfg.baseEpoch = epoch } }

// WithDeadline gives every query served by an Engine a wall-clock budget:
// at query entry the engine derives a context.WithTimeout(ctx, d) and the
// kernels' amortised cancellation polls abort the run once it expires,
// surfacing context.DeadlineExceeded. The budget is per query (each
// SingleSource/SingleSourceInto/TopK call, each distinct query of a
// MultiSource/BatchTopK batch), layered on top of whatever deadline the
// caller's own context already carries — whichever fires first wins. 0, the
// default, imposes no engine-side budget. A deadline changes how long a
// query may run, never what a completed query returns, so it is excluded
// from result-cache keys.
func WithDeadline(d time.Duration) Option { return func(cfg *config) { cfg.deadline = d } }

// WithFaultHook installs a fault-injection callback on the engine's kernel
// entry points, for chaos testing: fn is invoked with the fault site name
// (FaultPointKernel) immediately before each kernel run, and may sleep (a
// slow fault) or panic (an injected crash — isolated by the engine and
// surfaced as an ErrKernelPanic-wrapped error, never a process crash).
// Typically fn is (*fault.Injector).Hook(). nil removes the hook. Fault
// injection perturbs scheduling and aborts queries; it never changes what a
// surviving query returns, so the hook is excluded from result-cache keys.
func WithFaultHook(fn func(site string)) Option {
	return func(cfg *config) {
		if fn == nil {
			cfg.fault = nil
			return
		}
		cfg.fault = &faultHook{fn: fn}
	}
}

// faultHook boxes the WithFaultHook callback behind a pointer so config
// stays comparable (it is part of the result-cache key, which also keys
// batch deduplication); the hook itself is identity-compared, and
// cacheParams strips it anyway.
type faultHook struct{ fn func(site string) }

// WithObserver attaches an Observer: the engine's query, cache, kernel and
// workspace-pool counters stream into its registry. Without one (the
// default) every hook is a nil check — the serving fast paths stay
// allocation-free either way, and observation never changes what a query
// returns. Engines derived through With inherit the observer; typically it
// is set once at construction and read back through Engine.Metrics.
func WithObserver(o *Observer) Option { return func(cfg *config) { cfg.observer = o } }

func buildConfig(opts []Option) config {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

func (cfg config) coreOptions() core.Options {
	return core.Options{C: cfg.c, K: cfg.k, Eps: cfg.eps, Sieve: cfg.sieve}
}

// iterations resolves the iteration count for measures whose options structs
// have no Eps field; they follow the geometric convergence bound Cᵏ⁺¹ <= ε.
func (cfg config) iterations() int {
	if cfg.eps > 0 {
		return cfg.coreOptions().IterationsGeometric()
	}
	return cfg.k
}

func (cfg config) simrankOptions() simrank.Options {
	return simrank.Options{C: cfg.c, K: cfg.iterations(), Sieve: cfg.sieve}
}

func (cfg config) prankOptions() prank.Options {
	return prank.Options{C: cfg.c, K: cfg.iterations(), Lambda: cfg.lambda, Sieve: cfg.sieve}
}

func (cfg config) rwrOptions() rwr.Options {
	return rwr.Options{C: cfg.c, K: cfg.iterations(), Sieve: cfg.sieve}
}

func (cfg config) sparseOptions() sparsesim.Options {
	return sparsesim.Options{C: cfg.c, K: cfg.iterations(), Delta: cfg.delta}
}
