// Package par provides the tiny data-parallel loop helper shared by the
// dense and sparse linear-algebra kernels. All similarity computations in
// this repository are embarrassingly parallel over matrix rows; this keeps
// the goroutine plumbing in one place.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the default parallelism degree.
func Workers() int { return runtime.GOMAXPROCS(0) }

// panicBox collects the first panic recovered on a fan-out worker so the
// goroutine that owns the fan-out can re-raise it after the barrier. A panic
// inside a bare spawned goroutine kills the whole process; routing it
// through a panicBox turns "one bad kernel task" into an ordinary panic on
// the caller, where the serving layers recover it into an error. The zero
// value is ready to use.
type panicBox struct {
	mu  sync.Mutex
	val any
}

// Record stores v as the box's panic if it is the first one; later panics of
// the same fan-out are dropped (the caller can only re-raise one).
func (b *panicBox) Record(v any) {
	b.mu.Lock()
	if b.val == nil {
		b.val = v
	}
	b.mu.Unlock()
}

// Rethrow panics with the recorded value, if any. It must run after the
// fan-out's barrier, on the owning goroutine.
func (b *panicBox) Rethrow() {
	b.mu.Lock()
	v := b.val
	b.mu.Unlock()
	if v != nil {
		panic(v)
	}
}

// For splits [0, n) into contiguous chunks, one per worker, and runs fn on
// each chunk concurrently. fn must be safe to call concurrently on disjoint
// ranges. With workers <= 1 or tiny n it runs inline. The final chunk always
// runs on the caller's goroutine — the caller would otherwise idle in
// wg.Wait while a spawned goroutine does its work, so this saves one
// spawn+wake per call on the kernel hot path. A panic in fn — on any chunk —
// surfaces as a panic on the caller's goroutine after every chunk has
// stopped, never as a raw goroutine crash.
func For(n, workers int, fn func(lo, hi int)) {
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	var pan panicBox
	chunk := (n + workers - 1) / workers
	lo := 0
	for ; lo+chunk < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer func() {
				if r := recover(); r != nil {
					pan.Record(r)
				}
				wg.Done()
			}()
			fn(lo, hi)
		}(lo, lo+chunk)
	}
	// The inline chunk runs under a defer that always drains the spawned
	// workers before the call returns or unwinds: a panicking caller chunk
	// must not leave workers writing into buffers the caller is about to
	// recycle, and a worker panic is re-raised here, on the caller.
	func() {
		defer func() {
			wg.Wait()
			pan.Rethrow()
		}()
		fn(lo, n)
	}()
}

// ForEach runs fn(i) for each i in [0, n) across workers, chunked.
func ForEach(n, workers int, fn func(i int)) {
	For(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ForEachCtx runs fn(i) for each i in [0, n) across workers and returns
// ctx.Err(). Unlike For/ForEach it hands out indices one at a time from a
// shared counter, so it load-balances items of very different cost — the
// shape of a query batch, where one heavy query must not serialise a whole
// chunk behind it. Workers stop picking up new items as soon as ctx is
// cancelled; items already running are the callee's responsibility (fn is
// expected to observe ctx itself). Indices not dispatched are skipped, which
// the non-nil return signals to the caller.
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var pan panicBox
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					pan.Record(r)
				}
				wg.Done()
			}()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	// A worker that panicked stops pulling indices but must not crash the
	// process: re-raise on the caller, where the serving layers' recover
	// wrappers turn it into an error.
	pan.Rethrow()
	return ctx.Err()
}
