// Package parallel provides the bounded worker-pool primitives the feature
// pipeline, trainer and experiment harness parallelize with.
//
// Design rules, shared by every caller in this repository:
//
//   - Work is expressed as an index space [0, n); each index writes only its
//     own output slot, so the result of a parallel loop is byte-identical to
//     the serial loop regardless of scheduling.
//   - Any reduction over the slots (summing statistics, picking a best score,
//     reporting an error) happens afterwards, serially, in index order —
//     deterministic floating-point accumulation comes for free.
//   - The worker count is a process-wide knob (SetWorkers / the -workers
//     flag); 0 or negative means runtime.NumCPU(). With one worker the loop
//     body runs inline on the calling goroutine, so "serial mode" is exactly
//     the pre-parallelism code path.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// configured is the requested worker count; <= 0 selects runtime.NumCPU().
var configured atomic.Int64

// poolMetrics holds the pool's instrument handles; the handles are nil
// (no-op) under a nil registry. When enabled, every loop body is timed so
// the busy time — per stage (attributed to the context span) and
// process-wide — quantifies worker utilization. The live set is swapped
// atomically by the OnDefault hook, so obs.SetDefault is safe to call while
// loops run: each loop binds its handle set once at entry.
type poolMetrics struct {
	loops   *obs.Counter // parallel.loops — ForCtx/ForErrCtx calls
	tasks   *obs.Counter // parallel.tasks — loop bodies executed
	busyNS  *obs.Counter // parallel.busy_ns — summed body wall time
	cancels *obs.Counter // parallel.cancellations — loops that returned ctx.Err()
	workers *obs.Gauge   // parallel.workers — effective pool size
}

var metPtr atomic.Pointer[poolMetrics]

// met returns the current handle set; never nil.
func met() *poolMetrics {
	if m := metPtr.Load(); m != nil {
		return m
	}
	return &poolMetrics{}
}

func init() {
	obs.OnDefault(func(r *obs.Registry) {
		m := &poolMetrics{
			loops:   r.Counter("parallel.loops"),
			tasks:   r.Counter("parallel.tasks"),
			busyNS:  r.Counter("parallel.busy_ns"),
			cancels: r.Counter("parallel.cancellations"),
			workers: r.Gauge("parallel.workers"),
		}
		m.workers.Set(float64(Workers()))
		metPtr.Store(m)
	})
}

// SetWorkers pins the process-wide worker count used by ForCtx and ForErrCtx.
// n <= 0 restores the default (runtime.NumCPU()).
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	configured.Store(int64(n))
	met().workers.Set(float64(Workers()))
}

// Workers returns the effective worker count (always >= 1).
func Workers() int {
	if n := int(configured.Load()); n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// ForCtx runs fn(i) for every i in [0, n) on up to Workers() goroutines and
// returns when all started calls have finished. Indices are handed out by an
// atomic counter, so bodies must not depend on execution order; each body
// should write only to state owned by its index. With Workers() == 1 (or
// n <= 1) the loop runs inline on the calling goroutine. Once ctx is
// cancelled no new index is started (indices already running finish
// normally), and the returned error is ctx.Err(). A nil return means every
// index ran and ctx was still live when the loop finished. Bodies that want
// finer-grained cancellation can check ctx themselves.
func ForCtx(ctx context.Context, n int, fn func(i int)) error {
	return ForErrCtx(ctx, n, func(i int) error {
		fn(i)
		return nil
	})
}

// ForErrCtx runs fn(i) for every i in [0, n) like ForCtx and is the pool's
// one goroutine loop. Once any index fails, indices above the lowest known
// failure are skipped (their slots stay zero), mirroring a serial loop's
// early exit; indices below it still run, which is harmless because slot
// writes are independent. The error contract is deterministic:
//
//   - if any body returned an error, the error of the lowest failing index is
//     returned — the error a serial loop stopping at its first failure
//     reports — regardless of cancellation;
//   - otherwise, if ctx is cancelled by the time the loop returns, ctx.Err()
//     is returned (some indices may have been skipped);
//   - otherwise nil.
//
// Cancellation stops the scheduling of new indices immediately — ctx is
// checked before every index is handed to a body — but never interrupts a
// body already running, so index-owned slot writes stay race-free.
func ForErrCtx(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	m := met()
	m.loops.Inc()
	w := Workers()
	if w > n {
		w = n
	}
	// Per-body timing feeds both the process-wide busy counter and the
	// enclosing stage span (worker utilization in the trace tree). Enabled
	// only when a registry or a tracer span is live; otherwise the loop body
	// runs unwrapped.
	if sp := obs.ContextSpan(ctx); sp != nil || m.tasks != nil {
		sp.NoteWorkers(w)
		inner := fn
		fn = func(i int) error {
			start := time.Now()
			err := inner(i)
			d := time.Since(start)
			m.tasks.Inc()
			m.busyNS.Add(int64(d))
			sp.AddBusy(d)
			return err
		}
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				m.cancels.Inc()
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		if err := ctx.Err(); err != nil {
			m.cancels.Inc()
			return err
		}
		return nil
	}
	var (
		mu       sync.Mutex
		firstIdx = n
		firstErr error
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
	}
	bound := func() int {
		mu.Lock()
		defer mu.Unlock()
		return firstIdx
	}
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n || i > bound() {
					return
				}
				if err := fn(i); err != nil {
					fail(i, err)
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		m.cancels.Inc()
		return err
	}
	return nil
}
