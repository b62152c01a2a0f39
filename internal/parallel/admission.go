package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrOverloaded is returned by Admission.Acquire when the in-flight limit is
// reached and the wait queue is already at its depth limit — the signal an
// HTTP front end maps to 429 + Retry-After. Rejecting at a bounded queue
// depth (instead of queueing without limit) keeps memory flat and latency
// honest under a load burst.
var ErrOverloaded = errors.New("parallel: admission queue full")

// admMetrics holds the admission instrument handles; swapped atomically by
// the OnDefault hook like every instrumented package.
type admMetrics struct {
	admitted *obs.Counter   // parallel.admission.admitted — acquisitions granted
	rejected *obs.Counter   // parallel.admission.rejected — ErrOverloaded rejections
	canceled *obs.Counter   // parallel.admission.canceled — waits abandoned via ctx
	inflight *obs.Gauge     // parallel.admission.inflight — slots currently held
	queued   *obs.Gauge     // parallel.admission.queued — waiters currently queued
	wait     *obs.Histogram // parallel.admission.wait.seconds — time from Acquire to admit
}

var admMetPtr atomic.Pointer[admMetrics]

func admMet() *admMetrics {
	if m := admMetPtr.Load(); m != nil {
		return m
	}
	return &admMetrics{}
}

func init() {
	obs.OnDefault(func(r *obs.Registry) {
		admMetPtr.Store(&admMetrics{
			admitted: r.Counter("parallel.admission.admitted"),
			rejected: r.Counter("parallel.admission.rejected"),
			canceled: r.Counter("parallel.admission.canceled"),
			inflight: r.Gauge("parallel.admission.inflight"),
			queued:   r.Gauge("parallel.admission.queued"),
			wait:     r.Histogram("parallel.admission.wait.seconds"),
		})
	})
}

// Admission is the server-side backpressure primitive on top of the worker
// pool: at most maxInFlight acquisitions run concurrently, at most maxQueue
// more wait for a slot, and everything beyond that is rejected immediately
// with ErrOverloaded. The pool itself (ForCtx/ForErrCtx) bounds CPU parallelism
// inside one batch; Admission bounds how many batches are in the building at
// all, which is what keeps a burst from growing the heap without limit.
//
// All methods are safe for concurrent use.
type Admission struct {
	slots chan struct{} // buffered; a token in the channel = a free slot
	queue atomic.Int64  // current waiters (admitted-or-rejected accounting)
	max   int
	maxQ  int
}

// NewAdmission builds an admission gate with maxInFlight concurrent slots
// and a wait queue of maxQueue. maxInFlight < 1 is clamped to 1; maxQueue
// < 0 is clamped to 0 (reject as soon as every slot is busy).
func NewAdmission(maxInFlight, maxQueue int) *Admission {
	if maxInFlight < 1 {
		maxInFlight = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	a := &Admission{
		slots: make(chan struct{}, maxInFlight),
		max:   maxInFlight,
		maxQ:  maxQueue,
	}
	for i := 0; i < maxInFlight; i++ {
		a.slots <- struct{}{}
	}
	return a
}

// MaxInFlight returns the concurrent-slot limit.
func (a *Admission) MaxInFlight() int { return a.max }

// MaxQueue returns the wait-queue depth limit.
func (a *Admission) MaxQueue() int { return a.maxQ }

// InFlight returns the number of slots currently held.
func (a *Admission) InFlight() int { return a.max - len(a.slots) }

// Queued returns the number of acquisitions currently waiting for a slot.
func (a *Admission) Queued() int { return int(a.queue.Load()) }

// Acquire claims a slot, waiting in the bounded queue when all slots are
// busy. It returns a release function that must be called exactly once when
// the admitted work finishes (it is idempotent-unsafe by design: double
// release would over-credit the gate, so the returned closure panics on a
// second call). Errors:
//
//   - ErrOverloaded when the queue is already maxQueue deep — the caller
//     should shed the request (HTTP 429) rather than wait;
//   - ctx.Err() when the context is done before a slot frees up.
func (a *Admission) Acquire(ctx context.Context) (release func(), err error) {
	m := admMet()
	// Request tracing: the wait (including a zero-wait fast-path admit) is a
	// fine span under the caller's current span, so a traced request's tree
	// shows exactly how long it sat at the gate. Nil (free) without a fine
	// tracer in ctx.
	sp := obs.ContextSpan(ctx).FineChild("parallel.admission.wait")
	// Fast path: a slot is free right now. The wait histogram records a zero
	// so its quantiles reflect every admitted request, not just queued ones —
	// without the cost of a clock read on the uncontended (untraced) path.
	select {
	case <-a.slots:
		m.admitted.Inc()
		m.inflight.Set(float64(a.InFlight()))
		m.wait.Observe(0)
		sp.End()
		return a.releaseFunc(), nil
	default:
	}
	// Slow path: join the bounded queue, or shed.
	for {
		q := a.queue.Load()
		if int(q) >= a.maxQ {
			m.rejected.Inc()
			sp.SetAttr("rejected", 1)
			sp.End()
			return nil, ErrOverloaded
		}
		if a.queue.CompareAndSwap(q, q+1) {
			break
		}
	}
	sp.SetAttr("queued.depth", float64(a.Queued()))
	m.queued.Set(float64(a.Queued()))
	defer func() {
		a.queue.Add(-1)
		m.queued.Set(float64(a.Queued()))
	}()
	start := time.Now()
	select {
	case <-a.slots:
		m.admitted.Inc()
		m.inflight.Set(float64(a.InFlight()))
		m.wait.Observe(time.Since(start).Seconds())
		sp.End()
		return a.releaseFunc(), nil
	case <-ctx.Done():
		m.canceled.Inc()
		sp.SetAttr("canceled", 1)
		sp.End()
		return nil, ctx.Err()
	}
}

// Saturated reports whether the gate would shed the next Acquire: every slot
// held and the wait queue at its depth limit. Readiness probes use this —
// a saturated gate means new work gets 429s, so the instance should be
// pulled from rotation rather than fed more traffic.
func (a *Admission) Saturated() bool {
	return a.InFlight() >= a.max && a.Queued() >= a.maxQ
}

// releaseFunc returns the single-use closure handed to an admitted caller.
func (a *Admission) releaseFunc() func() {
	var released atomic.Bool
	return func() {
		if !released.CompareAndSwap(false, true) {
			panic(fmt.Sprintf("parallel: Admission slot released twice (max %d)", a.max))
		}
		a.slots <- struct{}{}
		admMet().inflight.Set(float64(a.InFlight()))
	}
}
