package parallel

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// Registry instruments must be safe to hammer from parallel loop bodies.
// This is the contract every instrumented pipeline stage relies on; run under
// -race in CI.
func TestRegistryConcurrentFromParallelFor(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)

	const n = 500
	c := reg.Counter("test.race.counter")
	g := reg.Gauge("test.race.gauge")
	h := reg.Histogram("test.race.hist")
	err := ForCtx(context.Background(), n, func(i int) {
		c.Inc()
		c.Add(2)
		g.Add(1)
		h.Observe(float64(i%10) + 0.5)
		// Create-on-first-use from many goroutines must also be safe.
		reg.Counter("test.race.dynamic").Inc()
	})
	if err != nil {
		t.Fatal(err)
	}

	if got := c.Value(); got != 3*n {
		t.Fatalf("counter = %d, want %d", got, 3*n)
	}
	if got := g.Value(); got != n {
		t.Fatalf("gauge = %g, want %d", got, n)
	}
	if got := h.Count(); got != n {
		t.Fatalf("histogram count = %d, want %d", got, n)
	}
	snap := reg.Snapshot()
	if snap.Counters["test.race.dynamic"] != n {
		t.Fatalf("dynamic counter = %d, want %d", snap.Counters["test.race.dynamic"], n)
	}
}

// Span busy-time attribution from ForErrCtx bodies must be race-free, and the
// loop must note its worker count on the enclosing span.
func TestSpanBusyAttributionFromForErrCtx(t *testing.T) {
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	ctx, sp := obs.Span(ctx, "test.stage")

	var bodies atomic.Int64
	err := ForErrCtx(ctx, 200, func(i int) error {
		bodies.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sp.End()

	if bodies.Load() != 200 {
		t.Fatalf("ran %d bodies, want 200", bodies.Load())
	}
	roots := tr.Tree()
	if len(roots) != 1 || roots[0].Name != "test.stage" {
		t.Fatalf("tree = %+v", roots)
	}
	if roots[0].Workers < 1 {
		t.Fatalf("loop did not note its worker count: %+v", roots[0])
	}
	if roots[0].BusyMS < 0 {
		t.Fatalf("negative busy time: %+v", roots[0])
	}
}

// Snapshotting while writers are active must be consistent enough to never
// tear a counter (monotonic reads) and never race.
func TestSnapshotDuringConcurrentWrites(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("test.snap.counter")
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = ForCtx(context.Background(), 2000, func(i int) { c.Inc() })
	}()
	var last int64
	for i := 0; i < 50; i++ {
		snap := reg.Snapshot()
		v := snap.Counters["test.snap.counter"]
		if v < last {
			t.Fatalf("counter went backwards: %d -> %d", last, v)
		}
		last = v
	}
	<-done
	if v := reg.Snapshot().Counters["test.snap.counter"]; v != 2000 {
		t.Fatalf("final counter = %d, want 2000", v)
	}
}
