package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersDefault(t *testing.T) {
	SetWorkers(0)
	if got := Workers(); got != runtime.NumCPU() {
		t.Fatalf("Workers() = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	SetWorkers(3)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d, want 3", got)
	}
	SetWorkers(-5)
	if got := Workers(); got != runtime.NumCPU() {
		t.Fatalf("Workers() after negative = %d, want NumCPU", got)
	}
	SetWorkers(0)
}

func TestForCoversAllIndices(t *testing.T) {
	for _, w := range []int{1, 2, 4, 16} {
		SetWorkers(w)
		const n = 1000
		out := make([]int64, n)
		if err := ForCtx(context.Background(), n, func(i int) { atomic.AddInt64(&out[i], 1) }); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", w, i, v)
			}
		}
	}
	SetWorkers(0)
}

func TestForZeroAndOne(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	ran := 0
	if err := ForCtx(context.Background(), 0, func(int) { ran++ }); err != nil || ran != 0 {
		t.Fatalf("ForCtx(0) ran %d times, err %v", ran, err)
	}
	if err := ForCtx(context.Background(), 1, func(int) { ran++ }); err != nil || ran != 1 {
		t.Fatalf("ForCtx(1) ran %d times, err %v", ran, err)
	}
}

func TestForErrReturnsLowestIndexError(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		SetWorkers(w)
		err := ForErrCtx(context.Background(), 100, func(i int) error {
			if i == 7 || i == 50 {
				return fmt.Errorf("fail at %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail at 7" {
			t.Fatalf("workers=%d: err = %v, want fail at 7", w, err)
		}
	}
	SetWorkers(0)
}

func TestForErrNilOnSuccess(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	if err := ForErrCtx(context.Background(), 64, func(int) error { return nil }); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestForErrPropagatesSentinel(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	sentinel := errors.New("boom")
	err := ForErrCtx(context.Background(), 10, func(i int) error {
		if i == 0 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("error %v does not wrap sentinel", err)
	}
}

func TestForErrCtxCompletesWithLiveContext(t *testing.T) {
	for _, w := range []int{1, 4} {
		SetWorkers(w)
		var ran atomic.Int64
		err := ForErrCtx(context.Background(), 128, func(int) error {
			ran.Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: unexpected error: %v", w, err)
		}
		if ran.Load() != 128 {
			t.Fatalf("workers=%d: ran %d of 128 indices", w, ran.Load())
		}
	}
	SetWorkers(0)
}

// TestForErrCtxStopsSchedulingAfterCancel proves that after ctx is cancelled
// no new task starts: a body cancels the context, waits until every worker
// has observed the cancellation (wg below), and the started-counter must then
// stay frozen strictly below n.
func TestForErrCtxStopsSchedulingAfterCancel(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		SetWorkers(w)
		ctx, cancel := context.WithCancel(context.Background())
		const n = 100000
		var started atomic.Int64
		var once sync.Once
		err := ForErrCtx(ctx, n, func(i int) error {
			started.Add(1)
			once.Do(cancel)
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		after := started.Load()
		// Every index already in flight when cancel hit may finish, so up to
		// Workers() extra bodies can run — but nothing new after the loop
		// returned, and far fewer than n total.
		if after >= n {
			t.Fatalf("workers=%d: all %d indices ran despite cancellation", w, n)
		}
		time.Sleep(10 * time.Millisecond)
		if got := started.Load(); got != after {
			t.Fatalf("workers=%d: %d tasks started after ForErrCtx returned (was %d)", w, got-after, after)
		}
	}
	SetWorkers(0)
}

func TestForErrCtxPreCancelledRunsNothing(t *testing.T) {
	for _, w := range []int{1, 4} {
		SetWorkers(w)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var ran atomic.Int64
		err := ForErrCtx(ctx, 64, func(int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: %d bodies ran under a pre-cancelled context", w, ran.Load())
		}
	}
	SetWorkers(0)
}

// A body error at a low index beats cancellation: the caller sees the same
// error a serial early-exit loop would report, not context.Canceled.
func TestForErrCtxBodyErrorBeatsCancellation(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sentinel := errors.New("boom")
	err := ForErrCtx(ctx, 50, func(i int) error {
		if i == 3 {
			cancel()
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel body error", err)
	}
}

func TestForCtxCancellation(t *testing.T) {
	SetWorkers(2)
	defer SetWorkers(0)
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	err := ForCtx(ctx, 100000, func(i int) {
		once.Do(cancel)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForCtx err = %v, want context.Canceled", err)
	}
	if err := ForCtx(context.Background(), 10, func(int) {}); err != nil {
		t.Fatalf("ForCtx with live context: %v", err)
	}
}
