package parallel

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionLimitsAndSheds pins the three-band contract: the first
// maxInFlight acquisitions run, the next maxQueue wait, and everything
// beyond is rejected with ErrOverloaded immediately.
func TestAdmissionLimitsAndSheds(t *testing.T) {
	a := NewAdmission(2, 1)
	r1, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := a.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}

	// Third acquisition queues.
	queued := make(chan error, 1)
	go func() {
		r, err := a.Acquire(context.Background())
		if err == nil {
			defer r()
		}
		queued <- err
	}()
	waitFor(t, "queue occupancy", func() bool { return a.Queued() == 1 })

	// Fourth is over the queue limit: shed, not blocked.
	if _, err := a.Acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-limit Acquire error = %v, want ErrOverloaded", err)
	}
	if _, err := a.TryAcquire(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("TryAcquire with no free slot error = %v, want ErrOverloaded", err)
	}

	// Releasing a slot admits the queued waiter.
	r1()
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire after release: %v", err)
	}
	r2()
	waitFor(t, "drain", func() bool { return a.InFlight() == 0 && a.Queued() == 0 })
}

// TestAdmissionAcquireHonorsContext pins that a queued waiter abandons its
// slot claim when its request context dies, freeing the queue position.
func TestAdmissionAcquireHonorsContext(t *testing.T) {
	a := NewAdmission(1, 4)
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := a.Acquire(ctx)
		errc <- err
	}()
	waitFor(t, "waiter to queue", func() bool { return a.Queued() == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Acquire error = %v, want context.Canceled", err)
	}
	waitFor(t, "queue to empty", func() bool { return a.Queued() == 0 })
	release()
	if got := a.InFlight(); got != 0 {
		t.Fatalf("InFlight after release = %d, want 0", got)
	}
}

// TestAdmissionDoubleReleasePanics pins the accounting guard: releasing a
// slot twice would over-credit the gate, so the closure must panic.
func TestAdmissionDoubleReleasePanics(t *testing.T) {
	a := NewAdmission(1, 0)
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	release()
	defer func() {
		if recover() == nil {
			t.Fatal("second release did not panic")
		}
	}()
	release()
}

// TestAdmissionClamps pins the constructor floor: nonsensical limits become
// the smallest sane gate instead of one that can never admit.
func TestAdmissionClamps(t *testing.T) {
	a := NewAdmission(0, -3)
	if a.MaxInFlight() != 1 || a.MaxQueue() != 0 {
		t.Fatalf("clamped gate = (%d, %d), want (1, 0)", a.MaxInFlight(), a.MaxQueue())
	}
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("zero-queue gate queued instead of shedding: %v", err)
	}
	release()
}

// TestAdmissionConcurrentChurn hammers the gate from many goroutines (the
// -race coverage for the CAS queue accounting) and checks the invariant that
// matters: admissions never exceed the slot count concurrently, and the gate
// drains back to empty.
func TestAdmissionConcurrentChurn(t *testing.T) {
	const (
		goroutines = 32
		rounds     = 50
		maxSlots   = 3
	)
	a := NewAdmission(maxSlots, 2)
	var (
		wg       sync.WaitGroup
		inside   atomic.Int64
		admitted atomic.Int64
		peak     atomic.Int64
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				release, err := a.Acquire(context.Background())
				if err != nil {
					continue // shed under burst: expected
				}
				n := inside.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				admitted.Add(1)
				inside.Add(-1)
				release()
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > maxSlots {
		t.Fatalf("observed %d concurrent admissions, limit %d", p, maxSlots)
	}
	if admitted.Load() == 0 {
		t.Fatal("no acquisition ever admitted")
	}
	waitFor(t, "drain", func() bool { return a.InFlight() == 0 && a.Queued() == 0 })
	// The gate is intact: full capacity is acquirable again.
	var rel []func()
	for i := 0; i < maxSlots; i++ {
		r, err := a.Acquire(context.Background())
		if err != nil {
			t.Fatalf("slot %d after churn: %v", i, err)
		}
		rel = append(rel, r)
	}
	for _, r := range rel {
		r()
	}
}

// TryAcquire is Acquire without waiting: it claims a free slot or returns
// ErrOverloaded immediately, never joining the queue. Only these tests
// probe the gate without waiting.
func (a *Admission) TryAcquire() (release func(), err error) {
	m := admMet()
	select {
	case <-a.slots:
		m.admitted.Inc()
		m.inflight.Set(float64(a.InFlight()))
		return a.releaseFunc(), nil
	default:
		m.rejected.Inc()
		return nil, ErrOverloaded
	}
}
