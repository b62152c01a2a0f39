package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestSetDefaultRebindDuringDisassemble pins the serving-blocker fix: an
// obs.SetDefault rebind while DisassembleCtx work is in flight must be safe
// (every package swaps its instrument-handle set atomically) and must not
// perturb the decoded labels. Run under -race this is the regression test
// for the old unsynchronized-handle reads.
func TestSetDefaultRebindDuringDisassemble(t *testing.T) {
	d, traces := sharedFixture(t)
	defer obs.SetDefault(nil)

	want, err := d.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := d.DisassembleScoredCtx(context.Background(), traces)
				if err != nil {
					errc <- err
					return
				}
				for i := range got {
					if got[i].Decoded != want[i] {
						t.Errorf("decode %d changed under rebinding: %+v vs %+v", i, got[i].Decoded, want[i])
						return
					}
				}
			}
		}()
	}
	var last *obs.Registry
	for i := 0; i < 100; i++ {
		last = obs.NewRegistry()
		obs.SetDefault(last)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("decode failed under rebinding: %v", err)
	default:
	}
	// The final registry is live: another decode lands its counts there.
	if _, err := d.Disassemble(traces); err != nil {
		t.Fatal(err)
	}
	if got := last.Snapshot().Counters["core.traces.classified"]; got < int64(len(traces)) {
		t.Fatalf("final registry counted %d classified traces, want >= %d", got, len(traces))
	}
}
