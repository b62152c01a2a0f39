package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestTracerResetReusable pins the serving contract of Reset: a tracer
// filled to its cap (and dropping) becomes empty and records again after
// Reset, instead of holding the full buffer and dropping every span for the
// rest of the process lifetime.
func TestTracerResetReusable(t *testing.T) {
	tr := NewTracer()
	tr.MaxSpans = 2
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 5; i++ {
		_, sp := Span(ctx, "fill")
		sp.End()
	}
	if tr.Dropped() != 3 || len(tr.Tree()) != 2 {
		t.Fatalf("pre-reset: dropped=%d retained=%d, want 3/2", tr.Dropped(), len(tr.Tree()))
	}
	tr.Reset()
	if tr.Dropped() != 0 || len(tr.Tree()) != 0 {
		t.Fatalf("post-reset: dropped=%d retained=%d, want 0/0", tr.Dropped(), len(tr.Tree()))
	}
	_, sp := Span(ctx, "after")
	sp.End()
	tree := tr.Tree()
	if len(tree) != 1 || tree[0].Name != "after" {
		t.Fatalf("post-reset span not recorded: %+v", tree)
	}
	if tree[0].StartMS < 0 {
		t.Fatalf("post-reset span starts before the new anchor: %+v", tree[0])
	}
	var nilTracer *Tracer
	nilTracer.Reset() // must not panic
}

// TestSpanDropsSurfaceInMetrics pins the observable half of the span cap:
// drops land on the obs.spans.dropped counter of the installed registry, so
// a server's /metrics shows the loss instead of it being silent.
func TestSpanDropsSurfaceInMetrics(t *testing.T) {
	defer SetDefault(nil)
	r := NewRegistry()
	SetDefault(r)
	tr := NewTracer()
	tr.MaxSpans = 1
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 4; i++ {
		_, sp := Span(ctx, "s")
		sp.End()
	}
	if got := r.Snapshot().Counters["obs.spans.dropped"]; got != 3 {
		t.Fatalf("obs.spans.dropped = %d, want 3", got)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "obs_spans_dropped 3") {
		t.Fatalf("prometheus exposition missing obs_spans_dropped:\n%s", buf.String())
	}
}

// TestDecisionLogSeqPerInstance pins that sequence numbers are a per-log
// property: two logs written concurrently each emit the exact contiguous
// range 1..N, with no cross-log interleaving of the counters — the property
// a server with per-template decision sinks depends on.
func TestDecisionLogSeqPerInstance(t *testing.T) {
	const workers, per = 8, 40
	newLog := func() (*DecisionLog, *strings.Builder, *sync.Mutex) {
		var mu sync.Mutex
		var sb strings.Builder
		w := writerFunc(func(p []byte) (int, error) {
			mu.Lock()
			defer mu.Unlock()
			return sb.Write(p)
		})
		return NewDecisionLog(w, 1), &sb, &mu
	}
	la, sa, _ := newLog()
	lb, sb, _ := newLog()

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = la.Record(sampleRecord(0.5))
				_ = lb.Record(sampleRecord(0.5))
			}
		}()
	}
	wg.Wait()

	for name, out := range map[string]string{"a": sa.String(), "b": sb.String()} {
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if len(lines) != workers*per {
			t.Fatalf("log %s emitted %d records, want %d", name, len(lines), workers*per)
		}
		seen := make(map[int64]bool, len(lines))
		for _, line := range lines {
			var rec DecisionRecord
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("log %s corrupt line %q: %v", name, line, err)
			}
			seen[rec.Seq] = true
		}
		// Exactly 1..N: contiguous per instance, unaffected by the sibling
		// log advancing its own counter in parallel.
		for s := int64(1); s <= workers*per; s++ {
			if !seen[s] {
				t.Fatalf("log %s missing seq %d (per-instance numbering broken)", name, s)
			}
		}
	}
}

// TestSetDefaultConcurrentWithRecording is the obs-level half of the rebind
// fix: SetDefault may install fresh registries while other goroutines are
// recording decisions and ending spans. Run under -race this pins the atomic
// handle swap; the final rebind must also leave the hooks consistently bound
// to the last registry.
func TestSetDefaultConcurrentWithRecording(t *testing.T) {
	defer SetDefault(nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := NewDecisionLog(writerFunc(func(p []byte) (int, error) { return len(p), nil }), 1)
			tr := NewTracer()
			tr.MaxSpans = 1
			ctx := WithTracer(context.Background(), tr)
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = l.Record(sampleRecord(0.9))
				_, sp := Span(ctx, "work")
				sp.End()
			}
		}()
	}
	var last *Registry
	for i := 0; i < 200; i++ {
		last = NewRegistry()
		SetDefault(last)
	}
	close(stop)
	wg.Wait()
	if Default() != last {
		t.Fatal("Default() does not reflect the last SetDefault")
	}
	// Handles rebound to the final registry: new records land there.
	l := NewDecisionLog(writerFunc(func(p []byte) (int, error) { return len(p), nil }), 1)
	_ = l.Record(sampleRecord(0.5))
	if got := last.Snapshot().Counters["obs.decisions.seen"]; got < 1 {
		t.Fatalf("final registry saw %d decisions, want >= 1", got)
	}
}
