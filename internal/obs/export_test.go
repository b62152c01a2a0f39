package obs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTailSamplerPolicy(t *testing.T) {
	// No latency histogram, rate 0: only forced/error/shed traces survive.
	s := NewTailSampler(0, nil)
	cases := []struct {
		status int
		dur    time.Duration
		forced bool
		keep   bool
		reason string
	}{
		{200, time.Millisecond, true, true, KeepForced},
		{500, time.Millisecond, false, true, KeepError},
		{503, time.Millisecond, false, true, KeepError},
		{429, time.Millisecond, false, true, KeepShed},
		{200, time.Millisecond, false, false, ""},
		{404, time.Millisecond, false, false, ""},
	}
	for _, c := range cases {
		keep, reason := s.Decide(c.status, c.dur, c.forced)
		if keep != c.keep || reason != c.reason {
			t.Errorf("Decide(%d, %v, %v) = (%v, %q), want (%v, %q)",
				c.status, c.dur, c.forced, keep, reason, c.keep, c.reason)
		}
	}

	// A nil sampler keeps only forced traces.
	var nilS *TailSampler
	if keep, reason := nilS.Decide(200, time.Second, true); !keep || reason != KeepForced {
		t.Fatal("nil sampler must keep forced traces")
	}
	if keep, _ := nilS.Decide(500, time.Second, false); keep {
		t.Fatal("nil sampler must drop everything else")
	}

	// Rate 1 keeps healthy traces.
	all := NewTailSampler(1, nil)
	if keep, reason := all.Decide(200, time.Millisecond, false); !keep || reason != KeepRandom {
		t.Fatal("rate 1 should keep healthy traces")
	}
}

func TestTailSamplerSlowRule(t *testing.T) {
	h := NewHistogram(DurationBuckets())
	s := NewTailSampler(0, h)
	s.MinCount = 10

	// Below MinCount the slow rule stays off.
	for i := 0; i < 5; i++ {
		h.Observe(0.001)
	}
	if keep, _ := s.Decide(200, time.Second, false); keep {
		t.Fatal("slow rule should be gated until MinCount observations")
	}
	for i := 0; i < 95; i++ {
		h.Observe(0.001)
	}
	// 1 ms baseline: a 1 s request is far above p95 -> slow.
	keep, reason := s.Decide(200, time.Second, false)
	if !keep || reason != KeepSlow {
		t.Fatalf("slow request not kept: (%v, %q)", keep, reason)
	}
	// A typical request stays dropped.
	if keep, _ := s.Decide(200, 500*time.Microsecond, false); keep {
		t.Fatal("fast request kept by slow rule")
	}
}

func TestTailSamplerRandomRate(t *testing.T) {
	s := NewTailSampler(0.5, nil)
	kept := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if keep, reason := s.Decide(200, time.Millisecond, false); keep {
			if reason != KeepRandom {
				t.Fatalf("unexpected reason %q", reason)
			}
			kept++
		}
	}
	if kept < n/3 || kept > 2*n/3 {
		t.Fatalf("rate 0.5 kept %d of %d — generator broken", kept, n)
	}
}

func exportedTrace(name string) ExportedTrace {
	tr := NewTracer()
	tr.SetTraceContext(NewTraceID(), SpanID{})
	_, root := Span(WithTracer(context.Background(), tr), name)
	root.End()
	out := tr.Export()
	out.Route = name
	return out
}

func TestTraceExporterWritesJSONL(t *testing.T) {
	var buf bytes.Buffer
	e := NewTraceExporter(&buf, 16)
	for i := 0; i < 5; i++ {
		if !e.Export(exportedTrace(fmt.Sprintf("r%d", i))) {
			t.Fatalf("export %d rejected", i)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadExportedTraces(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("wrote %d traces, want 5", len(got))
	}
	for i, tr := range got {
		if tr.Route != fmt.Sprintf("r%d", i) {
			t.Fatalf("order broken at %d: %q", i, tr.Route)
		}
	}
	if e.Exported() != 5 || e.Dropped() != 0 {
		t.Fatalf("counters: exported=%d dropped=%d", e.Exported(), e.Dropped())
	}
}

// blockingWriter blocks every Write until released — a stand-in for a stalled
// disk that backs the queue up.
type blockingWriter struct {
	release chan struct{}
	wrote   chan struct{}
	once    sync.Once
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.wrote) })
	<-w.release
	return len(p), nil
}

func TestTraceExporterNeverBlocksAndCountsDrops(t *testing.T) {
	bw := &blockingWriter{release: make(chan struct{}), wrote: make(chan struct{})}
	e := NewTraceExporter(bw, 2)
	// First export is pulled by the writer goroutine and blocks inside Write.
	if !e.Export(exportedTrace("a")) {
		t.Fatal("first export rejected")
	}
	<-bw.wrote
	// Fill the queue, then overflow it: Export must return immediately.
	for i := 0; i < 2; i++ {
		e.Export(exportedTrace("queued"))
	}
	done := make(chan bool, 1)
	go func() { done <- e.Export(exportedTrace("overflow")) }()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("overflow export claimed success")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Export blocked on a full queue")
	}
	if e.Dropped() < 1 {
		t.Fatal("drop not counted")
	}
	close(bw.release)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTraceExporterCloseSemantics(t *testing.T) {
	var buf bytes.Buffer
	e := NewTraceExporter(&buf, 4)
	e.Export(exportedTrace("a"))
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Export after Close must not panic and must report failure.
	if e.Export(exportedTrace("late")) {
		t.Fatal("export accepted after Close")
	}
	// Double Close is safe.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadExportedTraces(&buf)
	if err != nil || len(got) != 1 {
		t.Fatalf("drain lost traces: %d, %v", len(got), err)
	}

	var nilE *TraceExporter
	if nilE.Export(exportedTrace("x")) {
		t.Fatal("nil exporter accepted a trace")
	}
	if err := nilE.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTraceExporterConcurrent(t *testing.T) {
	var buf safeBuffer
	e := NewTraceExporter(&buf, 1024)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				e.Export(exportedTrace(fmt.Sprintf("w%d", w)))
			}
		}(w)
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadExportedTraces(&buf)
	if err != nil {
		t.Fatalf("concurrent export produced invalid JSONL: %v", err)
	}
	if int64(len(got)) != e.Exported() || len(got)+int(e.Dropped()) != 400 {
		t.Fatalf("accounting: %d written, %d exported, %d dropped", len(got), e.Exported(), e.Dropped())
	}
}

// safeBuffer is a bytes.Buffer with a lock: the exporter goroutine writes
// while the test reads after Close, and the race detector wants proof.
type safeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *safeBuffer) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Read(p)
}

var _ io.Reader = (*safeBuffer)(nil)

func TestHistogramExemplar(t *testing.T) {
	h := NewHistogram(DurationBuckets())
	if h.Exemplar() != nil {
		t.Fatal("fresh histogram should have no exemplar")
	}
	h.ObserveWithExemplar(0.25, "")
	if h.Exemplar() != nil {
		t.Fatal("empty trace ID must not set an exemplar")
	}
	if h.Count() != 1 {
		t.Fatal("observation lost")
	}
	h.ObserveWithExemplar(0.5, "aabbccdd")
	ex := h.Exemplar()
	if ex == nil || ex.TraceID != "aabbccdd" || ex.Value != 0.5 {
		t.Fatalf("exemplar = %+v", ex)
	}
	h.ObserveWithExemplar(0.75, "eeff0011")
	if got := h.Exemplar(); got.TraceID != "eeff0011" {
		t.Fatal("latest traced observation should win")
	}
	snap := h.Snapshot()
	if snap.Exemplar == nil || snap.Exemplar.TraceID != "eeff0011" {
		t.Fatalf("snapshot exemplar = %+v", snap.Exemplar)
	}

	var nilH *Histogram
	nilH.ObserveWithExemplar(1, "x") // must not panic
	if nilH.Exemplar() != nil {
		t.Fatal("nil histogram exemplar")
	}
}

// TestPrometheusExemplarRendering pins that traced observations never leak
// into the classic text exposition: a 0.0.4 parser reads anything after the
// value as a timestamp and fails the scrape, and OpenMetrics forbids
// exemplars on summary lines, so exemplars live in the JSON snapshot only.
func TestPrometheusExemplarRendering(t *testing.T) {
	r := NewRegistry()
	r.HistogramVec("req.seconds", DurationBuckets(), "route").
		With("disassemble").ObserveWithExemplar(0.125, "4bf92f3577b34da6a3ce929d0e0e4736")
	r.Histogram("plain.seconds").ObserveWithExemplar(0.25, "00f067aa0ba902b700f067aa0ba902b7")
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "# {") || strings.Contains(out, "trace_id") {
		t.Fatalf("exemplar syntax leaked into the text exposition:\n%s", out)
	}
	if !strings.Contains(out, `req_seconds_count{route="disassemble"} 1`) ||
		!strings.Contains(out, "plain_seconds_count 1") {
		t.Fatalf("traced observations missing from _count series:\n%s", out)
	}
	// The traces stay reachable through the JSON snapshot.
	snap := r.Snapshot()
	ex := snap.LabeledHistograms["req.seconds"][`route="disassemble"`].Exemplar
	if ex == nil || ex.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("snapshot exemplar = %+v", ex)
	}
	checkPromFormat(t, out)
}

// The exporter counters and the exemplar accessor read state for these
// tests; no non-test code asks for them.

// Dropped reports traces discarded because the queue was full (0 for nil).
func (e *TraceExporter) Dropped() int64 {
	if e == nil {
		return 0
	}
	return e.dropped.Load()
}

// Exported reports traces successfully written (0 for nil).
func (e *TraceExporter) Exported() int64 {
	if e == nil {
		return 0
	}
	return e.exported.Load()
}

// Exemplar returns the most recent traced observation, or nil.
func (h *Histogram) Exemplar() *Exemplar {
	if h == nil {
		return nil
	}
	return h.exemplar.Load()
}
