package obs

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// Without a tracer on the context, Span returns a nil handle and every
// handle method is a no-op.
func TestSpanWithoutTracerIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := Span(ctx, "orphan")
	if sp != nil {
		t.Fatal("got a live span without a tracer")
	}
	if ctx2 != ctx {
		t.Fatal("context was rewrapped on the no-tracer path")
	}
	sp.End()
	sp.AddBusy(time.Second)
	sp.NoteWorkers(4)
	if sp.Wall() != 0 {
		t.Fatal("nil span has a wall time")
	}
	if ContextSpan(ctx2) != nil {
		t.Fatal("no-tracer context carries a span")
	}
}

func TestTracerNestingAndTree(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	if TracerFrom(ctx) != tr {
		t.Fatal("TracerFrom lost the tracer")
	}

	ctx, root := Span(ctx, "root")
	if ContextSpan(ctx) != root {
		t.Fatal("ContextSpan is not the innermost span")
	}
	cctx, childA := Span(ctx, "child.a")
	_, grand := Span(cctx, "grand")
	grand.End()
	childA.End()
	_, childB := Span(ctx, "child.b")
	childB.AddBusy(80 * time.Millisecond)
	childB.NoteWorkers(4)
	childB.NoteWorkers(2) // max wins
	time.Sleep(2 * time.Millisecond)
	childB.End()
	childB.End() // double End is a no-op
	root.End()

	roots := tr.Tree()
	if len(roots) != 1 || roots[0].Name != "root" {
		t.Fatalf("roots = %+v", roots)
	}
	kids := roots[0].Children
	if len(kids) != 2 || kids[0].Name != "child.a" || kids[1].Name != "child.b" {
		t.Fatalf("children = %+v", kids)
	}
	if len(kids[0].Children) != 1 || kids[0].Children[0].Name != "grand" {
		t.Fatalf("grandchildren = %+v", kids[0].Children)
	}
	b := kids[1]
	if b.Workers != 4 {
		t.Fatalf("workers = %d, want 4 (max of 4 and 2)", b.Workers)
	}
	if b.BusyMS != 80 {
		t.Fatalf("busy = %gms, want 80", b.BusyMS)
	}
	if b.Utilization <= 0 || b.Utilization > 1 {
		t.Fatalf("utilization = %g out of (0, 1]", b.Utilization)
	}
	if root.Wall() <= 0 {
		t.Fatal("ended root span has no wall time")
	}
}

func TestTracerSpanCap(t *testing.T) {
	tr := NewTracer()
	tr.MaxSpans = 3
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 5; i++ {
		_, sp := Span(ctx, "s")
		sp.End()
	}
	if got := tr.Dropped(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	if n := len(tr.Tree()); n != 3 {
		t.Fatalf("retained %d spans, want 3", n)
	}
}

func TestWriteTable(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	ctx, outer := Span(ctx, "train")
	_, inner := Span(ctx, "fit")
	inner.End()
	outer.End()

	var buf bytes.Buffer
	if err := tr.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"stage", "train", "  fit"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}

	var empty bytes.Buffer
	if err := NewTracer().WriteTable(&empty); err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 {
		t.Fatalf("empty tracer wrote a table: %q", empty.String())
	}
}

// Wall reads a span's recorded wall time for the tests below; no
// non-test code asks for it.

// Wall returns the span's wall-clock duration (valid after End; 0 for nil).
func (s *SpanHandle) Wall() time.Duration {
	if s == nil {
		return 0
	}
	return s.wall
}

// requestTree records one stream-json request's spans into tr the way the
// server does: the root, the handler's stages, core.disassemble, one
// core.classify and two levels with three attributes each. The root is
// started without a context: obs.Span adds only the context value that
// carries it.
func requestTree(tr *Tracer, trace TraceID) *SpanHandle {
	tr.SetTraceContext(trace, SpanID{})
	root := tr.newSpan("serve.request", 0)
	root.cpuStart = processCPUNanos()
	root.FineChild("parallel.admission.wait").End()
	root.FineChild("serve.template.load").End()
	body := root.FineChild("serve.decode.body")
	body.SetAttr("traces", 1)
	body.End()
	dis := root.Child("core.disassemble")
	dis.SetAttr("traces", 1)
	cls := dis.FineChild("core.classify")
	cls.SetAttr("trace", 0)
	for _, level := range []string{"core.classify.group", "core.classify.instr"} {
		l := cls.Child(level)
		l.SetAttr("label", 3)
		l.SetAttr("confidence", 0.875)
		l.SetAttr("margin", 0.5)
		l.End()
	}
	cls.SetAttr("confidence", 0.75)
	cls.End()
	dis.SetAttr("confidence.mean", 0.75)
	dis.SetAttr("decisions.seen", 7)
	dis.End()
	root.SetAttr("status", 200)
	root.End()
	return root
}

// TestRecycledTracerRecordsWithoutAllocating pins the pooled request
// tracer's steady state: after one warm-up request, Reset, a recorded
// stream-json-shaped tree and the tail sampler's drop allocate nothing.
func TestRecycledTracerRecordsWithoutAllocating(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own; allocation counts are meaningless under -race")
	}
	tr := NewTracer()
	tr.Fine = true
	tr.MaxSpans = 512
	sampler := NewTailSampler(0, NewHistogram(DurationBuckets()))
	trace := NewTraceID()
	kept := false
	allocs := testing.AllocsPerRun(20, func() {
		tr.Reset()
		requestTree(tr, trace)
		kept, _ = sampler.Decide(200, time.Millisecond, false)
	})
	if kept {
		t.Fatal("a rate-0 sampler kept a healthy trace")
	}
	if allocs != 0 {
		t.Errorf("a recycled tracer allocates %.1f times per request, want 0", allocs)
	}
	if got := testing.AllocsPerRun(20, func() { _ = FormatTraceparent(trace, SpanID{1}, true) }); got != 1 {
		t.Errorf("FormatTraceparent allocates %.1f times, want 1 (its string)", got)
	}
	for flags, sampled := range map[string]bool{"01": true, "00": false} {
		span := exportSpanID(trace, 3)
		if got, want := FormatTraceparent(trace, span, sampled), "00-"+trace.String()+"-"+span.String()+"-"+flags; got != want {
			t.Errorf("FormatTraceparent = %q, want %q", got, want)
		}
	}
}

// TestTracerResetRecyclesHandles pins that a recycled span carries nothing
// of its previous run: a tracer reused for a smaller tree exports exactly
// that tree, with fresh IDs and only the attributes set in this run.
func TestTracerResetRecyclesHandles(t *testing.T) {
	tr := NewTracer()
	tr.Fine = true
	requestTree(tr, TraceID{1})
	first := tr.Export()
	tr.Reset()
	tr.SetTraceContext(TraceID{2}, SpanID{9})
	root := tr.newSpan("again", 0)
	root.Child("child").End()
	root.SetAttr("only", 1)
	root.End()
	got := tr.Export()
	if len(first.Spans) != 8 || len(got.Spans) != 2 {
		t.Fatalf("exported %d then %d spans, want 8 then 2", len(first.Spans), len(got.Spans))
	}
	byName := map[string]ExportedSpan{}
	for _, sp := range got.Spans {
		byName[sp.Name] = sp
	}
	r, c := byName["again"], byName["child"]
	if len(r.Attrs) != 1 || r.Attrs["only"] != 1 || len(c.Attrs) != 0 {
		t.Fatalf("recycled spans carry attrs %v and %v, want {only:1} and none", r.Attrs, c.Attrs)
	}
	if r.SpanID != exportSpanID(TraceID{2}, 1).String() || r.ParentID != (SpanID{9}).String() || c.ParentID != r.SpanID {
		t.Fatalf("recycled spans: root %+v, child %+v; want IDs restarting at 1 under the new remote parent", r, c)
	}
	if got.TraceID != (TraceID{2}).String() || got.Dropped != 0 || got.DurNS < 0 {
		t.Fatalf("recycled export header %+v", got)
	}
}
