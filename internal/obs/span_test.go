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
