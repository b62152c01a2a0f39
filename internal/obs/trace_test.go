package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/testkit"
)

// validTraceparent is the W3C specification's example header.
const validTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// traceparentRow is one header TestParseTraceparent pins and
// FuzzParseTraceparent starts from.
type traceparentRow struct {
	name, header string
	ok           bool // ParseTraceparent accepts it
}

// traceparentRows are the headers TestParseTraceparent pins: the valid
// example sampled and unsampled, a future version, and one header per way to
// be invalid.
func traceparentRows() []traceparentRow {
	return []traceparentRow{
		{"valid", validTraceparent, true},
		{"unsampled", strings.Replace(validTraceparent, "-01", "-00", 1), true},
		// A future version with extra fields is accepted per the W3C spec.
		{"future_version", "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-whatever", true},
		{"empty", "", false},
		{"version_only", "00", false},
		{"no_flags", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7", false},
		{"uppercase", "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", false},
		{"zero_trace", "00-00000000000000000000000000000000-00f067aa0ba902b7-01", false},
		{"zero_parent", "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", false},
		{"version_ff", "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false},
		{"v00_trailer", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-ex", false},
		{"bad_version_hex", "zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false},
		{"bad_separator", "00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false},
		{"bad_trace_hex", "00-4bf92f3577b34da6a3ce929d0e0e473x-00f067aa0ba902b7-01", false},
		{"bad_parent_hex", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902bx-01", false},
		{"bad_flags_hex", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-x1", false},
	}
}

func TestParseTraceparent(t *testing.T) {
	trace, parent, sampled, ok := ParseTraceparent(validTraceparent)
	if !ok {
		t.Fatalf("valid header rejected: %q", validTraceparent)
	}
	if trace.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace ID = %s", trace)
	}
	if parent.String() != "00f067aa0ba902b7" {
		t.Fatalf("parent ID = %s", parent)
	}
	if !sampled {
		t.Fatal("flags 01 should report sampled")
	}
	if _, _, sampled, ok = ParseTraceparent(strings.Replace(validTraceparent, "-01", "-00", 1)); !ok || sampled {
		t.Fatal("flags 00 should parse as unsampled")
	}
	for _, r := range traceparentRows() {
		if _, _, _, ok := ParseTraceparent(r.header); ok != r.ok {
			t.Errorf("%s: %q accepted = %v, want %v", r.name, r.header, ok, r.ok)
		}
	}
}

func TestFormatTraceparentRoundTrip(t *testing.T) {
	trace := NewTraceID()
	span := exportSpanID(trace, 7)
	h := FormatTraceparent(trace, span, true)
	gotTrace, gotSpan, sampled, ok := ParseTraceparent(h)
	if !ok || gotTrace != trace || gotSpan != span || !sampled {
		t.Fatalf("round trip failed: %q -> (%s, %s, %v, %v)", h, gotTrace, gotSpan, sampled, ok)
	}
}

func TestNewTraceIDUnique(t *testing.T) {
	seen := map[TraceID]bool{}
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if id.IsZero() {
			t.Fatal("zero trace ID generated")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %s", id)
		}
		seen[id] = true
	}
}

func TestExportSpanIDStableAndDistinct(t *testing.T) {
	trace := NewTraceID()
	if exportSpanID(trace, 1) != exportSpanID(trace, 1) {
		t.Fatal("span ID not deterministic")
	}
	seen := map[SpanID]bool{}
	for i := int64(1); i <= 200; i++ {
		id := exportSpanID(trace, i)
		if id.IsZero() {
			t.Fatalf("zero span ID for %d", i)
		}
		if seen[id] {
			t.Fatalf("span ID collision at %d", i)
		}
		seen[id] = true
	}
	other := NewTraceID()
	if exportSpanID(trace, 1) == exportSpanID(other, 1) {
		t.Fatal("span IDs should differ across traces")
	}
}

func TestFineChildGating(t *testing.T) {
	tr := NewTracer()
	ctx, root := Span(WithTracer(context.Background(), tr), "root")
	_ = ctx
	if sp := root.FineChild("fine"); sp != nil {
		t.Fatal("FineChild on a coarse tracer should be a no-op")
	}
	if sp := root.Child("coarse-child"); sp == nil {
		t.Fatal("Child should work regardless of the Fine flag")
	} else {
		sp.End()
	}
	tr.Fine = true
	sp := root.FineChild("fine")
	if sp == nil {
		t.Fatal("FineChild on a fine tracer returned nil")
	}
	sp.End()
	if sp.cpu != 0 {
		t.Fatal("fine spans must not sample CPU")
	}
	root.End()
	var nilSpan *SpanHandle
	if nilSpan.Child("x") != nil || nilSpan.FineChild("x") != nil {
		t.Fatal("nil-span children should be nil")
	}
}

func TestTracerExportParentage(t *testing.T) {
	tr := NewTracer()
	tr.Fine = true
	trace := NewTraceID()
	var remote SpanID
	remote[7] = 0xaa
	tr.SetTraceContext(trace, remote)

	ctx, root := Span(WithTracer(context.Background(), tr), "serve.request")
	_, child := Span(ctx, "core.disassemble")
	grand := child.FineChild("core.classify")
	leaf := grand.Child("core.classify.group")
	leaf.SetAttr("confidence", 0.5)
	leaf.End()
	grand.End()
	child.End()
	root.End()

	out := tr.Export()
	if out.Schema != TraceSchema {
		t.Fatalf("schema %q", out.Schema)
	}
	if out.TraceID != trace.String() {
		t.Fatalf("trace ID %q != %q", out.TraceID, trace)
	}
	if len(out.Spans) != 4 {
		t.Fatalf("expected 4 spans, got %d", len(out.Spans))
	}
	if out.Truncated || out.Dropped != 0 {
		t.Fatal("unexpected truncation")
	}
	byName := map[string]ExportedSpan{}
	for _, s := range out.Spans {
		byName[s.Name] = s
	}
	if byName["serve.request"].ParentID != remote.String() {
		t.Fatalf("root should link to the remote parent, got %q", byName["serve.request"].ParentID)
	}
	if byName["core.disassemble"].ParentID != byName["serve.request"].SpanID {
		t.Fatal("core.disassemble should parent to serve.request")
	}
	if byName["core.classify"].ParentID != byName["core.disassemble"].SpanID {
		t.Fatal("core.classify should parent to core.disassemble")
	}
	if byName["core.classify.group"].ParentID != byName["core.classify"].SpanID {
		t.Fatal("per-level span should parent to core.classify")
	}
	if got := byName["core.classify.group"].Attrs["confidence"]; got != 0.5 {
		t.Fatalf("attr lost: %v", got)
	}
	for i := 1; i < len(out.Spans); i++ {
		if out.Spans[i].StartNS < out.Spans[i-1].StartNS {
			t.Fatal("spans not ordered by start")
		}
	}
	if out.DurNS <= 0 {
		t.Fatal("trace duration not derived from spans")
	}
}

func TestTracerExportNoRemoteParent(t *testing.T) {
	tr := NewTracer()
	tr.SetTraceContext(NewTraceID(), SpanID{})
	_, root := Span(WithTracer(context.Background(), tr), "root")
	root.End()
	out := tr.Export()
	if out.Spans[0].ParentID != "" {
		t.Fatalf("root without a remote parent should have no parent ID, got %q", out.Spans[0].ParentID)
	}
}

func TestTracerExportTruncationMarker(t *testing.T) {
	tr := NewTracer()
	tr.Fine = true
	tr.MaxSpans = 2
	tr.SetTraceContext(NewTraceID(), SpanID{})
	_, root := Span(WithTracer(context.Background(), tr), "root")
	for i := 0; i < 5; i++ {
		root.Child(fmt.Sprintf("c%d", i)).End()
	}
	root.End()
	out := tr.Export()
	if !out.Truncated || out.Dropped != 4 {
		t.Fatalf("want truncated with 4 dropped, got truncated=%v dropped=%d", out.Truncated, out.Dropped)
	}
	if len(out.Spans) != 2 {
		t.Fatalf("cap not applied: %d spans", len(out.Spans))
	}
}

func TestReadExportedTraces(t *testing.T) {
	tr := NewTracer()
	tr.SetTraceContext(NewTraceID(), SpanID{})
	_, root := Span(WithTracer(context.Background(), tr), "root")
	root.End()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(tr.Export()); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("\n") // blank lines are skipped
	if err := enc.Encode(tr.Export()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadExportedTraces(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d traces, want 2", len(got))
	}

	if _, err := ReadExportedTraces(strings.NewReader("{not json\n")); err == nil {
		t.Fatal("invalid JSON should fail the read")
	}
	if _, err := ReadExportedTraces(strings.NewReader(`{"schema":"other.v9"}` + "\n")); err == nil {
		t.Fatal("unknown schema should fail the read")
	}
}

func TestWriteTraceTree(t *testing.T) {
	tr := NewTracer()
	tr.Fine = true
	tr.SetTraceContext(NewTraceID(), SpanID{})
	_, root := Span(WithTracer(context.Background(), tr), "serve.request")
	child := root.Child("core.disassemble")
	child.SetAttr("traces", 3)
	time.Sleep(2 * time.Millisecond)
	child.End()
	root.End()
	ex := tr.Export()
	ex.Status = 200
	ex.Template = "demo"
	ex.Reason = KeepForced

	var buf bytes.Buffer
	if err := WriteTraceTree(&buf, ex); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{ex.TraceID, "status=200", "template=demo", "kept=forced",
		"serve.request", "  core.disassemble", "traces=3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree output missing %q:\n%s", want, out)
		}
	}
	// Self time of the root excludes the child's duration: with a >=2ms child
	// inside, root self < root total.
	lines := strings.Split(out, "\n")
	var rootLine string
	for _, l := range lines {
		if strings.Contains(l, "serve.request") && !strings.HasPrefix(l, "trace ") {
			rootLine = l
		}
	}
	if rootLine == "" {
		t.Fatalf("no root row in:\n%s", out)
	}
}

// TestExportedTraceRoundTripProperty is the JSONL round-trip property: any
// exported span tree, written as JSONL and read back through the trace
// reader, reconstructs with identical IDs, names, parentage and a renderable
// tree (every non-root span's parent is present exactly as written).
func TestExportedTraceRoundTripProperty(t *testing.T) {
	testkit.Check(t, testkit.CheckConfig{Runs: 30}, func(g *testkit.G) error {
		tr := NewTracer()
		tr.Fine = true
		tr.SetTraceContext(NewTraceID(), SpanID{})
		_, root := Span(WithTracer(context.Background(), tr), "root")
		open := []*SpanHandle{root}
		n := g.IntBetween(1, 40)
		for i := 0; i < n; i++ {
			parent := open[g.Rng.Intn(len(open))]
			sp := parent.Child(fmt.Sprintf("span-%d", i))
			if g.Rng.Intn(2) == 0 {
				sp.SetAttr("k", g.Float64(0, 1))
			}
			sp.End()
			// Ended spans can still parent new children (IDs, not liveness,
			// define the tree); keep a few as future parents.
			if len(open) < 8 {
				open = append(open, sp)
			}
		}
		root.End()
		want := tr.Export()
		want.Status = 200 + g.Rng.Intn(300)
		want.Route = "disassemble"

		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(want); err != nil {
			return err
		}
		got, err := ReadExportedTraces(&buf)
		if err != nil {
			return err
		}
		if len(got) != 1 {
			return fmt.Errorf("read %d traces", len(got))
		}
		rt := got[0]
		if rt.TraceID != want.TraceID || rt.Status != want.Status || rt.Route != want.Route {
			return fmt.Errorf("header fields mangled: %+v vs %+v", rt, want)
		}
		if len(rt.Spans) != len(want.Spans) {
			return fmt.Errorf("span count %d != %d", len(rt.Spans), len(want.Spans))
		}
		ids := map[string]bool{}
		for _, s := range rt.Spans {
			ids[s.SpanID] = true
		}
		roots := 0
		for i, s := range rt.Spans {
			w := want.Spans[i]
			if s.SpanID != w.SpanID || s.ParentID != w.ParentID || s.Name != w.Name ||
				s.StartNS != w.StartNS || s.DurNS != w.DurNS {
				return fmt.Errorf("span %d mangled: %+v vs %+v", i, s, w)
			}
			if len(s.Attrs) != len(w.Attrs) {
				return fmt.Errorf("span %d attrs mangled", i)
			}
			if s.ParentID == "" {
				roots++
			} else if !ids[s.ParentID] {
				return fmt.Errorf("span %d parent %q missing from record", i, s.ParentID)
			}
		}
		if roots != 1 {
			return fmt.Errorf("expected exactly 1 root, got %d", roots)
		}
		// The tree reader must place every span: nodes reachable from the
		// roots equal the record size (no cycles, no orphans lost).
		var count func(ns []*traceTreeNode) int
		count = func(ns []*traceTreeNode) int {
			total := 0
			for _, n := range ns {
				total += 1 + count(n.children)
			}
			return total
		}
		if got := count(buildTraceTree(rt.Spans)); got != len(rt.Spans) {
			return fmt.Errorf("tree holds %d of %d spans", got, len(rt.Spans))
		}
		var render bytes.Buffer
		return WriteTraceTree(&render, rt)
	})
}

// Truncated and TraceID read tracer state for the tests; no non-test code
// asks for them.

// Truncated reports whether any span was discarded over the MaxSpans cap —
// the marker exported traces carry so a missing child reads as "cut off", not
// "never happened".
func (t *Tracer) Truncated() bool { return t.Dropped() > 0 }

// TraceID returns the tracer's trace ID (zero when SetTraceContext was never
// called — CLI session tracers).
func (t *Tracer) TraceID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.traceID
}
