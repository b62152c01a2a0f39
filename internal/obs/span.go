package obs

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer collects the spans of one run into a stage tree. It is safe for
// concurrent use: spans started from parallel workers record themselves
// under a single mutex at End (stage granularity, never per-point). The
// span count is capped so a runaway loop cannot exhaust memory.
//
// A tracer keeps the span handles it hands out, up to MaxSpans, and Reset
// recycles them together with its span slice, so a tracer reused run after
// run (the server's pooled request tracers) records a tree of the same
// shape without allocating.
type Tracer struct {
	mu    sync.Mutex
	spans []*SpanHandle
	// handles are the span handles kept for recycling, at most MaxSpans;
	// handles[:used] belong to the current run.
	handles []*SpanHandle
	used    int
	nextID  atomic.Int64
	start   time.Time
	dropped atomic.Int64
	// MaxSpans bounds retained spans; extra spans are counted in Dropped.
	MaxSpans int
	// Fine opts the tracer into fine-grained spans (per-trace, per-level
	// classification) started with SpanHandle.FineChild. Request tracers set
	// it; the CLI session tracer leaves it off so the end-of-run stage table
	// stays at stage granularity and batch runs pay nothing per trace.
	Fine bool

	// W3C trace-context identity (see trace.go): the trace ID every exported
	// span carries, and the caller's span ID when the request arrived with a
	// traceparent header. Set once via SetTraceContext before spans start.
	traceID      TraceID
	remoteParent SpanID
}

// NewTracer returns an empty tracer anchored at the current time.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now(), MaxSpans: 8192}
}

// maxSpans is MaxSpans, defaulted.
func (t *Tracer) maxSpans() int {
	if t.MaxSpans <= 0 {
		return 8192
	}
	return t.MaxSpans
}

// Reset empties the tracer for its next run: it discards every recorded
// span, clears the drop count and the trace identity, and re-anchors the
// tracer at the current time. The previous run's span handles are recycled
// by the spans of the next, so Reset may only run once none of them is in
// use — for a request tracer, after the request's root span has ended and
// its trace has been exported or dropped. Without Reset, a tracer reused
// across runs would fill its MaxSpans cap once and then drop every span.
// No-op on a nil tracer.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.used = 0
	t.start = time.Now()
	t.traceID, t.remoteParent = TraceID{}, SpanID{}
	t.mu.Unlock()
	t.nextID.Store(0)
	t.dropped.Store(0)
}

// newSpan starts a span named name under parent (0 for a root): a recycled
// handle while the tracer has a spare one, otherwise a fresh handle, which
// the tracer keeps for its next run while it holds fewer than MaxSpans.
func (t *Tracer) newSpan(name string, parent int64) *SpanHandle {
	var s *SpanHandle
	t.mu.Lock()
	switch {
	case t.used < len(t.handles):
		s = t.handles[t.used]
		t.used++
		*s = SpanHandle{attrs: s.attrs[:0]}
	case len(t.handles) < t.maxSpans():
		s = &SpanHandle{}
		t.handles = append(t.handles, s)
		t.used++
	default:
		s = &SpanHandle{}
	}
	t.mu.Unlock()
	s.tracer = t
	s.id = t.nextID.Add(1)
	s.parent = parent
	s.name = name
	s.start = time.Now()
	return s
}

// Dropped reports how many spans were discarded over the MaxSpans cap.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
)

// WithTracer attaches a tracer to the context; Span calls below it record
// into the tracer.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, t)
}

// TracerFrom returns the tracer attached to ctx, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// ContextSpan returns the innermost active span of ctx, or nil. Parallel
// loops use it to attribute per-body busy time to the enclosing stage.
func ContextSpan(ctx context.Context) *SpanHandle {
	s, _ := ctx.Value(spanKey).(*SpanHandle)
	return s
}

// Span is one timed stage of a run. Started by obs.Span, finished by End.
// A nil *SpanHandle is a valid no-op handle — the no-tracer fast path.
type SpanHandle struct {
	tracer   *Tracer
	id       int64
	parent   int64
	name     string
	start    time.Time
	cpuStart int64

	wall    time.Duration
	cpu     time.Duration
	busy    atomic.Int64 // ns of parallel-body work attributed to this span
	workers atomic.Int64 // max worker count observed by loops under this span
	ended   atomic.Bool

	attrMu sync.Mutex
	attrs  []spanAttr // in first-set order, one per name
}

// spanAttr is one named attribute of a span. A span holds a handful, so a
// slice scanned by name costs less than a map, and a recycled span keeps
// the slice's capacity.
type spanAttr struct {
	name string
	v    float64
}

// SetAttr attaches a named numeric attribute to the span (drift score,
// decisions recorded, mean confidence...), rendered in the span tree and
// manifest; setting a name again replaces its value. Non-finite values are
// dropped so the trace JSON stays valid. No-op on a nil receiver.
func (s *SpanHandle) SetAttr(name string, v float64) {
	if s == nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	s.attrMu.Lock()
	defer s.attrMu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].name == name {
			s.attrs[i].v = v
			return
		}
	}
	if s.attrs == nil {
		s.attrs = make([]spanAttr, 0, 4)
	}
	s.attrs = append(s.attrs, spanAttr{name, v})
}

// attrMap copies the span's attributes into a new map, or returns nil when
// it has none: only the trees and exports a tracer returns build maps.
func (s *SpanHandle) attrMap() map[string]float64 {
	s.attrMu.Lock()
	defer s.attrMu.Unlock()
	if len(s.attrs) == 0 {
		return nil
	}
	m := make(map[string]float64, len(s.attrs))
	for _, a := range s.attrs {
		m[a.name] = a.v
	}
	return m
}

// Span starts a named span under ctx's tracer (nesting under ctx's current
// span) and returns a derived context carrying the new span. When ctx has no
// tracer the input context and a nil handle are returned — zero cost beyond
// two context lookups.
func Span(ctx context.Context, name string) (context.Context, *SpanHandle) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	var parent int64
	if p := ContextSpan(ctx); p != nil {
		parent = p.id
	}
	sp := t.newSpan(name, parent)
	sp.cpuStart = processCPUNanos()
	return context.WithValue(ctx, spanKey, sp), sp
}

// Child starts a named span under s without deriving a context — the
// explicit-parent fast path for callers that already hold the parent handle
// (per-trace loops where a context.WithValue per iteration would dominate).
// Wall-clock only: no CPU sampling. Nil-safe: a nil parent yields a nil
// (no-op) child.
func (s *SpanHandle) Child(name string) *SpanHandle {
	if s == nil || s.tracer == nil {
		return nil
	}
	return s.tracer.newSpan(name, s.id)
}

// FineChild is Child gated on the tracer's Fine flag: request tracers get the
// per-trace span, the CLI session tracer (and any coarse tracer) gets a nil
// no-op handle and pays only the flag check.
func (s *SpanHandle) FineChild(name string) *SpanHandle {
	if s == nil || s.tracer == nil || !s.tracer.Fine {
		return nil
	}
	return s.Child(name)
}

// End finishes the span, capturing wall and process-CPU time, and records it
// into the tracer. Safe to call once; extra calls and nil receivers are
// no-ops.
func (s *SpanHandle) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.wall = time.Since(s.start)
	// Fine spans never sampled CPU at start (cpuStart == 0): skip the
	// getrusage syscall entirely — process-wide CPU is meaningless for a
	// per-trace span under concurrency, and the syscall dwarfs the span body.
	if s.cpuStart > 0 {
		if c := processCPUNanos(); c > 0 {
			s.cpu = time.Duration(c - s.cpuStart)
		}
	}
	t := s.tracer
	t.mu.Lock()
	if len(t.spans) < t.maxSpans() {
		t.spans = append(t.spans, s)
	} else {
		t.dropped.Add(1)
		obsMet().spansDropped.Inc()
	}
	t.mu.Unlock()
}

// AddBusy attributes d of parallel-body work to the span. No-op on nil.
func (s *SpanHandle) AddBusy(d time.Duration) {
	if s == nil {
		return
	}
	s.busy.Add(int64(d))
}

// NoteWorkers records the worker count of a parallel loop running under the
// span (the maximum across loops wins). No-op on nil.
func (s *SpanHandle) NoteWorkers(w int) {
	if s == nil {
		return
	}
	for {
		old := s.workers.Load()
		if int64(w) <= old || s.workers.CompareAndSwap(old, int64(w)) {
			return
		}
	}
}

// SpanNode is one node of the rendered stage tree. Durations are in
// milliseconds; Utilization is busy/(wall·workers) in [0, 1] when parallel
// loop work was attributed to the span.
type SpanNode struct {
	Name        string             `json:"name"`
	StartMS     float64            `json:"start_ms"`
	WallMS      float64            `json:"wall_ms"`
	CPUMS       float64            `json:"cpu_ms,omitempty"`
	BusyMS      float64            `json:"busy_ms,omitempty"`
	Workers     int                `json:"workers,omitempty"`
	Utilization float64            `json:"utilization,omitempty"`
	Attrs       map[string]float64 `json:"attrs,omitempty"`
	Children    []*SpanNode        `json:"children,omitempty"`
}

// Tree assembles the recorded spans into root-level nodes ordered by start
// time. Returns nil on a nil tracer.
func (t *Tracer) Tree() []*SpanNode {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := make([]*SpanHandle, len(t.spans))
	copy(spans, t.spans)
	start := t.start
	t.mu.Unlock()

	nodes := make(map[int64]*SpanNode, len(spans))
	order := make(map[int64]time.Time, len(spans))
	for _, s := range spans {
		n := &SpanNode{
			Name:    s.name,
			StartMS: float64(s.start.Sub(start)) / float64(time.Millisecond),
			WallMS:  float64(s.wall) / float64(time.Millisecond),
			CPUMS:   float64(s.cpu) / float64(time.Millisecond),
			BusyMS:  float64(s.busy.Load()) / float64(time.Millisecond),
			Workers: int(s.workers.Load()),
		}
		if n.BusyMS > 0 && n.WallMS > 0 && n.Workers > 0 {
			n.Utilization = n.BusyMS / (n.WallMS * float64(n.Workers))
			if n.Utilization > 1 {
				n.Utilization = 1
			}
		}
		n.Attrs = s.attrMap()
		nodes[s.id] = n
		order[s.id] = s.start
	}
	var roots []*SpanNode
	rootStart := map[*SpanNode]time.Time{}
	for _, s := range spans {
		n := nodes[s.id]
		if p := nodes[s.parent]; p != nil {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
			rootStart[n] = order[s.id]
		}
	}
	for _, n := range nodes {
		children := n.Children
		sort.SliceStable(children, func(i, j int) bool { return children[i].StartMS < children[j].StartMS })
	}
	sort.SliceStable(roots, func(i, j int) bool { return rootStart[roots[i]].Before(rootStart[roots[j]]) })
	return roots
}

// WriteTable renders the stage tree as an indented, human-readable table —
// the end-of-run stderr summary. No output on a nil or empty tracer.
func (t *Tracer) WriteTable(w io.Writer) error {
	roots := t.Tree()
	if len(roots) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "%-44s %10s %10s %6s\n", "stage", "wall", "cpu", "util"); err != nil {
		return err
	}
	var walk func(n *SpanNode, depth int) error
	walk = func(n *SpanNode, depth int) error {
		name := strings.Repeat("  ", depth) + n.Name
		if len(name) > 44 {
			name = name[:41] + "..."
		}
		util := "-"
		if n.Utilization > 0 {
			util = fmt.Sprintf("%3.0f%%", n.Utilization*100)
		}
		if _, err := fmt.Fprintf(w, "%-44s %10s %10s %6s\n",
			name, fmtMS(n.WallMS), fmtMS(n.CPUMS), util); err != nil {
			return err
		}
		for _, c := range n.Children {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range roots {
		if err := walk(r, 0); err != nil {
			return err
		}
	}
	if d := t.Dropped(); d > 0 {
		if _, err := fmt.Fprintf(w, "(%d spans dropped over the %d-span cap)\n", d, t.MaxSpans); err != nil {
			return err
		}
	}
	return nil
}

// fmtMS renders a millisecond quantity with an adaptive unit.
func fmtMS(ms float64) string {
	switch {
	case ms <= 0:
		return "-"
	case ms < 1:
		return fmt.Sprintf("%.0fµs", ms*1000)
	case ms < 1000:
		return fmt.Sprintf("%.1fms", ms)
	default:
		return fmt.Sprintf("%.2fs", ms/1000)
	}
}
