package obs

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// fallbackTraceSeq feeds NewTraceID's counter fallback when crypto/rand is
// unavailable.
var fallbackTraceSeq atomic.Int64

// Trace identity follows the W3C trace-context shapes: a 16-byte trace ID
// shared by every span of one request, and 8-byte span IDs. The in-memory
// tracer keeps its cheap int64 span ids on the hot path; stable 8-byte IDs
// are derived only at export time (see exportSpanID), so a request that is
// tail-dropped never pays for ID derivation.

// TraceID is the 16-byte W3C trace identifier.
type TraceID [16]byte

// SpanID is the 8-byte W3C span identifier.
type SpanID [8]byte

// IsZero reports whether the ID is all-zero (the W3C invalid value).
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the ID is all-zero (the W3C invalid value).
func (id SpanID) IsZero() bool { return id == SpanID{} }

func (id TraceID) String() string { return hex.EncodeToString(id[:]) }
func (id SpanID) String() string  { return hex.EncodeToString(id[:]) }

// NewTraceID returns a random non-zero trace ID. crypto/rand never fails on
// the platforms we build for; if it somehow does, fall back to a counter so
// the ID is still non-zero and unique within the process.
func NewTraceID() TraceID {
	var id TraceID
	if _, err := rand.Read(id[:]); err == nil && !id.IsZero() {
		return id
	}
	binary.BigEndian.PutUint64(id[8:], uint64(fallbackTraceSeq.Add(1)))
	id[0] = 0xfa
	return id
}

// SetTraceContext fixes the tracer's trace ID and, when the request carried a
// valid traceparent, the caller's span ID that our root spans should link to.
// Call once before the first span starts; no-op on nil.
func (t *Tracer) SetTraceContext(trace TraceID, remoteParent SpanID) {
	if t == nil {
		return
	}
	t.traceID = trace
	t.remoteParent = remoteParent
}

// ParseTraceparent parses a W3C traceparent header value:
// "00-<32 lowercase hex>-<16 lowercase hex>-<2 hex flags>". Per the spec,
// uppercase hex is invalid, as are all-zero trace or parent IDs; future
// versions (>00) are accepted if the prefix through the flags field parses,
// version 0xff is invalid. sampled reports bit 0 of the flags — the caller
// asking for this request to be recorded.
func ParseTraceparent(header string) (trace TraceID, parent SpanID, sampled, ok bool) {
	if len(header) < 55 {
		return TraceID{}, SpanID{}, false, false
	}
	if strings.ContainsAny(header[:55], "ABCDEF") {
		return TraceID{}, SpanID{}, false, false
	}
	if header[2] != '-' || header[35] != '-' || header[52] != '-' {
		return TraceID{}, SpanID{}, false, false
	}
	ver := header[0:2]
	if ver == "ff" {
		return TraceID{}, SpanID{}, false, false
	}
	var verByte [1]byte
	if _, err := hex.Decode(verByte[:], []byte(ver)); err != nil {
		return TraceID{}, SpanID{}, false, false
	}
	if ver == "00" && len(header) != 55 {
		return TraceID{}, SpanID{}, false, false
	}
	if len(header) > 55 && header[55] != '-' {
		return TraceID{}, SpanID{}, false, false
	}
	if _, err := hex.Decode(trace[:], []byte(header[3:35])); err != nil {
		return TraceID{}, SpanID{}, false, false
	}
	if _, err := hex.Decode(parent[:], []byte(header[36:52])); err != nil {
		return TraceID{}, SpanID{}, false, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(header[53:55])); err != nil {
		return TraceID{}, SpanID{}, false, false
	}
	if trace.IsZero() || parent.IsZero() {
		return TraceID{}, SpanID{}, false, false
	}
	return trace, parent, flags[0]&0x01 != 0, true
}

// FormatTraceparent renders a version-00 traceparent value. The sampled flag
// reports our tail-sampling intent back to the caller; tail sampling decides
// after the fact, so we always echo 01 ("may be recorded"). The value is
// formatted in one stack buffer, so the returned string is its only
// allocation.
func FormatTraceparent(trace TraceID, span SpanID, sampled bool) string {
	var b [55]byte
	copy(b[:3], "00-")
	hex.Encode(b[3:35], trace[:])
	b[35] = '-'
	hex.Encode(b[36:52], span[:])
	copy(b[52:], "-00")
	if sampled {
		b[54] = '1'
	}
	return string(b[:])
}

// TraceSchema names the exported trace record shape; bump on breaking change.
const TraceSchema = "scdis.trace.v1"

// ExportedSpan is one span of an exported trace: OTLP-inspired flat record
// with IDs in lowercase hex, nanosecond start offset from the trace anchor,
// and nanosecond duration.
type ExportedSpan struct {
	SpanID   string             `json:"span_id"`
	ParentID string             `json:"parent_id,omitempty"`
	Name     string             `json:"name"`
	StartNS  int64              `json:"start_ns"`
	DurNS    int64              `json:"dur_ns"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
}

// ExportedTrace is one JSONL record of a trace export file: the whole span
// tree of one request in a single line, plus the request-level fields the
// sampler decided on.
type ExportedTrace struct {
	Schema    string         `json:"schema"`
	TraceID   string         `json:"trace_id"`
	Start     time.Time      `json:"start"`
	DurNS     int64          `json:"dur_ns"`
	Route     string         `json:"route,omitempty"`
	Template  string         `json:"template,omitempty"`
	Status    int            `json:"status,omitempty"`
	RequestID string         `json:"request_id,omitempty"`
	Reason    string         `json:"reason,omitempty"` // why the tail sampler kept it
	Truncated bool           `json:"truncated,omitempty"`
	Dropped   int64          `json:"dropped_spans,omitempty"`
	Spans     []ExportedSpan `json:"spans"`
}

// exportSpanID derives the stable 8-byte span ID for in-memory span id from
// the trace ID — FNV-1a over the trace ID bytes and the int64. Deterministic
// per (trace, span), vanishingly unlikely to collide within a trace, and
// costs nothing until export time.
func exportSpanID(trace TraceID, id int64) SpanID {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range trace {
		h ^= uint64(b)
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(id >> (8 * i)))
		h *= prime64
	}
	var out SpanID
	binary.BigEndian.PutUint64(out[:], h)
	if out.IsZero() {
		out[7] = 1
	}
	return out
}

// ExportID returns the span's export-time span ID. Zero for nil spans.
func (s *SpanHandle) ExportID() SpanID {
	if s == nil || s.tracer == nil {
		return SpanID{}
	}
	return exportSpanID(s.tracer.traceID, s.id)
}

// Export assembles the tracer's recorded spans into one ExportedTrace.
// Root spans (no in-memory parent) link to the remote parent from the
// incoming traceparent, if any, so the caller's tooling can stitch trees
// across services. Spans are ordered by start offset.
func (t *Tracer) Export() ExportedTrace {
	out := ExportedTrace{Schema: TraceSchema}
	if t == nil {
		return out
	}
	t.mu.Lock()
	spans := make([]*SpanHandle, len(t.spans))
	copy(spans, t.spans)
	start := t.start
	t.mu.Unlock()

	out.TraceID = t.traceID.String()
	out.Start = start
	out.Dropped = t.Dropped()
	out.Truncated = out.Dropped > 0

	remote := ""
	if !t.remoteParent.IsZero() {
		remote = t.remoteParent.String()
	}
	have := make(map[int64]bool, len(spans))
	for _, s := range spans {
		have[s.id] = true
	}
	out.Spans = make([]ExportedSpan, 0, len(spans))
	var maxEnd int64
	for _, s := range spans {
		es := ExportedSpan{
			SpanID:  exportSpanID(t.traceID, s.id).String(),
			Name:    s.name,
			StartNS: s.start.Sub(start).Nanoseconds(),
			DurNS:   s.wall.Nanoseconds(),
		}
		switch {
		case s.parent != 0 && have[s.parent]:
			es.ParentID = exportSpanID(t.traceID, s.parent).String()
		case s.parent != 0:
			// Parent fell to the span cap: orphan the child at the root
			// rather than pointing at an ID absent from the record.
			es.ParentID = ""
		default:
			es.ParentID = remote
		}
		es.Attrs = s.attrMap()
		if end := es.StartNS + es.DurNS; end > maxEnd {
			maxEnd = end
		}
		out.Spans = append(out.Spans, es)
	}
	sort.SliceStable(out.Spans, func(i, j int) bool { return out.Spans[i].StartNS < out.Spans[j].StartNS })
	out.DurNS = maxEnd
	return out
}

// ReadExportedTraces reads a JSONL trace export stream, skipping blank lines.
// Records with an unknown schema or invalid JSON stop the read with an error
// naming the line, so a corrupt export fails loudly instead of rendering a
// partial tree.
func ReadExportedTraces(r io.Reader) ([]ExportedTrace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []ExportedTrace
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var tr ExportedTrace
		if err := json.Unmarshal([]byte(raw), &tr); err != nil {
			return nil, fmt.Errorf("trace export line %d: %w", line, err)
		}
		if tr.Schema != TraceSchema {
			return nil, fmt.Errorf("trace export line %d: schema %q (want %q)", line, tr.Schema, TraceSchema)
		}
		out = append(out, tr)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace export line %d: %w", line, err)
	}
	return out, nil
}

// traceTreeNode is the assembled form of one exported span for rendering.
type traceTreeNode struct {
	span     ExportedSpan
	children []*traceTreeNode
}

// buildTraceTree links exported spans into root nodes. Spans whose parent ID
// is absent from the record (remote parents, cap-orphaned spans) become
// roots. Children are ordered by start offset.
func buildTraceTree(spans []ExportedSpan) []*traceTreeNode {
	nodes := make(map[string]*traceTreeNode, len(spans))
	for i := range spans {
		nodes[spans[i].SpanID] = &traceTreeNode{span: spans[i]}
	}
	var roots []*traceTreeNode
	for i := range spans {
		n := nodes[spans[i].SpanID]
		if p, ok := nodes[spans[i].ParentID]; ok && p != n {
			p.children = append(p.children, n)
		} else {
			roots = append(roots, n)
		}
	}
	order := func(ns []*traceTreeNode) {
		sort.SliceStable(ns, func(i, j int) bool { return ns[i].span.StartNS < ns[j].span.StartNS })
	}
	for _, n := range nodes {
		order(n.children)
	}
	order(roots)
	return roots
}

// WriteTraceTree renders one exported trace as an indented tree with total
// (span duration) and self (duration minus direct children) times — the
// `scdis trace` output.
func WriteTraceTree(w io.Writer, tr ExportedTrace) error {
	status := ""
	if tr.Status != 0 {
		status = fmt.Sprintf(" status=%d", tr.Status)
	}
	tmpl := ""
	if tr.Template != "" {
		tmpl = " template=" + tr.Template
	}
	reason := ""
	if tr.Reason != "" {
		reason = " kept=" + tr.Reason
	}
	if _, err := fmt.Fprintf(w, "trace %s%s%s%s total=%s spans=%d\n",
		tr.TraceID, tmpl, status, reason, fmtMS(float64(tr.DurNS)/1e6), len(tr.Spans)); err != nil {
		return err
	}
	if tr.Truncated {
		if _, err := fmt.Fprintf(w, "  (truncated: %d spans dropped over the per-trace cap)\n", tr.Dropped); err != nil {
			return err
		}
	}
	if len(tr.Spans) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "  %-52s %10s %10s\n", "span", "total", "self"); err != nil {
		return err
	}
	var walk func(n *traceTreeNode, depth int) error
	walk = func(n *traceTreeNode, depth int) error {
		self := n.span.DurNS
		for _, c := range n.children {
			self -= c.span.DurNS
		}
		if self < 0 {
			self = 0 // concurrent children can sum past the parent's wall time
		}
		name := strings.Repeat("  ", depth) + n.span.Name
		if len(name) > 52 {
			name = name[:49] + "..."
		}
		attrs := ""
		if len(n.span.Attrs) > 0 {
			keys := make([]string, 0, len(n.span.Attrs))
			for k := range n.span.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, len(keys))
			for i, k := range keys {
				parts[i] = fmt.Sprintf("%s=%.4g", k, n.span.Attrs[k])
			}
			attrs = "  {" + strings.Join(parts, " ") + "}"
		}
		if _, err := fmt.Fprintf(w, "  %-52s %10s %10s%s\n",
			name, fmtMS(float64(n.span.DurNS)/1e6), fmtMS(float64(self)/1e6), attrs); err != nil {
			return err
		}
		for _, c := range n.children {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range buildTraceTree(tr.Spans) {
		if err := walk(r, 0); err != nil {
			return err
		}
	}
	return nil
}
