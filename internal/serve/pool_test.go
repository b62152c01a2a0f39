package serve

// Tests of the serving pools: retention caps, the body deadline as the
// connection sees it, and that recycled batches, response buffers and
// request tracers never carry one request's data into another's.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// TestPoolsRefuseOverCapObjects pins the retention caps: a batch whose body
// or samples pass maxPooledBytes, a response buffer past it and a tracer
// that hit its span cap go to the GC instead of back to their pools, while
// the same objects under the caps go back.
func TestPoolsRefuseOverCapObjects(t *testing.T) {
	frame := func(traces, n int) *traceBatch {
		b := new(traceBatch)
		r := httptest.NewRequest(http.MethodPost, "/v1/disassemble/demo", bytes.NewReader(encodeFrame(randomBatch(traces, n, 7))))
		r.Header.Set("Content-Type", "application/octet-stream")
		if _, err := b.read(r, 256<<20, n); err != nil {
			t.Fatal(err)
		}
		return b
	}
	if b := frame(64, benchTraceLen); !batches.put(b) {
		t.Errorf("a 64x%d batch (%d bytes) was refused by its pool", benchTraceLen, b.retainedBytes())
	}
	// 64 traces of 2100 samples hold 1.03 MiB of samples.
	bigSamples := frame(64, 2100)
	bigBody := &traceBatch{body: make([]byte, 0, maxPooledBytes+1)}
	for name, b := range map[string]*traceBatch{"samples": bigSamples, "body": bigBody} {
		if batches.put(b) {
			t.Errorf("a batch over the cap in its %s (%d bytes) went back to its pool", name, b.retainedBytes())
		}
	}

	rb := responses.get()
	rb.buf.Reset()
	rb.buf.Grow(64 << 10)
	if !responses.put(rb) {
		t.Error("a 64 KiB response buffer was refused by its pool")
	}
	big := responses.get()
	big.buf.Reset()
	big.buf.Grow(maxPooledBytes + 1)
	if responses.put(big) {
		t.Errorf("a %d-byte response buffer went back to its pool", big.buf.Cap())
	}

	tr := requestTracers.get()
	tr.Reset()
	ctx := obs.WithTracer(context.Background(), tr)
	for i := 0; i < traceMaxSpans; i++ {
		_, sp := obs.Span(ctx, "fill")
		sp.End()
	}
	if !requestTracers.put(tr) {
		t.Errorf("a tracer holding %d spans, at its cap, was refused by its pool", traceMaxSpans)
	}
	full := requestTracers.get()
	full.Reset()
	ctx = obs.WithTracer(context.Background(), full)
	for i := 0; i <= traceMaxSpans; i++ {
		_, sp := obs.Span(ctx, "fill")
		sp.End()
	}
	if requestTracers.put(full) {
		t.Errorf("a tracer that dropped %d spans over its cap went back to its pool", full.Dropped())
	}

	// None of the refused objects can come back out.
	for i := 0; i < 8; i++ {
		if b := batches.get(); b == bigSamples || b == bigBody {
			t.Fatal("an over-cap batch came back out of the pool")
		}
		if rb := responses.get(); rb == big {
			t.Fatal("an over-cap response buffer came back out of the pool")
		}
		if tr := requestTracers.get(); tr == full {
			t.Fatal("a tracer over its span cap came back out of the pool")
		}
	}
}

// deadlineRecorder is a ResponseWriter that records every read deadline set
// on it, with the decode slots in use at the time, and how many deadlines
// had been set when the first response byte was written.
type deadlineRecorder struct {
	*httptest.ResponseRecorder
	adm         *parallel.Admission
	deadlines   []time.Time
	inFlight    []int
	beforeWrite int // deadlines set before the first response byte; -1 until then
}

func (d *deadlineRecorder) SetReadDeadline(t time.Time) error {
	d.deadlines = append(d.deadlines, t)
	d.inFlight = append(d.inFlight, d.adm.InFlight())
	return nil
}

func (d *deadlineRecorder) WriteHeader(code int) {
	d.noteWrite()
	d.ResponseRecorder.WriteHeader(code)
}

func (d *deadlineRecorder) Write(p []byte) (int, error) {
	d.noteWrite()
	return d.ResponseRecorder.Write(p)
}

func (d *deadlineRecorder) noteWrite() {
	if d.beforeWrite < 0 {
		d.beforeWrite = len(d.deadlines)
	}
}

// TestServeBodyDeadlineSetAndCleared pins the body deadline as the
// connection sees it: the handler sets a non-zero read deadline once the
// request holds a decode slot, and clears it (a zero deadline) before the
// first response byte. It serves through a ResponseWriter that records the
// calls, which http.ResponseController reaches through statusWriter.Unwrap,
// so it does not depend on net/http clearing a deadline by itself when the
// body reaches EOF.
func TestServeBodyDeadlineSetAndCleared(t *testing.T) {
	reg, _ := newTestRegistry(t, RegistryConfig{})
	s := NewServer(reg, Config{})
	for _, c := range []struct {
		name, contentType string
		body              []byte
	}{
		{"json", "application/json", marshalBatch(fx.traces)},
		{"frame", "application/octet-stream", encodeFrame(fx.traces)},
	} {
		rec := &deadlineRecorder{ResponseRecorder: httptest.NewRecorder(), adm: s.adm, beforeWrite: -1}
		r := httptest.NewRequest(http.MethodPost, "/v1/disassemble/demo", bytes.NewReader(c.body))
		r.Header.Set("Content-Type", c.contentType)
		s.Handler().ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.name, rec.Code, rec.Body)
		}
		if len(rec.deadlines) == 0 || rec.deadlines[0].IsZero() || rec.inFlight[0] != 1 {
			t.Fatalf("%s: deadlines %v with %v slots in use; want a non-zero deadline first, set while holding a slot", c.name, rec.deadlines, rec.inFlight)
		}
		cleared := false
		for _, d := range rec.deadlines[1:max(rec.beforeWrite, 1)] {
			cleared = cleared || d.IsZero()
		}
		if !cleared {
			t.Fatalf("%s: deadlines %v, %d before the first response byte; want a zero deadline before it", c.name, rec.deadlines, rec.beforeWrite)
		}
	}
}

// pooledRequest is one request of TestPooledRequestsIsolated.
type pooledRequest struct {
	frame      bool   // a 64-trace frame, else a 1-trace JSON body
	traceQuery bool   // ?trace=1
	parent     string // the caller's span ID of a sampled traceparent, or ""
	traces     [][]float64
	want       []string // the serial decode's listing
}

// pooledOutcome is what one pooledRequest got back.
type pooledOutcome struct {
	req     pooledRequest
	traceID string
	resp    DisassembleResponse
}

// postPooled sends pr and checks its listing against the serial decode.
func postPooled(url string, pr pooledRequest) (pooledOutcome, error) {
	body, contentType := marshalBatch(pr.traces), "application/json"
	if pr.frame {
		body, contentType = encodeFrame(pr.traces), "application/octet-stream"
	}
	target := url + "/v1/disassemble/demo"
	if pr.traceQuery {
		target += "?trace=1"
	}
	req, err := http.NewRequest(http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		return pooledOutcome{}, err
	}
	req.Header.Set("Content-Type", contentType)
	var tid obs.TraceID
	if pr.parent != "" {
		tid = obs.NewTraceID()
		req.Header.Set("traceparent", "00-"+tid.String()+"-"+pr.parent+"-01")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return pooledOutcome{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return pooledOutcome{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return pooledOutcome{}, fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	echoed, _, _, ok := obs.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok || pr.parent != "" && echoed != tid {
		return pooledOutcome{}, fmt.Errorf("traceparent echo %q does not carry the request's trace", resp.Header.Get("traceparent"))
	}
	out := pooledOutcome{req: pr, traceID: echoed.String()}
	if err := json.Unmarshal(data, &out.resp); err != nil {
		return pooledOutcome{}, err
	}
	if len(out.resp.Decoded) != len(pr.want) {
		return pooledOutcome{}, fmt.Errorf("decoded %d instructions, sent %d traces", len(out.resp.Decoded), len(pr.want))
	}
	for i, d := range out.resp.Decoded {
		if d.Text != pr.want[i] {
			return pooledOutcome{}, fmt.Errorf("decode %d = %q, serial reference %q", i, d.Text, pr.want[i])
		}
	}
	return out, nil
}

// checkLevelSpans checks one core.classify span's level children, given as
// name → attrs, against the response's record of that trace.
func checkLevelSpans(levels map[string]map[string]float64, dec DecodedInstr) error {
	if len(levels) != len(dec.Levels) {
		return fmt.Errorf("trace %d: %d level spans, %d levels decided", dec.Index, len(levels), len(dec.Levels))
	}
	for _, lv := range dec.Levels {
		attrs, ok := levels["core.classify."+lv.Level]
		if !ok {
			return fmt.Errorf("trace %d: no span for level %s", dec.Index, lv.Level)
		}
		if attrs["label"] != float64(lv.Label) || attrs["confidence"] != lv.Confidence || attrs["margin"] != lv.Margin {
			return fmt.Errorf("trace %d level %s: span attrs %v, decided %+v", dec.Index, lv.Level, attrs, lv)
		}
	}
	return nil
}

// spanAttrKeys are the attributes each span of a decode request may carry;
// a recycled span showing any other kept one from an earlier request.
var spanAttrKeys = map[string][]string{
	"serve.request":           {"status"},
	"parallel.admission.wait": {"queued.depth", "rejected", "canceled"},
	"serve.template.load":     nil,
	"serve.decode.body":       {"traces"},
	"core.disassemble":        {"traces", "confidence.mean", "drift.score", "drift.state", "decisions.seen"},
	"core.classify":           {"trace", "confidence", "error"},
	"core.classify.group":     {"label", "confidence", "margin"},
	"core.classify.instr":     {"label", "confidence", "margin"},
	"core.classify.rd":        {"label", "confidence", "margin"},
	"core.classify.rr":        {"label", "confidence", "margin"},
}

// checkAttrKeys fails on a span name or attribute a decode request never
// sets.
func checkAttrKeys(name string, attrs map[string]float64) error {
	allowed, ok := spanAttrKeys[name]
	if !ok {
		return fmt.Errorf("unexpected span %s", name)
	}
	for k := range attrs {
		if !slices.Contains(allowed, k) {
			return fmt.Errorf("span %s carries attribute %s", name, k)
		}
	}
	return nil
}

// checkExport checks a kept request's exported trace: one root, linked to
// the caller's span when a traceparent named one; every other parent inside
// the trace; only the attributes each span sets; one core.classify span per
// trace sent, each carrying its own index and confidence, with level spans
// carrying the response's labels.
func checkExport(tr obs.ExportedTrace, o pooledOutcome) error {
	ids := make(map[string]bool, len(tr.Spans))
	for _, sp := range tr.Spans {
		ids[sp.SpanID] = true
		if err := checkAttrKeys(sp.Name, sp.Attrs); err != nil {
			return err
		}
	}
	roots := 0
	classify := map[string]int{} // span ID → trace index
	for _, sp := range tr.Spans {
		switch {
		case !ids[sp.ParentID]:
			roots++
			if sp.Name != "serve.request" || sp.ParentID != o.req.parent || sp.Attrs["status"] != http.StatusOK {
				return fmt.Errorf("root %s parent %q attrs %v, want serve.request under %q with status 200", sp.Name, sp.ParentID, sp.Attrs, o.req.parent)
			}
		case sp.Name == "serve.decode.body" && sp.Attrs["traces"] != float64(len(o.req.traces)):
			return fmt.Errorf("serve.decode.body attrs %v for %d traces", sp.Attrs, len(o.req.traces))
		case sp.Name == "core.classify":
			classify[sp.SpanID] = int(sp.Attrs["trace"])
		}
	}
	if roots != 1 || len(classify) != len(o.req.traces) {
		return fmt.Errorf("%d roots and %d core.classify spans for %d traces", roots, len(classify), len(o.req.traces))
	}
	levels := make(map[int]map[string]map[string]float64)
	seen := make(map[int]bool)
	for _, sp := range tr.Spans {
		if i, ok := classify[sp.SpanID]; ok {
			if i < 0 || i >= len(o.req.traces) || seen[i] {
				return fmt.Errorf("core.classify trace attr %d repeated or out of range", i)
			}
			seen[i] = true
			if sp.Attrs["confidence"] != o.resp.Decoded[i].Confidence {
				return fmt.Errorf("trace %d: span confidence %v, response %v", i, sp.Attrs["confidence"], o.resp.Decoded[i].Confidence)
			}
		}
		if i, ok := classify[sp.ParentID]; ok {
			if levels[i] == nil {
				levels[i] = map[string]map[string]float64{}
			}
			levels[i][sp.Name] = sp.Attrs
		}
	}
	for i, dec := range o.resp.Decoded {
		if err := checkLevelSpans(levels[i], dec); err != nil {
			return err
		}
	}
	return nil
}

// checkTree checks a ?trace=1 response's stage tree: the handler's stages at
// the top (the root span is still open when the tree is built), one
// core.disassemble whose core.classify children are this request's traces
// with its decisions' labels.
func checkTree(o pooledOutcome) error {
	var disassemble *obs.SpanNode
	for _, n := range o.resp.Spans {
		switch n.Name {
		case "parallel.admission.wait", "serve.template.load":
		case "serve.decode.body":
			if n.Attrs["traces"] != float64(len(o.req.traces)) {
				return fmt.Errorf("tree: serve.decode.body attrs %v for %d traces", n.Attrs, len(o.req.traces))
			}
		case "core.disassemble":
			if disassemble != nil {
				return fmt.Errorf("tree: two core.disassemble spans")
			}
			disassemble = n
		default:
			return fmt.Errorf("tree: unexpected top-level span %s", n.Name)
		}
	}
	if disassemble == nil || disassemble.Attrs["traces"] != float64(len(o.req.traces)) || len(disassemble.Children) != len(o.req.traces) {
		return fmt.Errorf("tree: core.disassemble %+v for %d traces", disassemble, len(o.req.traces))
	}
	var walk func(n *obs.SpanNode) error
	walk = func(n *obs.SpanNode) error {
		if err := checkAttrKeys(n.Name, n.Attrs); err != nil {
			return fmt.Errorf("tree: %w", err)
		}
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	for _, n := range o.resp.Spans {
		if err := walk(n); err != nil {
			return err
		}
	}
	seen := make(map[int]bool)
	for _, c := range disassemble.Children {
		i := int(c.Attrs["trace"])
		if c.Name != "core.classify" || i < 0 || i >= len(o.req.traces) || seen[i] {
			return fmt.Errorf("tree: child %s with trace attr %v", c.Name, c.Attrs["trace"])
		}
		seen[i] = true
		levels := make(map[string]map[string]float64, len(c.Children))
		for _, l := range c.Children {
			levels[l.Name] = l.Attrs
		}
		if err := checkLevelSpans(levels, o.resp.Decoded[i]); err != nil {
			return fmt.Errorf("tree: %w", err)
		}
	}
	return nil
}

// TestPooledRequestsIsolated is the lifetime test of the pools: two decode
// slots on two workers serve interleaved 64-trace frames and 1-trace JSON
// requests, half of them forced to keep (?trace=1 or a sampled
// traceparent), so batches, response buffers and tracers pass between
// requests of different shapes. Every listing must equal the serial decode,
// and every kept export and ?trace=1 tree must hold only its own request's
// spans, parents and attributes. Run it with -race -count=10.
func TestPooledRequestsIsolated(t *testing.T) {
	parallel.SetWorkers(2)
	t.Cleanup(func() { parallel.SetWorkers(0) })
	const clients, perClient = 4, 6
	url, sink, exp, _ := tracedServer(t, obs.NewTailSampler(0, nil), Config{MaxInFlight: 2, MaxQueue: clients})

	var mu sync.Mutex
	var outcomes []pooledOutcome
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				k := c*perClient + i
				pr := pooledRequest{frame: k%2 == 0}
				n := 1
				if pr.frame {
					n = 64
				}
				for j := 0; j < n; j++ {
					pr.traces = append(pr.traces, fx.traces[(k+j)%len(fx.traces)])
					pr.want = append(pr.want, fx.want[(k+j)%len(fx.traces)])
				}
				// Frames and JSON bodies each keep through both routes.
				switch k % 8 {
				case 0, 5:
					pr.traceQuery = true
				case 1, 4:
					pr.parent = fmt.Sprintf("%016x", 0xa000+k)
				}
				o, err := postPooled(url, pr)
				if err != nil {
					errs <- fmt.Errorf("request %d: %w", k, err)
					return
				}
				if pr.traceQuery {
					if err := checkTree(o); err != nil {
						errs <- fmt.Errorf("request %d: %w", k, err)
						return
					}
				}
				mu.Lock()
				outcomes = append(outcomes, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	byTrace := make(map[string]pooledOutcome, len(outcomes))
	kept := 0
	for _, o := range outcomes {
		if o.req.traceQuery || o.req.parent != "" {
			byTrace[o.traceID] = o
			kept++
		}
	}
	if kept != clients*perClient/2 {
		t.Fatalf("%d of %d requests forced to keep, want half", kept, clients*perClient)
	}
	traces := readExportSink(t, exp, sink)
	if len(traces) != kept {
		t.Fatalf("exported %d traces, %d requests forced to keep", len(traces), kept)
	}
	for _, tr := range traces {
		o, ok := byTrace[tr.TraceID]
		if !ok {
			t.Fatalf("exported trace %s is no kept request's", tr.TraceID)
		}
		delete(byTrace, tr.TraceID)
		if err := checkExport(tr, o); err != nil {
			t.Fatalf("trace %s (frame %v): %v", tr.TraceID, o.req.frame, err)
		}
	}
}
