package serve

// Request-tracing tests: traceparent ingestion/echo, span-tree export with
// correct parentage, tail-sampling policy under mixed load, the debug
// endpoints, and exemplar exposure — the serve-level half of the tracing
// pipeline (obs has the unit tests for the pieces).

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// tracedServer stands up a server whose exporter writes into a syncBuffer,
// with an injected tail sampler. Returns the base URL, the export sink, and
// the exporter (Close it before reading the sink).
func tracedServer(t *testing.T, sampler *obs.TailSampler, scfg Config) (string, *syncBuffer, *obs.TraceExporter, string) {
	t.Helper()
	reg, dir := newTestRegistry(t, RegistryConfig{})
	var sink syncBuffer
	exp := obs.NewTraceExporter(&sink, 1024)
	scfg.TraceExporter = exp
	scfg.TraceSampler = sampler
	s := NewServer(reg, scfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL, &sink, exp, dir
}

// echoedTrace parses the response's traceparent echo into its parts.
func echoedTrace(t *testing.T, resp *http.Response) (traceID, spanID string) {
	t.Helper()
	tp := resp.Header.Get("traceparent")
	tid, sid, sampled, ok := obs.ParseTraceparent(tp)
	if !ok {
		t.Fatalf("response traceparent %q does not parse", tp)
	}
	if !sampled {
		t.Fatalf("echoed traceparent %q not flagged sampled", tp)
	}
	return tid.String(), sid.String()
}

func readExportSink(t *testing.T, exp *obs.TraceExporter, sink *syncBuffer) []obs.ExportedTrace {
	t.Helper()
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	traces, err := obs.ReadExportedTraces(strings.NewReader(sink.String()))
	if err != nil {
		t.Fatalf("export sink is not valid trace JSONL: %v", err)
	}
	return traces
}

// TestTraceparentIngestionAndEcho pins the W3C handshake: an incoming
// traceparent fixes the trace ID, flags the trace kept, and links our root
// span under the caller's span; the echo names our root so the caller can
// stitch the trees. Without a header the server mints a fresh ID per request.
func TestTraceparentIngestionAndEcho(t *testing.T) {
	url, sink, exp, _ := tracedServer(t, obs.NewTailSampler(0, nil), Config{})

	const inTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const inParent = "00f067aa0ba902b7"
	req, _ := http.NewRequest("GET", url+"/livez", nil)
	req.Header.Set("traceparent", "00-"+inTrace+"-"+inParent+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tid, sid := echoedTrace(t, resp)
	if tid != inTrace {
		t.Fatalf("echoed trace ID %s, sent %s", tid, inTrace)
	}
	if sid == inParent || sid == strings.Repeat("0", 16) {
		t.Fatalf("echoed span ID %s must name our root, not the caller's span", sid)
	}

	// No header: fresh, distinct IDs per request.
	r1, err := http.Get(url + "/livez")
	if err != nil {
		t.Fatal(err)
	}
	r1.Body.Close()
	r2, err := http.Get(url + "/livez")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	t1, _ := echoedTrace(t, r1)
	t2, _ := echoedTrace(t, r2)
	if t1 == t2 || t1 == inTrace {
		t.Fatalf("fresh trace IDs not distinct: %s vs %s", t1, t2)
	}

	// The sampled flag on the incoming header forces the keep (rate is 0), and
	// the exported root is parented under the caller's span.
	traces := readExportSink(t, exp, sink)
	if len(traces) != 1 {
		t.Fatalf("exported %d traces, want 1 (only the sampled-flag request)", len(traces))
	}
	tr := traces[0]
	if tr.TraceID != inTrace || tr.Reason != obs.KeepForced {
		t.Fatalf("exported trace = %s reason %q", tr.TraceID, tr.Reason)
	}
	if len(tr.Spans) == 0 || tr.Spans[0].Name != "serve.request" {
		t.Fatalf("exported spans = %+v", tr.Spans)
	}
	if tr.Spans[0].ParentID != inParent {
		t.Fatalf("root parent = %q, want caller span %s", tr.Spans[0].ParentID, inParent)
	}
	if tr.Spans[0].SpanID != sid {
		t.Fatalf("exported root span %s, echoed %s", tr.Spans[0].SpanID, sid)
	}
}

// TestTracedDisassembleExportsFullSpanTree pins the headline acceptance
// criterion: a traced decode exports a span tree whose parentage is intact
// from the middleware root down through admission, body decode, template
// load, and per-trace/per-level classification.
func TestTracedDisassembleExportsFullSpanTree(t *testing.T) {
	url, sink, exp, _ := tracedServer(t, obs.NewTailSampler(0, nil), Config{})

	resp, _ := postJSON(t, url+"/v1/disassemble/demo?trace=1", jsonBody(fx.traces[:2]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	tid, _ := echoedTrace(t, resp)
	reqID := resp.Header.Get("X-Request-Id")

	traces := readExportSink(t, exp, sink)
	if len(traces) != 1 {
		t.Fatalf("exported %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.TraceID != tid {
		t.Fatalf("exported trace %s, echoed %s", tr.TraceID, tid)
	}
	if tr.Route != "disassemble" || tr.Template != "demo" || tr.Status != 200 {
		t.Fatalf("trace envelope = %s/%s/%d", tr.Route, tr.Template, tr.Status)
	}
	if tr.RequestID != reqID || tr.Reason != obs.KeepForced {
		t.Fatalf("request_id=%q reason=%q", tr.RequestID, tr.Reason)
	}
	if tr.Truncated {
		t.Fatal("small trace marked truncated")
	}

	ids := make(map[string]string, len(tr.Spans)) // span ID -> name
	names := make(map[string]int, len(tr.Spans))
	roots := 0
	for _, sp := range tr.Spans {
		ids[sp.SpanID] = sp.Name
		names[sp.Name]++
		if sp.ParentID == "" {
			roots++
		}
		// StartNS is the offset from the trace start, so the root sits at ~0
		// and no span starts before it.
		if sp.DurNS < 0 || sp.StartNS < 0 {
			t.Fatalf("span %s has bad timing: start %d dur %d", sp.Name, sp.StartNS, sp.DurNS)
		}
	}
	if roots != 1 || tr.Spans[0].Name != "serve.request" {
		t.Fatalf("want exactly one root serve.request, got %d roots, first span %q", roots, tr.Spans[0].Name)
	}
	for _, sp := range tr.Spans[1:] {
		if _, ok := ids[sp.ParentID]; !ok {
			t.Fatalf("span %s has dangling parent %q", sp.Name, sp.ParentID)
		}
	}
	for _, want := range []string{
		"serve.request", "parallel.admission.wait", "serve.template.load",
		"serve.decode.body", "core.disassemble", "core.classify", "core.classify.group",
	} {
		if names[want] == 0 {
			t.Fatalf("span tree missing %q; have %v", want, names)
		}
	}
	// One classify span per trace in the batch, each holding its level spans.
	if names["core.classify"] != 2 {
		t.Fatalf("core.classify spans = %d, want one per trace (2)", names["core.classify"])
	}
	// The tree renders (same path scdis trace takes).
	var sb strings.Builder
	if err := obs.WriteTraceTree(&sb, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "serve.request") {
		t.Fatalf("rendered tree:\n%s", sb.String())
	}
}

// TestConcurrentTracedRequestsIsolated is the race test: many in-flight
// traced requests must keep distinct trace identities, leak no spans across
// requests, and leave the exporter with one well-formed JSONL record each.
// Run with -race to make the isolation claim mean something.
func TestConcurrentTracedRequestsIsolated(t *testing.T) {
	const workers, perWorker = 12, 4
	// The queue holds every worker: with fewer CPUs than workers, slots plus
	// the default queue of 8 can be short of 12, and a shed 429 would fail
	// an isolation test that is not about admission.
	url, sink, exp, _ := tracedServer(t, obs.NewTailSampler(0, nil), Config{MaxInFlight: runtime.NumCPU(), MaxQueue: workers})

	var mu sync.Mutex
	seen := make(map[string]bool, workers*perWorker)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := http.Post(url+"/v1/disassemble/demo?trace=1", "application/json", jsonBody(fx.traces[:1]))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
				tid, _, _, ok := obs.ParseTraceparent(resp.Header.Get("traceparent"))
				if !ok {
					errs <- fmt.Errorf("bad traceparent echo %q", resp.Header.Get("traceparent"))
					return
				}
				mu.Lock()
				if seen[tid.String()] {
					mu.Unlock()
					errs <- fmt.Errorf("trace ID %s issued twice", tid)
					return
				}
				seen[tid.String()] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	traces := readExportSink(t, exp, sink)
	if len(traces) != workers*perWorker {
		t.Fatalf("exported %d traces, want %d", len(traces), workers*perWorker)
	}
	for _, tr := range traces {
		if !seen[tr.TraceID] {
			t.Fatalf("exported trace %s never issued to a client", tr.TraceID)
		}
		delete(seen, tr.TraceID) // each exported exactly once
		roots, classify := 0, 0
		ids := make(map[string]bool, len(tr.Spans))
		for _, sp := range tr.Spans {
			ids[sp.SpanID] = true
			if sp.ParentID == "" {
				roots++
			}
			if sp.Name == "core.classify" {
				classify++
			}
		}
		// Cross-request leakage would show up as extra roots or extra
		// classify spans (every request decodes exactly one trace).
		if roots != 1 || classify != 1 {
			t.Fatalf("trace %s: %d roots, %d classify spans — spans leaked across requests", tr.TraceID, roots, classify)
		}
		for _, sp := range tr.Spans {
			if sp.ParentID != "" && !ids[sp.ParentID] {
				t.Fatalf("trace %s: span %s parent %s not in this trace", tr.TraceID, sp.Name, sp.ParentID)
			}
		}
	}
	if len(seen) != 0 {
		t.Fatalf("%d issued traces never exported", len(seen))
	}
}

// TestTailSamplerMixedLoad proves the keep guarantees end to end: with a
// zero sample rate, healthy traffic exports nothing while every error
// response's trace and every forced trace is kept, labeled with its reason.
func TestTailSamplerMixedLoad(t *testing.T) {
	reg, dir := newTestRegistry(t, RegistryConfig{})
	writeTemplate(t, dir, "bad", []byte("not a template"))
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	var sink syncBuffer
	exp := obs.NewTraceExporter(&sink, 1024)
	s := NewServer(reg, Config{
		TraceExporter: exp,
		TraceSampler:  obs.NewTailSampler(0, nil),
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	for i := 0; i < 5; i++ { // healthy: dropped
		resp, _ := postJSON(t, ts.URL+"/v1/disassemble/demo", jsonBody(fx.traces[:1]))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthy status %d", resp.StatusCode)
		}
	}
	for i := 0; i < 2; i++ { // 404: client error, dropped
		resp, _ := postJSON(t, ts.URL+"/v1/disassemble/ghost", jsonBody(fx.traces[:1]))
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("ghost status %d", resp.StatusCode)
		}
	}
	wantErrors := 2
	for i := 0; i < wantErrors; i++ { // 503: always kept
		resp, _ := postJSON(t, ts.URL+"/v1/disassemble/bad", jsonBody(fx.traces[:1]))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("bad-template status %d", resp.StatusCode)
		}
	}
	resp, _ := postJSON(t, ts.URL+"/v1/disassemble/demo?trace=1", jsonBody(fx.traces[:1]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forced status %d", resp.StatusCode)
	}

	traces := readExportSink(t, exp, &sink)
	byReason := map[string]int{}
	for _, tr := range traces {
		byReason[tr.Reason]++
		if tr.Reason == obs.KeepError && tr.Status != http.StatusServiceUnavailable {
			t.Fatalf("error-kept trace has status %d", tr.Status)
		}
	}
	if len(traces) != wantErrors+1 {
		t.Fatalf("exported %d traces (%v), want exactly the %d errors + 1 forced", len(traces), byReason, wantErrors)
	}
	if byReason[obs.KeepError] != wantErrors || byReason[obs.KeepForced] != 1 {
		t.Fatalf("keep reasons = %v", byReason)
	}
}

// TestTailSamplerKeepsSlowRequests proves the slow rule end to end: seed the
// sampler's latency baseline with microsecond requests and any real decode
// lands above the p95, exported with reason "slow" despite a zero rate.
func TestTailSamplerKeepsSlowRequests(t *testing.T) {
	baseline := obs.NewHistogram(obs.DurationBuckets())
	for i := 0; i < 100; i++ {
		baseline.Observe(1e-6)
	}
	sampler := obs.NewTailSampler(0, baseline)
	url, sink, exp, _ := tracedServer(t, sampler, Config{})

	resp, _ := postJSON(t, url+"/v1/disassemble/demo", jsonBody(fx.traces[:1]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	traces := readExportSink(t, exp, sink)
	if len(traces) != 1 || traces[0].Reason != obs.KeepSlow {
		t.Fatalf("slow request not kept as slow: %d traces, reason %q",
			len(traces), func() string {
				if len(traces) > 0 {
					return traces[0].Reason
				}
				return ""
			}())
	}
}

// TestClientRequestIDHonored pins the X-Request-Id contract: a well-formed
// client ID is echoed and logged with its source; hostile or oversized IDs
// degrade safely.
func TestClientRequestIDHonored(t *testing.T) {
	var access syncBuffer
	_, url := newTestServer(t, RegistryConfig{}, Config{AccessLog: &access})

	send := func(id string) *http.Response {
		req, _ := http.NewRequest("GET", url+"/livez", nil)
		if id != "" {
			req.Header.Set("X-Request-Id", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if got := send("client-abc.123").Header.Get("X-Request-Id"); got != "client-abc.123" {
		t.Fatalf("valid client ID not honored: %q", got)
	}
	if got := send("has space").Header.Get("X-Request-Id"); got == "has space" {
		t.Fatal("ID with a space must not be honored")
	}
	if got := send("späcial").Header.Get("X-Request-Id"); strings.Contains(got, "ä") {
		t.Fatal("non-ASCII ID must not be honored")
	}
	// Over-long IDs are rejected wholesale, not truncated: a truncated echo
	// would no longer match what the client logged, and two long IDs sharing
	// a prefix would collide in the access log.
	long := strings.Repeat("x", 200)
	if got := send(long).Header.Get("X-Request-Id"); strings.HasPrefix(got, "x") || len(got) > maxRequestIDLen {
		t.Fatalf("oversized ID must fall back to a generated ID, got %q", got)
	}
	if got := send("").Header.Get("X-Request-Id"); got == "" {
		t.Fatal("no generated ID without a client header")
	}

	// The access log labels each ID with where it came from.
	sources := map[string]string{} // id -> id_source
	for _, line := range strings.Split(strings.TrimSpace(access.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access line not JSON: %v\n%s", err, line)
		}
		sources[rec["id"].(string)] = rec["id_source"].(string)
		if rec["trace"].(string) == "" {
			t.Fatalf("access line missing trace ID: %s", line)
		}
	}
	if sources["client-abc.123"] != "client" {
		t.Fatalf("honored ID source = %q", sources["client-abc.123"])
	}
	if _, ok := sources[long[:maxRequestIDLen]]; ok {
		t.Fatal("truncated prefix of an oversized client ID must not be logged")
	}
	generated := 0
	for _, src := range sources {
		if src == "generated" {
			generated++
		}
	}
	if generated != 4 { // space, non-ASCII, oversized, empty
		t.Fatalf("generated-source lines = %d, want 4 (%v)", generated, sources)
	}
}

// TestDebugRequestsEndpoint pins the /debug/requests ring: sampled requests
// appear newest-first in JSON and as a text table; dropped (unsampled)
// requests never do; a negative ring size disables the listing.
func TestDebugRequestsEndpoint(t *testing.T) {
	reg, _ := newTestRegistry(t, RegistryConfig{})
	s := NewServer(reg, Config{TraceSampler: obs.NewTailSampler(0, nil)})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, _ := postJSON(t, ts.URL+"/v1/disassemble/demo", jsonBody(fx.traces[:1]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	forced, _ := postJSON(t, ts.URL+"/v1/disassemble/demo?trace=1", jsonBody(fx.traces[:1]))
	tid, _ := echoedTrace(t, forced)

	r, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Size     int             `json:"size"`
		Requests []requestRecord `json:"requests"`
	}
	if err := json.NewDecoder(r.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if listing.Size != 1 || len(listing.Requests) != 1 {
		t.Fatalf("ring lists %d requests, want only the forced one: %+v", listing.Size, listing.Requests)
	}
	rec := listing.Requests[0]
	if rec.TraceID != tid || rec.Reason != obs.KeepForced || rec.Route != "disassemble" ||
		rec.Template != "demo" || rec.Status != 200 || rec.Spans == 0 {
		t.Fatalf("ring record = %+v", rec)
	}
	if rec.Exported {
		t.Fatal("record claims exported with no exporter configured")
	}

	rt, err := http.Get(ts.URL + "/debug/requests?format=text")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<16)
	n, _ := rt.Body.Read(body)
	rt.Body.Close()
	text := string(body[:n])
	if ct := rt.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("text format Content-Type = %q", ct)
	}
	if !strings.Contains(text, "trace") || !strings.Contains(text, tid) {
		t.Fatalf("text table missing the trace:\n%s", text)
	}

	// Negative ring size disables the listing without breaking the endpoint.
	s2 := NewServer(reg, Config{DebugRequests: -1, TraceSampler: obs.NewTailSampler(1, nil)})
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	postJSON(t, ts2.URL+"/v1/disassemble/demo", jsonBody(fx.traces[:1]))
	r2, err := http.Get(ts2.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	var empty struct {
		Size int `json:"size"`
	}
	if err := json.NewDecoder(r2.Body).Decode(&empty); err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if empty.Size != 0 {
		t.Fatalf("disabled ring lists %d requests", empty.Size)
	}
}

// TestDebugBuildInfoAndInfoMetric pins the build-identity surfaces:
// /debug/buildinfo reports the running binary, and /metrics carries the same
// identity as the scdisd_build_info info metric.
func TestDebugBuildInfoAndInfoMetric(t *testing.T) {
	obs.SetDefault(obs.NewRegistry())
	defer obs.SetDefault(nil)
	_, url := newTestServer(t, RegistryConfig{}, Config{})

	r, err := http.Get(url + "/debug/buildinfo")
	if err != nil {
		t.Fatal(err)
	}
	var bi obs.BuildInfo
	if err := json.NewDecoder(r.Body).Decode(&bi); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if bi.GoVersion != runtime.Version() {
		t.Fatalf("buildinfo go_version = %q, runtime says %q", bi.GoVersion, runtime.Version())
	}
	if bi.NumCPU < 1 {
		t.Fatalf("buildinfo num_cpu = %d", bi.NumCPU)
	}

	rm, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, err := io.ReadAll(rm.Body)
	rm.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(mbody)
	if !strings.Contains(metrics, "scdisd_build_info{") {
		t.Fatal("/metrics missing scdisd_build_info")
	}
	if !strings.Contains(metrics, `go_version="`+bi.GoVersion+`"`) {
		t.Fatal("info metric go_version does not match /debug/buildinfo")
	}
}

// TestLatencyExemplarsExposed pins the exemplar plumbing end to end: only a
// request whose trace the tail sampler keeps leaves its trace ID as the
// latency histogram's exemplar in /metrics.json — a dropped trace exists
// nowhere, so an exemplar naming it would dead-end — and the classic
// Prometheus text exposition never carries exemplar syntax (a 0.0.4 parser
// reads trailing tokens as a timestamp and fails the scrape).
func TestLatencyExemplarsExposed(t *testing.T) {
	obs.SetDefault(obs.NewRegistry())
	defer obs.SetDefault(nil)
	_, url := newTestServer(t, RegistryConfig{}, Config{})

	// Sample rate 0: a plain 200 is dropped and must not set an exemplar.
	dropped, _ := postJSON(t, url+"/v1/disassemble/demo", jsonBody(fx.traces[:1]))
	if dropped.StatusCode != http.StatusOK {
		t.Fatalf("status %d", dropped.StatusCode)
	}
	droppedTID, _ := echoedTrace(t, dropped)

	forced, _ := postJSON(t, url+"/v1/disassemble/demo?trace=1", jsonBody(fx.traces[:1]))
	if forced.StatusCode != http.StatusOK {
		t.Fatalf("status %d", forced.StatusCode)
	}
	tid, _ := echoedTrace(t, forced)

	rj, err := http.Get(url + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	jbody, err := io.ReadAll(rj.Body)
	rj.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot is indented JSON; match the exemplar's trace_id field.
	if !strings.Contains(string(jbody), `"exemplar"`) ||
		!strings.Contains(string(jbody), `"trace_id": "`+tid+`"`) {
		t.Fatalf("/metrics.json missing exemplar for kept trace %s", tid)
	}
	if strings.Contains(string(jbody), droppedTID) {
		t.Fatalf("/metrics.json names dropped trace %s", droppedTID)
	}

	rm, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody2, err := io.ReadAll(rm.Body)
	rm.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out := string(mbody2); strings.Contains(out, "# {") || strings.Contains(out, "trace_id") {
		t.Fatal("/metrics text exposition carries exemplar syntax")
	}
}
