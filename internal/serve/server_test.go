package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// newTestServer stands up a Server over a registry holding the fixture
// template as "demo", returning the server (for white-box admission access)
// and an httptest base URL.
func newTestServer(t *testing.T, rcfg RegistryConfig, scfg Config) (*Server, string) {
	t.Helper()
	reg, _ := newTestRegistry(t, rcfg)
	s := NewServer(reg, scfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts.URL
}

func jsonBody(traces [][]float64) *bytes.Reader {
	b, err := json.Marshal(disassembleRequest{Traces: traces})
	if err != nil {
		panic(err)
	}
	return bytes.NewReader(b)
}

func postJSON(t *testing.T, url string, body io.Reader) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decodeTexts(t *testing.T, data []byte) ([]string, DisassembleResponse) {
	t.Helper()
	var dr DisassembleResponse
	if err := json.Unmarshal(data, &dr); err != nil {
		t.Fatalf("response not valid JSON: %v\n%s", err, data)
	}
	texts := make([]string, len(dr.Decoded))
	for i, d := range dr.Decoded {
		texts[i] = d.Text
	}
	return texts, dr
}

// TestServeDecodeMatchesSerial pins the headline acceptance criterion: the
// served labels are bitwise-identical to the library's own decode of the
// same traces, and each decision carries a usable confidence record.
func TestServeDecodeMatchesSerial(t *testing.T) {
	_, url := newTestServer(t, RegistryConfig{}, Config{})
	resp, data := postJSON(t, url+"/v1/disassemble/demo?trace=1", jsonBody(fx.traces))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	texts, dr := decodeTexts(t, data)
	if len(texts) != len(fx.want) {
		t.Fatalf("decoded %d instructions, want %d", len(texts), len(fx.want))
	}
	for i := range texts {
		if texts[i] != fx.want[i] {
			t.Fatalf("decode %d = %q, serial reference %q", i, texts[i], fx.want[i])
		}
	}
	for i, d := range dr.Decoded {
		if d.Index != i {
			t.Fatalf("decoded[%d].Index = %d", i, d.Index)
		}
		if d.Confidence <= 0 || d.Confidence > 1 {
			t.Fatalf("decoded[%d] confidence %g outside (0, 1]", i, d.Confidence)
		}
		if len(d.Levels) == 0 || d.Levels[0].Level != "group" {
			t.Fatalf("decoded[%d] has no per-level record: %+v", i, d.Levels)
		}
	}
	if dr.Drift == nil || dr.Drift.State == "" {
		t.Fatalf("v3 template response carries no drift state: %+v", dr.Drift)
	}
	if len(dr.Spans) == 0 {
		t.Fatal("?trace=1 response carries no span tree")
	}
}

// TestServeBinaryBodyMatchesJSON pins the packed-frame input path against
// the JSON one: same traces, same labels.
func TestServeBinaryBodyMatchesJSON(t *testing.T) {
	_, url := newTestServer(t, RegistryConfig{}, Config{})
	var buf bytes.Buffer
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(fx.traces)))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(fx.traceLen))
	buf.Write(hdr[:])
	var s [8]byte
	for _, tr := range fx.traces {
		for _, v := range tr {
			binary.LittleEndian.PutUint64(s[:], math.Float64bits(v))
			buf.Write(s[:])
		}
	}
	resp, err := http.Post(url+"/v1/disassemble/demo", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	texts, _ := decodeTexts(t, data)
	for i := range texts {
		if texts[i] != fx.want[i] {
			t.Fatalf("binary decode %d = %q, want %q", i, texts[i], fx.want[i])
		}
	}
}

// TestServeRejectsMalformedRequests pins the 4xx mapping: bad JSON, wrong
// trace length, empty batches and truncated binary frames are 400; unknown
// templates are 404 — and every error body is structured JSON.
func TestServeRejectsMalformedRequests(t *testing.T) {
	_, url := newTestServer(t, RegistryConfig{}, Config{})
	checkError := func(resp *http.Response, data []byte, wantStatus int, wantFrag string) {
		t.Helper()
		if resp.StatusCode != wantStatus {
			t.Fatalf("status %d, want %d: %s", resp.StatusCode, wantStatus, data)
		}
		var ae apiError
		if err := json.Unmarshal(data, &ae); err != nil || ae.Error == "" {
			t.Fatalf("error body not structured JSON: %s", data)
		}
		if !strings.Contains(ae.Error, wantFrag) {
			t.Fatalf("error %q missing %q", ae.Error, wantFrag)
		}
	}

	resp, data := postJSON(t, url+"/v1/disassemble/demo", strings.NewReader("{not json"))
	checkError(resp, data, http.StatusBadRequest, "invalid JSON")

	short := [][]float64{fx.traces[0][:fx.traceLen-3]}
	resp, data = postJSON(t, url+"/v1/disassemble/demo", jsonBody(short))
	checkError(resp, data, http.StatusBadRequest, fmt.Sprintf("expects %d", fx.traceLen))

	resp, data = postJSON(t, url+"/v1/disassemble/demo", jsonBody(nil))
	checkError(resp, data, http.StatusBadRequest, "empty batch")

	resp, data = postJSON(t, url+"/v1/disassemble/ghost", jsonBody(fx.traces))
	checkError(resp, data, http.StatusNotFound, "unknown template")

	// Binary: header promising more samples than the body carries.
	var buf bytes.Buffer
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 2)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(fx.traceLen))
	buf.Write(hdr[:])
	buf.Write(make([]byte, 16)) // far short of 2 traces
	r, err := http.Post(url+"/v1/disassemble/demo", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(r.Body)
	r.Body.Close()
	checkError(r, data, http.StatusBadRequest, "truncated")

	// Binary: a tiny request whose header declares a near-2^32-trace batch
	// must be rejected by arithmetic on the declared size, not by attempting
	// a ~100 GB allocation.
	binary.LittleEndian.PutUint32(hdr[0:4], math.MaxUint32)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(fx.traceLen))
	r, err = http.Post(url+"/v1/disassemble/demo", "application/octet-stream", bytes.NewReader(hdr[:]))
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(r.Body)
	r.Body.Close()
	checkError(r, data, http.StatusBadRequest, "body limit")
}

// TestServeOverloadSheds pins the backpressure contract: with every decode
// slot held and the queue full, a request is shed with 429 and a
// Retry-After hint instead of queueing without bound.
func TestServeOverloadSheds(t *testing.T) {
	s, url := newTestServer(t, RegistryConfig{}, Config{MaxInFlight: 1, MaxQueue: 0, RetryAfter: 3 * time.Second})
	// MaxQueue 0: no wait queue, so a held slot makes the next request shed.
	release, err := s.adm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, url+"/v1/disassemble/demo", jsonBody(fx.traces[:1]))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status with no free slots = %d, want 429: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", got)
	}
	// Admission runs before the body is read, so an overloaded server sheds
	// even a malformed body with 429 — it never spends parse work (or heap)
	// on a request it cannot serve.
	resp, data = postJSON(t, url+"/v1/disassemble/demo", strings.NewReader("{not json"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded malformed request = %d, want 429 (body must not be parsed outside the gate): %s", resp.StatusCode, data)
	}
	release()
	resp, data = postJSON(t, url+"/v1/disassemble/demo", jsonBody(fx.traces[:1]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after release = %d, want 200: %s", resp.StatusCode, data)
	}
}

// TestServeConcurrentRequestsMatchSerial fans 8 concurrent requests at the
// server (the -race coverage for the whole serving path: shared template,
// admission gate, per-request observers) and checks every response against
// the serial reference labels.
func TestServeConcurrentRequestsMatchSerial(t *testing.T) {
	_, url := newTestServer(t, RegistryConfig{}, Config{MaxInFlight: 4, MaxQueue: 16})
	const requests = 8
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	for r := 0; r < requests; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(url+"/v1/disassemble/demo", "application/json", jsonBody(fx.traces))
			if err != nil {
				errs <- err
				return
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, data)
				return
			}
			var dr DisassembleResponse
			if err := json.Unmarshal(data, &dr); err != nil {
				errs <- err
				return
			}
			for i, d := range dr.Decoded {
				if d.Text != fx.want[i] {
					errs <- fmt.Errorf("concurrent decode %d = %q, want %q", i, d.Text, fx.want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServeHealthzTemplatesMetrics pins the introspection endpoints:
// healthz reflects registry occupancy, /v1/templates lists statuses, and
// /metrics carries the serving instruments (admission, span drops) in
// Prometheus exposition format.
func TestServeHealthzTemplatesMetrics(t *testing.T) {
	defer obs.SetDefault(nil)
	obs.SetDefault(obs.NewRegistry())
	_, url := newTestServer(t, RegistryConfig{}, Config{})

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, data
	}

	resp, data := get("/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d: %s", resp.StatusCode, data)
	}
	var hz struct {
		OK        bool `json:"ok"`
		Templates int  `json:"templates"`
	}
	if err := json.Unmarshal(data, &hz); err != nil || !hz.OK || hz.Templates != 1 {
		t.Fatalf("healthz body %s (err %v)", data, err)
	}

	// A decode first, so the admission counters have moved.
	resp, data = postJSON(t, url+"/v1/disassemble/demo", jsonBody(fx.traces[:1]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decode = %d: %s", resp.StatusCode, data)
	}

	resp, data = get("/v1/templates")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("templates = %d", resp.StatusCode)
	}
	var tl struct {
		Templates []TemplateStatus `json:"templates"`
	}
	if err := json.Unmarshal(data, &tl); err != nil || len(tl.Templates) != 1 || !tl.Templates[0].Loaded {
		t.Fatalf("templates body %s (err %v)", data, err)
	}
	if tl.Templates[0].Drift == nil {
		t.Fatal("per-template drift state missing from /v1/templates")
	}

	resp, data = get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	out := string(data)
	for _, want := range []string{
		"parallel_admission_admitted",
		"parallel_admission_inflight",
		"obs_spans_dropped",
		"core_traces_classified",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %s:\n%s", want, out)
		}
	}

	resp, data = get("/metrics.json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics.json = %d", resp.StatusCode)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics.json not a snapshot: %v", err)
	}
	if snap.Counters["parallel.admission.admitted"] < 1 {
		t.Fatalf("admitted counter = %d after a served decode", snap.Counters["parallel.admission.admitted"])
	}
}

// TestServeHealthzEmptyRegistry pins readiness: a server with no templates
// answers 503, not 200.
func TestServeHealthzEmptyRegistry(t *testing.T) {
	reg, err := NewRegistry(t.TempDir(), RegistryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(reg, Config{}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty-registry healthz = %d, want 503", resp.StatusCode)
	}
}

// TestServeHealthzAllTemplatesFailed pins readiness against load failures: a
// registry whose every file is known-corrupt answers 503, not a green 200
// while every decode request would be a 503.
func TestServeHealthzAllTemplatesFailed(t *testing.T) {
	fixture(t)
	dir := t.TempDir()
	writeTemplate(t, dir, "corrupt", []byte("not a template"))
	reg, err := NewRegistry(dir, RegistryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(reg, Config{}).Handler())
	defer ts.Close()

	// Lazy loading: before any Get the defect is unknown, so readiness stays
	// optimistic.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-load healthz = %d, want 200 (defect not yet observed)", resp.StatusCode)
	}

	// A decode attempt surfaces the load failure; readiness must follow.
	resp, data := postJSON(t, ts.URL+"/v1/disassemble/corrupt", jsonBody(fx.traces[:1]))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("corrupt-template decode = %d, want 503: %s", resp.StatusCode, data)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-failed healthz = %d, want 503: %s", resp.StatusCode, data)
	}
	var hz struct {
		OK     bool `json:"ok"`
		Failed int  `json:"failed"`
	}
	if err := json.Unmarshal(data, &hz); err != nil || hz.OK || hz.Failed != 1 {
		t.Fatalf("all-failed healthz body %s (err %v)", data, err)
	}
}

// TestServeAdminReload pins the admin endpoint: a template dropped into the
// directory is served after POST /admin/reload, without a restart.
func TestServeAdminReload(t *testing.T) {
	fixture(t)
	dir := t.TempDir()
	writeTemplate(t, dir, "demo", fx.tpl)
	reg, err := NewRegistry(dir, RegistryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(reg, Config{}).Handler())
	defer ts.Close()

	writeTemplate(t, dir, "late", fx.tpl)
	resp, data := postJSON(t, ts.URL+"/v1/disassemble/late", jsonBody(fx.traces[:1]))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unreloaded template = %d, want 404: %s", resp.StatusCode, data)
	}
	resp, err = http.Post(ts.URL+"/admin/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload = %d", resp.StatusCode)
	}
	resp, data = postJSON(t, ts.URL+"/v1/disassemble/late", jsonBody(fx.traces[:1]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reloaded template = %d: %s", resp.StatusCode, data)
	}
}

// TestServeGracefulDrain pins shutdown semantics: Shutdown called while a
// request is in flight lets that request finish with a full 200 response,
// and Serve returns http.ErrServerClosed. The request body is streamed
// through a pipe — the handler takes its admission slot before reading the
// body — so the request is provably in flight until the test releases the
// rest of the body after Shutdown has closed the listener.
func TestServeGracefulDrain(t *testing.T) {
	reg, _ := newTestRegistry(t, RegistryConfig{})
	s := NewServer(reg, Config{MaxInFlight: 1})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	url := "http://" + l.Addr().String()

	body, err := io.ReadAll(jsonBody(fx.traces))
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	type result struct {
		status int
		count  int
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post(url+"/v1/disassemble/demo", "application/json", pr)
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var dr DisassembleResponse
		if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
			resc <- result{status: resp.StatusCode, err: err}
			return
		}
		resc <- result{status: resp.StatusCode, count: dr.Count}
	}()
	if _, err := pw.Write(body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}

	// Wait for the request to be admitted, then drain.
	deadline := time.Now().Add(10 * time.Second)
	for s.adm.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never entered the admission gate")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(ctx) }()
	// The listener closes first: new connections are refused while the
	// admitted request is still waiting for its body.
	for {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after Shutdown")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := pw.Write(body[len(body)/2:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	res := <-resc
	if res.err != nil {
		t.Fatalf("in-flight request during drain: %v", res.err)
	}
	if res.status != http.StatusOK || res.count != len(fx.traces) {
		t.Fatalf("drained request = status %d count %d, want 200/%d", res.status, res.count, len(fx.traces))
	}
	if err := <-shut; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

// shortBodyDeadline sets bodyReadTimeout to d for the rest of the test.
func shortBodyDeadline(t *testing.T, d time.Duration) {
	t.Helper()
	saved := bodyReadTimeout
	bodyReadTimeout = d
	t.Cleanup(func() { bodyReadTimeout = saved })
}

// TestServeStalledBodyLosesSlot pins the body deadline: with one decode
// slot and no queue, a client that is admitted, sends half its body and
// stalls is answered 408 and loses the slot within the deadline, and the
// next client decodes with the serial labels.
func TestServeStalledBodyLosesSlot(t *testing.T) {
	shortBodyDeadline(t, 200*time.Millisecond)
	s, url := newTestServer(t, RegistryConfig{}, Config{MaxInFlight: 1, MaxQueue: 0})
	body, err := io.ReadAll(jsonBody(fx.traces))
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	defer pw.Close()
	type result struct {
		status int
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post(url+"/v1/disassemble/demo", "application/json", pr)
		if err != nil {
			resc <- result{err: err}
			return
		}
		resp.Body.Close()
		resc <- result{status: resp.StatusCode}
	}()
	if _, err := pw.Write(body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.adm.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never entered the admission gate")
		}
		time.Sleep(time.Millisecond)
	}
	admitted := time.Now()
	// The slot frees at the deadline; allow scheduling slack on top.
	for s.adm.InFlight() != 0 {
		if time.Since(admitted) > bodyReadTimeout+5*time.Second {
			t.Fatalf("stalled body still holds its slot %v after admission (deadline %v)", time.Since(admitted), bodyReadTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case res := <-resc:
		if res.err != nil {
			t.Fatalf("stalled client: %v", res.err)
		}
		if res.status != http.StatusRequestTimeout {
			t.Fatalf("stalled client status %d, want 408", res.status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stalled client got no answer")
	}

	resp, data := postJSON(t, url+"/v1/disassemble/demo", jsonBody(fx.traces))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("next client status %d: %s", resp.StatusCode, data)
	}
	texts, _ := decodeTexts(t, data)
	if len(texts) != len(fx.want) {
		t.Fatalf("decoded %d instructions, want %d", len(texts), len(fx.want))
	}
	for i := range texts {
		if texts[i] != fx.want[i] {
			t.Fatalf("decode %d = %q, serial reference %q", i, texts[i], fx.want[i])
		}
	}
}

// TestServeBodyDeadlineClearedBeforeDecode pins the other half of the body
// deadline: it ends with the body. A deadline that reached the decode would
// fail net/http's background read of the connection and cancel the request
// context, so a batch whose decode outlasts the deadline must still answer
// 200 with the serial labels.
func TestServeBodyDeadlineClearedBeforeDecode(t *testing.T) {
	parallel.SetWorkers(1)
	t.Cleanup(func() { parallel.SetWorkers(0) })
	s, url := newTestServer(t, RegistryConfig{}, Config{})
	// Materialize the template first, so the timed request reads its body
	// right after admission.
	if resp, data := postJSON(t, url+"/v1/disassemble/demo", jsonBody(fx.traces[:1])); resp.StatusCode != http.StatusOK {
		t.Fatalf("priming request status %d: %s", resp.StatusCode, data)
	}
	var batch [][]float64
	for len(batch) < 4096 {
		batch = append(batch, fx.traces...)
	}
	tpl, err := s.reg.Get("demo")
	if err != nil {
		t.Fatal(err)
	}
	d, err := tpl.disassembler()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := d.DisassembleScoredCtx(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	// Half the decode: the binary body arrives well inside it, and the
	// decode runs well past it.
	shortBodyDeadline(t, time.Since(start)/2)

	resp, err := http.Post(url+"/v1/disassemble/demo", "application/octet-stream", bytes.NewReader(encodeFrame(batch)))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d with a %v body deadline: %s", resp.StatusCode, bodyReadTimeout, data)
	}
	texts, _ := decodeTexts(t, data)
	if len(texts) != len(batch) {
		t.Fatalf("decoded %d instructions, want %d", len(texts), len(batch))
	}
	for i := range texts {
		if want := fx.want[i%len(fx.traces)]; texts[i] != want {
			t.Fatalf("decode %d = %q, serial reference %q", i, texts[i], want)
		}
	}
}
