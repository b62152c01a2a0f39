package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// syncBuffer is a goroutine-safe access-log sink: the middleware writes log
// lines from handler goroutines while the test reads them.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeRequestTelemetry pins the tentpole: one decode and one 404 must
// show up in the labeled request metrics with route/template/code, the
// latency and admission-wait histograms must record them, each response must
// carry a unique request ID, and the access log must emit one parseable JSON
// line per request with the documented fields.
func TestServeRequestTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)

	var access syncBuffer
	_, url := newTestServer(t, RegistryConfig{}, Config{AccessLog: &access})

	resp, _ := postJSON(t, url+"/v1/disassemble/demo", jsonBody(fx.traces[:2]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decode status = %d", resp.StatusCode)
	}
	id1 := resp.Header.Get("X-Request-Id")
	resp2, _ := postJSON(t, url+"/v1/disassemble/ghost", jsonBody(fx.traces[:1]))
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost status = %d", resp2.StatusCode)
	}
	id2 := resp2.Header.Get("X-Request-Id")
	if id1 == "" || id2 == "" || id1 == id2 {
		t.Fatalf("request IDs not unique: %q vs %q", id1, id2)
	}

	s := reg.Snapshot()
	req := s.LabeledCounters["scdisd.http.requests.total"]
	if got := req[`route="disassemble",template="demo",code="200"`]; got != 1 {
		t.Fatalf("labeled 200 count = %v (have %v)", got, req)
	}
	if got := req[`route="disassemble",template="ghost",code="404"`]; got != 1 {
		t.Fatalf("labeled 404 count = %v (have %v)", got, req)
	}
	if h := s.LabeledHistograms["scdisd.http.request.seconds"][`route="disassemble",template="demo"`]; h.Count != 1 || h.Sum <= 0 {
		t.Fatalf("latency histogram = %+v", h)
	}
	if h := s.LabeledHistograms["scdisd.http.admission.wait.seconds"][`template="demo"`]; h.Count != 1 {
		t.Fatalf("admission wait histogram = %+v", h)
	}
	if h := s.LabeledHistograms["scdisd.http.request.bytes"][`route="disassemble"`]; h.Count != 2 || h.Max <= 0 {
		t.Fatalf("request bytes histogram = %+v", h)
	}
	if g, ok := s.LabeledGauges["scdisd.template.drift.state"][`template="demo"`]; !ok {
		t.Fatal("no drift state gauge for demo after a decode")
	} else if g < 0 || g > 2 {
		t.Fatalf("drift state gauge = %v", g)
	}
	if s.Gauges["scdisd.http.inflight"] != 0 {
		t.Fatalf("inflight gauge = %v after requests finished", s.Gauges["scdisd.http.inflight"])
	}

	// Access log: one JSON line per request with the documented fields.
	lines := 0
	sc := bufio.NewScanner(strings.NewReader(access.String()))
	for sc.Scan() {
		lines++
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("access log line %d not JSON: %v\n%s", lines, err, sc.Text())
		}
		for _, field := range []string{"id", "route", "template", "status", "bytes_in", "bytes_out", "duration_ms"} {
			if _, ok := rec[field]; !ok {
				t.Fatalf("access log line missing %q: %s", field, sc.Text())
			}
		}
		if rec["route"] == "disassemble" && rec["status"].(float64) == 200 {
			if rec["traces"].(float64) != 2 {
				t.Fatalf("decode line traces = %v", rec["traces"])
			}
			if _, ok := rec["admission_wait_ms"]; !ok {
				t.Fatalf("decode line missing admission_wait_ms: %s", sc.Text())
			}
			if _, ok := rec["decode_ms"]; !ok {
				t.Fatalf("decode line missing decode_ms: %s", sc.Text())
			}
		}
	}
	if lines != 2 {
		t.Fatalf("access log has %d lines, want 2:\n%s", lines, access.String())
	}
}

// Liveness must stay green whenever the process runs; readiness (and its
// /healthz alias) must go red for an unservable registry or a saturated
// admission gate.
func TestServeLivezReadyzSplit(t *testing.T) {
	// Empty registry: alive but not ready.
	emptyReg, err := NewRegistry(t.TempDir(), RegistryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	es := NewServer(emptyReg, Config{})
	ets := httptest.NewServer(es.Handler())
	defer ets.Close()
	for path, want := range map[string]int{
		"/livez":   http.StatusOK,
		"/readyz":  http.StatusServiceUnavailable,
		"/healthz": http.StatusServiceUnavailable,
	} {
		resp, err := http.Get(ets.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("empty registry: GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}

	// Loaded registry with a saturated gate: alive, not ready, and readiness
	// says why.
	s, url := newTestServer(t, RegistryConfig{}, Config{MaxInFlight: 1, MaxQueue: 0})
	release, err := s.adm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready struct {
		OK        bool `json:"ok"`
		Saturated bool `json:"saturated"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || ready.OK || !ready.Saturated {
		t.Fatalf("saturated readyz = %d %+v", resp.StatusCode, ready)
	}
	if resp, err = http.Get(url + "/livez"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("saturated livez = %d, want 200", resp.StatusCode)
	}
	release()
	if resp, err = http.Get(url + "/readyz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("released readyz = %d, want 200", resp.StatusCode)
	}
}

// writeError must refuse to append error JSON to a response whose body has
// already started — it aborts the connection instead.
func TestWriteErrorAfterBodyStartAborts(t *testing.T) {
	fixture(t)
	reg, _ := newTestRegistry(t, RegistryConfig{})
	s := NewServer(reg, Config{})
	sw := &statusWriter{ResponseWriter: httptest.NewRecorder()}
	if _, err := sw.Write([]byte(`{"partial":`)); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if rec := recover(); rec != http.ErrAbortHandler {
			t.Fatalf("recovered %v, want http.ErrAbortHandler", rec)
		}
	}()
	s.writeError(sw, http.StatusInternalServerError, "too late")
	t.Fatal("writeError returned after the body started")
}

// A batch that fails validation mid-decode (a constant trace passes the
// serve-layer length check but fails core's trace validation) must produce a
// single clean JSON error — never a partial success with an error appended.
func TestServeMidstreamDecodeFailureIsCleanError(t *testing.T) {
	_, url := newTestServer(t, RegistryConfig{}, Config{})
	constant := make([]float64, fx.traceLen)
	for i := range constant {
		constant[i] = 1.0
	}
	batch := [][]float64{fx.traces[0], constant}
	resp, data := postJSON(t, url+"/v1/disassemble/demo", jsonBody(batch))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, body:\n%s", resp.StatusCode, data)
	}
	var apiErr apiError
	if err := json.Unmarshal(data, &apiErr); err != nil {
		t.Fatalf("error body is not a single JSON object: %v\n%s", err, data)
	}
	if apiErr.Error == "" || !strings.Contains(apiErr.Error, "decode failed") {
		t.Fatalf("unexpected error body: %q", apiErr.Error)
	}
	if bytes.Contains(data, []byte(`"decoded"`)) {
		t.Fatalf("error response carries partial successes:\n%s", data)
	}
}

// PublishMetrics exports per-template load state: 1 loaded, 0 lazy, -1
// failed.
func TestRegistryPublishMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)

	r, dir := newTestRegistry(t, RegistryConfig{})
	writeTemplate(t, dir, "corrupt", []byte("not a template"))
	writeTemplate(t, dir, "lazy", fx.tpl)
	if err := r.Reload(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("demo"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("corrupt"); err == nil {
		t.Fatal("corrupt template loaded")
	}
	r.PublishMetrics()

	g := reg.Snapshot().LabeledGauges["scdisd.template.loaded"]
	if g[`template="demo"`] != 1 {
		t.Fatalf("demo loaded gauge = %v", g[`template="demo"`])
	}
	if g[`template="corrupt"`] != -1 {
		t.Fatalf("corrupt loaded gauge = %v", g[`template="corrupt"`])
	}
	if g[`template="lazy"`] != 0 {
		t.Fatalf("lazy loaded gauge = %v", g[`template="lazy"`])
	}
}
