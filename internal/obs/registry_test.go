package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// Nil instruments are the disabled fast path: every method must be a no-op,
// never a panic.
func TestNilInstrumentsAreNoops(t *testing.T) {
	var c *Counter
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Set(1)
	g.Add(2)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram has state")
	}
	if s := h.Snapshot(); s != (HistogramSnapshot{}) {
		t.Fatalf("nil histogram snapshot = %+v", s)
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry handed out live instruments")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry produced a snapshot")
	}
}

func TestRegistryCreateOnFirstUseAndAttach(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name resolved to different counters")
	}
	r.Counter("a").Add(5)
	ext := NewCounter()
	ext.Add(7)
	r.Attach("ext", ext)
	r.Gauge("g").Set(2.5)
	r.Histogram("h").Observe(0.001)

	s := r.Snapshot()
	if s.Counters["a"] != 5 || s.Counters["ext"] != 7 {
		t.Fatalf("counters = %v", s.Counters)
	}
	if s.Gauges["g"] != 2.5 {
		t.Fatalf("gauges = %v", s.Gauges)
	}
	if s.Histograms["h"].Count != 1 {
		t.Fatalf("histograms = %v", s.Histograms)
	}
}

// Attach has gauge and histogram analogues so always-live instruments of all
// three kinds can join snapshots.
func TestAttachGaugeAndHistogram(t *testing.T) {
	r := NewRegistry()
	g := NewGauge()
	g.Set(4.25)
	r.AttachGauge("ext.gauge", g)
	h := NewHistogram(UnitBuckets())
	h.Observe(0.5)
	h.Observe(0.25)
	r.AttachHistogram("ext.hist", h)

	s := r.Snapshot()
	if s.Gauges["ext.gauge"] != 4.25 {
		t.Fatalf("attached gauge = %v", s.Gauges["ext.gauge"])
	}
	if hs := s.Histograms["ext.hist"]; hs.Count != 2 || hs.Sum != 0.75 {
		t.Fatalf("attached histogram = %+v", hs)
	}
	// Updates through the original handles stay visible.
	g.Set(1)
	h.Observe(0.1)
	s = r.Snapshot()
	if s.Gauges["ext.gauge"] != 1 || s.Histograms["ext.hist"].Count != 3 {
		t.Fatal("attached instruments detached from their handles")
	}
	// Nil-safe in both directions.
	var nr *Registry
	nr.AttachGauge("x", g)
	nr.AttachHistogram("x", h)
	r.AttachGauge("nil", nil)
	r.AttachHistogram("nil", nil)
	if _, ok := r.Snapshot().Gauges["nil"]; ok {
		t.Fatal("nil instrument attached")
	}
}

// Gauges clamp non-finite stores so NaN can never leak into a snapshot.
func TestGaugeClampsNonFinite(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	g.Set(math.NaN())
	if g.Value() != 0 {
		t.Fatalf("NaN store produced %v", g.Value())
	}
	g.Set(1)
	g.Add(math.Inf(1))
	if v := g.Value(); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Fatalf("Inf add produced %v", v)
	}
}

// The snapshot JSON must be byte-stable across marshals (sorted map keys).
func TestSnapshotJSONStable(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"z.last", "a.first", "m.middle"} {
		r.Counter(name).Inc()
	}
	var a, b bytes.Buffer
	if err := r.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two snapshots of the same registry serialized differently")
	}
	if !json.Valid(a.Bytes()) {
		t.Fatal("snapshot JSON invalid")
	}
	// Keys come out sorted.
	first := strings.Index(a.String(), "a.first")
	last := strings.Index(a.String(), "z.last")
	if first < 0 || last < 0 || first > last {
		t.Fatalf("counter keys not sorted: %s", a.String())
	}
}

// SetDefault re-runs OnDefault hooks so packages rebind their handles; a nil
// registry rebinds them to nil (disabled).
func TestSetDefaultRebindsHooks(t *testing.T) {
	defer SetDefault(nil)
	var handle *Counter
	OnDefault(func(r *Registry) { handle = r.Counter("hooked") })
	if handle != nil {
		t.Fatal("handle live before a registry was installed")
	}
	r := NewRegistry()
	SetDefault(r)
	if handle == nil {
		t.Fatal("hook did not rebind on SetDefault")
	}
	handle.Inc()
	if r.Snapshot().Counters["hooked"] != 1 {
		t.Fatal("rebound handle not connected to the registry")
	}
	SetDefault(nil)
	if handle != nil {
		t.Fatal("hook did not disable the handle on SetDefault(nil)")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("dsp.cwt.transforms").Add(3)
	r.Gauge("parallel.workers").Set(4)
	r.Histogram("features.fit.seconds").Observe(0.25)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE dsp_cwt_transforms counter",
		"dsp_cwt_transforms 3",
		"# TYPE parallel_workers gauge",
		"# TYPE features_fit_seconds summary",
		"features_fit_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// AttachHistogram is Attach for a histogram; only these tests attach one.

// AttachHistogram registers an externally created (always-live) histogram
// under name, so distributions accumulated outside any registry join
// snapshots. No-op on a nil registry.
func (r *Registry) AttachHistogram(name string, h *Histogram) {
	if r == nil || h == nil {
		return
	}
	r.mu.Lock()
	r.hists[name] = h
	r.mu.Unlock()
}
