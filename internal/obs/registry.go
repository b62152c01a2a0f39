// Package obs is the pipeline's observability core: a metrics registry
// (atomic counters, gauges, streaming histograms), lightweight span tracing
// threaded through the existing context chains, and a structured RunManifest
// emitted at the end of a train/disassemble run.
//
// Design rules:
//
//   - Dependency-free: obs imports only the standard library, so every layer
//     (dsp, features, ml, parallel, power, core) can instrument itself
//     without cycles.
//   - Zero-cost when disabled: instrument handles are plain pointers that are
//     nil until a registry is installed with SetDefault. Every instrument
//     method is a nil-receiver no-op, so the disabled hot path is a single
//     predictable nil check — no locks, no map lookups, no time syscalls.
//   - Lock-free when enabled: counters and gauges are single atomics;
//     histograms are fixed-bucket atomic arrays. The registry mutex guards
//     only instrument creation and snapshots, never updates.
//
// Installation: packages register an OnDefault hook at init that resolves
// their instrument handles; SetDefault(registry) re-runs every hook. Each
// instrumented package keeps its handle set behind an atomic pointer that
// the hook swaps wholesale, so SetDefault is safe to call while pipeline
// work is running on other goroutines: in-flight operations finish against
// the handle set they loaded, new operations see the new one. A long-running
// server still normally installs its registry once at startup — rebinding
// mid-run is safe, not free: updates racing a swap land in whichever
// registry's instrument they loaded first.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. A nil *Counter is a
// valid no-op instrument — the disabled fast path.
type Counter struct {
	v atomic.Int64
}

// NewCounter returns a standalone, always-live counter. Attach it to a
// registry with Registry.Attach to include it in snapshots.
func NewCounter() *Counter { return &Counter{} }

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 value (worker counts, cache sizes,
// best-score-so-far). A nil *Gauge is a valid no-op instrument.
type Gauge struct {
	bits atomic.Uint64
}

// NewGauge returns a standalone, always-live gauge. Attach it to a registry
// with Registry.AttachGauge to include it in snapshots.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v. Non-finite values are clamped to 0 so no NaN/Inf can leak
// into snapshots or manifests. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by delta via a CAS loop. No-op on a nil receiver.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64frombits(old) + delta
		if math.IsNaN(nw) || math.IsInf(nw, 0) {
			nw = 0
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(nw)) {
			return
		}
	}
}

// Value returns the current gauge value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry names and snapshots a set of instruments. All methods are safe
// for concurrent use; instrument updates themselves never touch the registry
// lock. A nil *Registry hands out nil instruments, which are no-ops — the
// disabled mode.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	cvecs    map[string]*CounterVec
	gvecs    map[string]*GaugeVec
	hvecs    map[string]*HistogramVec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		cvecs:    map[string]*CounterVec{},
		gvecs:    map[string]*GaugeVec{},
		hvecs:    map[string]*HistogramVec{},
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// (the no-op instrument) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = NewCounter()
		r.counters[name] = c
	}
	return c
}

// Attach registers an externally created (always-live) counter under name,
// so cumulative process-wide counts — like the CWT transform counter —
// appear in snapshots. No-op on a nil registry.
func (r *Registry) Attach(name string, c *Counter) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] = c
	r.mu.Unlock()
}

// AttachGauge registers an externally created (always-live) gauge under
// name — the gauge analogue of Attach, so process-lifetime values owned by
// another subsystem join snapshots. No-op on a nil registry.
func (r *Registry) AttachGauge(name string, g *Gauge) {
	if r == nil || g == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = g
	r.mu.Unlock()
}

// Gauge returns the named gauge, creating it on first use. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram with the default duration-seconds
// bucket layout, creating it on first use. Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramWith(name, DurationBuckets())
}

// HistogramWith is Histogram with an explicit bucket layout. The layout of
// an existing histogram is never changed — the first creation wins.
func (r *Registry) HistogramWith(name string, layout BucketLayout) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = NewHistogram(layout)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time, JSON-serializable view of every instrument.
// Maps serialize with sorted keys, so the JSON field order is stable.
// Labeled instruments nest: vec name → canonical `key="value",...` label
// string → child value, the same identity the Prometheus exposition renders.
type Snapshot struct {
	Counters          map[string]int64                        `json:"counters,omitempty"`
	Gauges            map[string]float64                      `json:"gauges,omitempty"`
	Histograms        map[string]HistogramSnapshot            `json:"histograms,omitempty"`
	LabeledCounters   map[string]map[string]int64             `json:"labeled_counters,omitempty"`
	LabeledGauges     map[string]map[string]float64           `json:"labeled_gauges,omitempty"`
	LabeledHistograms map[string]map[string]HistogramSnapshot `json:"labeled_histograms,omitempty"`
}

// Snapshot captures the current value of every instrument. Safe to call
// concurrently with updates; each value is read atomically. Returns nil on a
// nil registry.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	r.labeledSnapshotLocked(s)
	return s
}

// WriteJSON writes an indented JSON snapshot of the registry.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// sortedKeys returns the sorted keys of a map for deterministic rendering.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ---- default registry + handle-resolution hooks ----

var (
	defaultReg atomic.Pointer[Registry]
	hookMu     sync.Mutex
	hooks      []func(*Registry)
	// setMu serializes whole SetDefault calls so two concurrent installs
	// cannot interleave their hook runs and leave different packages bound
	// to different registries.
	setMu sync.Mutex
)

// Default returns the installed registry, or nil when observability is
// disabled.
func Default() *Registry { return defaultReg.Load() }

// SetDefault installs r (nil disables) and re-runs every OnDefault hook so
// packages re-resolve their instrument handles. Safe to call concurrently
// with instrumented pipeline work: every package swaps its handle set
// atomically, so racing updates land in either the old or the new registry,
// never in a torn handle set. Typically still called once at process start.
func SetDefault(r *Registry) {
	setMu.Lock()
	defer setMu.Unlock()
	defaultReg.Store(r)
	hookMu.Lock()
	hs := make([]func(*Registry), len(hooks))
	copy(hs, hooks)
	hookMu.Unlock()
	for _, h := range hs {
		h(r)
	}
}

// OnDefault registers a handle-resolution hook and immediately invokes it
// with the current default registry (possibly nil). Instrumented packages
// call this from init to bind their counter/gauge/histogram handles.
func OnDefault(h func(*Registry)) {
	hookMu.Lock()
	hooks = append(hooks, h)
	hookMu.Unlock()
	h(Default())
}
