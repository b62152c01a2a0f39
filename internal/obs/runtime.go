package obs

// RuntimeCollector samples process-level runtime health into a registry on a
// ticker: goroutine count, heap/GC statistics from runtime/metrics, a GC
// pause histogram, process CPU seconds, and the open-file-descriptor count
// where the platform exposes one. A long-running server starts one so
// /metrics alone answers "is the process itself healthy" — the pipeline
// instruments say nothing about goroutine leaks or GC pressure.
//
// Extra samplers (AddSampler) run on the same tick, which is how the serve
// layer publishes per-template load/drift gauges without its own goroutine.

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"
)

// DefaultRuntimeInterval is the default sampling period.
const DefaultRuntimeInterval = 15 * time.Second

// runtime/metrics sample names, fixed at collector construction. Unsupported
// names (older/newer toolchains) read as KindBad and are skipped.
const (
	rmGoroutines = "/sched/goroutines:goroutines"
	rmHeapObject = "/memory/classes/heap/objects:bytes"
	rmMemTotal   = "/memory/classes/total:bytes"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmGCPauses   = "/gc/pauses:seconds"
)

// RuntimeCollector periodically samples runtime health gauges. Construct
// with NewRuntimeCollector, then Start/Stop (or SampleOnce for one-shot use).
type RuntimeCollector struct {
	interval time.Duration

	goroutines *Gauge     // runtime.goroutines
	heapBytes  *Gauge     // runtime.heap.objects.bytes
	memBytes   *Gauge     // runtime.mem.total.bytes
	gcCycles   *Gauge     // runtime.gc.cycles
	cpuSeconds *Gauge     // runtime.cpu.seconds
	openFDs    *Gauge     // process.open_fds (absent where not portable)
	gcPause    *Histogram // runtime.gc.pause.seconds
	samplesRun *Counter   // runtime.collector.samples

	samples   []metrics.Sample
	prevPause *metrics.Float64Histogram

	mu       sync.Mutex
	samplers []func()

	stop chan struct{}
	done chan struct{}
}

// GCPauseBuckets is the layout of the GC pause histogram: 10 µs to ~100 ms
// territory with the same geometric growth as DurationBuckets.
func GCPauseBuckets() BucketLayout {
	return BucketLayout{Min: 1e-6, Growth: math.Pow(2, 0.5), NumBuckets: 48}
}

// NewRuntimeCollector binds the runtime gauges onto r. interval <= 0 uses
// DefaultRuntimeInterval. The collector does not sample until Start or
// SampleOnce.
func NewRuntimeCollector(r *Registry, interval time.Duration) *RuntimeCollector {
	if interval <= 0 {
		interval = DefaultRuntimeInterval
	}
	c := &RuntimeCollector{
		interval:   interval,
		goroutines: r.Gauge("runtime.goroutines"),
		heapBytes:  r.Gauge("runtime.heap.objects.bytes"),
		memBytes:   r.Gauge("runtime.mem.total.bytes"),
		gcCycles:   r.Gauge("runtime.gc.cycles"),
		cpuSeconds: r.Gauge("runtime.cpu.seconds"),
		gcPause:    r.HistogramWith("runtime.gc.pause.seconds", GCPauseBuckets()),
		samplesRun: r.Counter("runtime.collector.samples"),
		samples: []metrics.Sample{
			{Name: rmGoroutines},
			{Name: rmHeapObject},
			{Name: rmMemTotal},
			{Name: rmGCCycles},
			{Name: rmGCPauses},
		},
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if countOpenFDs() >= 0 {
		c.openFDs = r.Gauge("process.open_fds")
	}
	return c
}

// AddSampler registers fn to run on every tick (after the runtime sample).
// The serve layer hooks per-template registry gauges in here. Safe to call
// concurrently with a running collector.
func (c *RuntimeCollector) AddSampler(fn func()) {
	if c == nil || fn == nil {
		return
	}
	c.mu.Lock()
	c.samplers = append(c.samplers, fn)
	c.mu.Unlock()
}

// Start samples once immediately (so /metrics is populated before the first
// tick) and then launches the ticker goroutine. Call Stop exactly once to
// end it; Start must not be called twice.
func (c *RuntimeCollector) Start() {
	if c == nil {
		return
	}
	c.SampleOnce()
	go func() {
		defer close(c.done)
		t := time.NewTicker(c.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.SampleOnce()
			case <-c.stop:
				return
			}
		}
	}()
}

// Stop ends the ticker goroutine and waits for it to exit. No-op on a nil
// collector; must not be called before Start or twice.
func (c *RuntimeCollector) Stop() {
	if c == nil {
		return
	}
	close(c.stop)
	<-c.done
}

// SampleOnce takes one sample of every runtime metric and runs the extra
// samplers. Safe to call directly (tests, pre-scrape refresh).
func (c *RuntimeCollector) SampleOnce() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	metrics.Read(c.samples)
	for i := range c.samples {
		s := &c.samples[i]
		switch s.Name {
		case rmGoroutines:
			c.goroutines.Set(sampleFloat(s))
		case rmHeapObject:
			c.heapBytes.Set(sampleFloat(s))
		case rmMemTotal:
			c.memBytes.Set(sampleFloat(s))
		case rmGCCycles:
			c.gcCycles.Set(sampleFloat(s))
		case rmGCPauses:
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				c.observePauseDelta(s.Value.Float64Histogram())
			}
		}
	}
	if ns := processCPUNanos(); ns > 0 {
		c.cpuSeconds.Set(float64(ns) / 1e9)
	}
	if c.openFDs != nil {
		if n := countOpenFDs(); n >= 0 {
			c.openFDs.Set(float64(n))
		}
	}
	for _, fn := range c.samplers {
		fn()
	}
	c.samplesRun.Inc()
}

// sampleFloat converts a runtime/metrics sample to float64, 0 for
// unsupported kinds.
func sampleFloat(s *metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	default:
		return 0
	}
}

// observePauseDelta folds new GC pauses since the previous sample into the
// pause histogram. runtime/metrics exposes pauses as a cumulative bucketed
// histogram; the delta of each bucket's count is observed at the bucket's
// geometric midpoint, so the obs histogram tracks the live pause
// distribution without ReadMemStats' stop-the-world. Per-bucket deltas are
// capped to bound work if the collector was stopped for a long time.
func (c *RuntimeCollector) observePauseDelta(h *metrics.Float64Histogram) {
	defer func() { c.prevPause = cloneFloat64Histogram(h) }()
	prev := c.prevPause
	if prev == nil || len(prev.Counts) != len(h.Counts) {
		return // first sample (or layout change): establish the baseline only
	}
	const maxPerBucket = 1024
	for i, n := range h.Counts {
		d := int64(n) - int64(prev.Counts[i])
		if d <= 0 {
			continue
		}
		if d > maxPerBucket {
			d = maxPerBucket
		}
		mid := bucketMidpoint(h.Buckets, i)
		for ; d > 0; d-- {
			c.gcPause.Observe(mid)
		}
	}
}

// bucketMidpoint picks a representative value for bucket i of a
// runtime/metrics histogram, clamping the open-ended edges.
func bucketMidpoint(edges []float64, i int) float64 {
	lo, hi := edges[i], edges[i+1]
	switch {
	case math.IsInf(lo, -1) && math.IsInf(hi, 1):
		return 0
	case math.IsInf(lo, -1):
		return hi
	case math.IsInf(hi, 1):
		return lo
	case lo > 0 && hi > 0:
		return math.Sqrt(lo * hi) // geometric midpoint, matching our buckets
	default:
		return (lo + hi) / 2
	}
}

// cloneFloat64Histogram copies the counts of a runtime/metrics histogram
// (the runtime may reuse the backing arrays between Read calls).
func cloneFloat64Histogram(h *metrics.Float64Histogram) *metrics.Float64Histogram {
	return &metrics.Float64Histogram{
		Counts:  append([]uint64(nil), h.Counts...),
		Buckets: append([]float64(nil), h.Buckets...),
	}
}
