package obs

import (
	"runtime"
	"testing"
	"time"
)

func TestRuntimeCollectorSampleOnce(t *testing.T) {
	r := NewRegistry()
	c := NewRuntimeCollector(r, time.Hour)
	c.SampleOnce()
	s := r.Snapshot()
	if s.Gauges["runtime.goroutines"] < 1 {
		t.Fatalf("runtime.goroutines = %v", s.Gauges["runtime.goroutines"])
	}
	if s.Gauges["runtime.heap.objects.bytes"] <= 0 {
		t.Fatalf("runtime.heap.objects.bytes = %v", s.Gauges["runtime.heap.objects.bytes"])
	}
	if s.Gauges["runtime.mem.total.bytes"] <= 0 {
		t.Fatalf("runtime.mem.total.bytes = %v", s.Gauges["runtime.mem.total.bytes"])
	}
	if s.Counters["runtime.collector.samples"] != 1 {
		t.Fatalf("samples counter = %v", s.Counters["runtime.collector.samples"])
	}
	if runtime.GOOS == "linux" && s.Gauges["process.open_fds"] < 3 {
		t.Fatalf("process.open_fds = %v", s.Gauges["process.open_fds"])
	}
}

// GC pauses arrive as a cumulative runtime/metrics histogram; the collector
// observes only the delta between ticks.
func TestRuntimeCollectorGCPauseDelta(t *testing.T) {
	r := NewRegistry()
	c := NewRuntimeCollector(r, time.Hour)
	c.SampleOnce() // baseline
	runtime.GC()
	runtime.GC()
	c.SampleOnce()
	s := r.Snapshot()
	h := s.Histograms["runtime.gc.pause.seconds"]
	if h.Count == 0 {
		t.Fatal("no GC pauses observed after forced GCs")
	}
	if s.Gauges["runtime.gc.cycles"] < 2 {
		t.Fatalf("runtime.gc.cycles = %v", s.Gauges["runtime.gc.cycles"])
	}
	// A third sample without new GCs must not re-observe the old pauses.
	before := h.Count
	c.SampleOnce()
	if after := r.Snapshot().Histograms["runtime.gc.pause.seconds"].Count; after < before {
		t.Fatalf("pause count went backwards: %d -> %d", before, after)
	}
}

func TestRuntimeCollectorStartStopAndSamplers(t *testing.T) {
	r := NewRegistry()
	c := NewRuntimeCollector(r, 10*time.Millisecond)
	hits := r.Counter("test.sampler.hits")
	c.AddSampler(func() { hits.Inc() })
	c.Start()
	deadline := time.Now().Add(2 * time.Second)
	for hits.Value() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	c.Stop()
	if hits.Value() < 2 {
		t.Fatalf("sampler ran %d times, want >= 2", hits.Value())
	}
	// Nil collector is a no-op everywhere.
	var nc *RuntimeCollector
	nc.AddSampler(func() {})
	nc.SampleOnce()
	nc.Start()
	nc.Stop()
}

func TestBucketMidpoint(t *testing.T) {
	edges := []float64{1, 4}
	if got := bucketMidpoint(edges, 0); got != 2 {
		t.Fatalf("geometric midpoint of [1,4) = %v, want 2", got)
	}
}
