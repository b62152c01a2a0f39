package obs

import (
	"math"
	"sync/atomic"
)

// BucketLayout describes a geometric fixed-bucket histogram: bucket i
// (1-based) covers [Min·Growth^(i-1), Min·Growth^i), bucket 0 is the
// underflow range (-inf, Min) and bucket NumBuckets+1 the overflow range.
// Geometric buckets bound the relative quantile error by the growth factor.
type BucketLayout struct {
	Min        float64 // lower bound of the first finite bucket (> 0)
	Growth     float64 // per-bucket growth factor (> 1)
	NumBuckets int     // finite buckets between underflow and overflow
}

// DurationBuckets is the default layout for timings in seconds: 1 µs to
// ~1000 s in 120 buckets (growth ≈ 1.19, so quantiles are accurate to ~19%).
func DurationBuckets() BucketLayout {
	return BucketLayout{Min: 1e-6, Growth: math.Pow(2, 0.25), NumBuckets: 120}
}

// UnitBuckets is a layout for values in [~1e-4, ~10] such as accuracies and
// scores: 64 buckets, growth ≈ 1.20.
func UnitBuckets() BucketLayout {
	return BucketLayout{Min: 1e-4, Growth: math.Pow(10, 1.0/12), NumBuckets: 64}
}

// ByteBuckets is a layout for payload sizes in bytes: 64 B to ~4 GiB in 52
// buckets (growth ≈ 1.41, two buckets per power of two).
func ByteBuckets() BucketLayout {
	return BucketLayout{Min: 64, Growth: math.Pow(2, 0.5), NumBuckets: 52}
}

// Histogram is a streaming fixed-bucket histogram safe for concurrent
// Observe calls from any number of goroutines; every update is a handful of
// atomic operations, no locks. A nil *Histogram is a valid no-op instrument.
type Histogram struct {
	layout  BucketLayout
	invLogG float64
	counts  []atomic.Uint64 // len NumBuckets+2: underflow, finite..., overflow
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	minBits atomic.Uint64 // float64 bits; valid only when count > 0
	maxBits atomic.Uint64

	exemplar atomic.Pointer[Exemplar] // most recent traced observation, if any
}

// Exemplar links one recorded observation to the trace that produced it —
// the OpenMetrics exemplar concept. The latest traced observation wins;
// exemplars are debugging breadcrumbs, not statistics, so last-write-wins is
// exactly the "give me a recent trace for this latency" query they serve.
type Exemplar struct {
	TraceID string  `json:"trace_id"`
	Value   float64 `json:"value"`
}

// NewHistogram builds a histogram with the given layout. Invalid layouts
// fall back to DurationBuckets.
func NewHistogram(layout BucketLayout) *Histogram {
	if layout.Min <= 0 || layout.Growth <= 1 || layout.NumBuckets < 1 {
		layout = DurationBuckets()
	}
	h := &Histogram{
		layout:  layout,
		invLogG: 1 / math.Log(layout.Growth),
		counts:  make([]atomic.Uint64, layout.NumBuckets+2),
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// bucketOf maps a value to its bucket index.
func (h *Histogram) bucketOf(v float64) int {
	if v < h.layout.Min {
		return 0
	}
	i := int(math.Log(v/h.layout.Min)*h.invLogG) + 1
	if i > h.layout.NumBuckets {
		i = h.layout.NumBuckets + 1
	}
	return i
}

// lowerBound returns the lower edge of bucket i (i >= 1).
func (h *Histogram) lowerBound(i int) float64 {
	return h.layout.Min * math.Pow(h.layout.Growth, float64(i-1))
}

// Observe records one value. NaN/Inf observations are dropped — they would
// poison the sum and leak into reports. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	h.counts[h.bucketOf(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if math.Float64frombits(old) <= v || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= v || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveWithExemplar records one value and, when traceID is non-empty,
// remembers it as the histogram's exemplar. One pointer store past Observe —
// cheap enough for every request once tracing is on. No-op on nil.
func (h *Histogram) ObserveWithExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	h.Observe(v)
	if traceID != "" && !math.IsNaN(v) && !math.IsInf(v, 0) {
		h.exemplar.Store(&Exemplar{TraceID: traceID, Value: v})
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile (q in [0, 1]) from the bucket counts,
// interpolating geometrically inside the selected bucket; the estimate's
// relative error is bounded by the layout's growth factor. Returns 0 when
// the histogram is empty or nil.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			frac := (rank - cum) / n
			if frac < 0 {
				frac = 0
			}
			lo, hi := h.bucketEdges(i)
			// Geometric interpolation inside the bucket; underflow/overflow
			// buckets fall back to the observed extremes.
			return lo * math.Pow(hi/lo, frac)
		}
		cum += n
	}
	return h.Max()
}

// bucketEdges returns finite interpolation edges for bucket i, clamping the
// open-ended underflow/overflow buckets to the observed min/max.
func (h *Histogram) bucketEdges(i int) (lo, hi float64) {
	switch {
	case i == 0:
		lo, hi = h.Min(), h.layout.Min
		if lo <= 0 || lo > hi {
			lo = hi
		}
	case i > h.layout.NumBuckets:
		lo = h.lowerBound(h.layout.NumBuckets + 1)
		hi = h.Max()
		if hi < lo {
			hi = lo
		}
	default:
		lo, hi = h.lowerBound(i), h.lowerBound(i+1)
	}
	return lo, hi
}

// Min returns the smallest observation (0 when empty or nil).
func (h *Histogram) Min() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.minBits.Load())
}

// Max returns the largest observation (0 when empty or nil).
func (h *Histogram) Max() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// HistogramSnapshot is the JSON-serializable summary of a histogram. All
// fields are finite by construction.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	// Exemplar carries the most recent traced observation, linking this
	// series to a concrete trace ID. Omitted when no traced observation was
	// recorded.
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// Snapshot summarizes the histogram. Zero-valued for nil/empty histograms.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count:    h.Count(),
		Sum:      h.Sum(),
		Min:      h.Min(),
		Max:      h.Max(),
		P50:      h.Quantile(0.50),
		P95:      h.Quantile(0.95),
		P99:      h.Quantile(0.99),
		Exemplar: h.exemplar.Load(),
	}
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
	}
	return s
}
