package obs

import (
	"math"
	"testing"
)

func TestReliabilityPerfectCalibration(t *testing.T) {
	r := NewReliability()
	// A perfectly calibrated predictor: in each bucket, accuracy equals the
	// stated confidence. 0.85 confidence → 85% correct.
	for i := 0; i < 100; i++ {
		r.Observe(0.85, i < 85)
	}
	if ece := r.Snapshot().ECE; ece > 1e-9 {
		t.Fatalf("perfectly calibrated ECE = %g", ece)
	}
	if r.Total() != 100 || r.Snapshot().Labeled != 100 {
		t.Fatalf("counts: total %d labeled %d", r.Total(), r.Snapshot().Labeled)
	}
	if mc := r.Snapshot().MeanConfidence; math.Abs(mc-0.85) > 1e-12 {
		t.Fatalf("mean confidence %g", mc)
	}
}

func TestReliabilityOverconfidence(t *testing.T) {
	r := NewReliability()
	// Overconfident: claims 0.95, right half the time → ECE = 0.45.
	for i := 0; i < 200; i++ {
		r.Observe(0.95, i%2 == 0)
	}
	if ece := r.Snapshot().ECE; math.Abs(ece-0.45) > 1e-9 {
		t.Fatalf("ECE = %g, want 0.45", ece)
	}
	s := r.Snapshot()
	if math.Abs(s.Accuracy-0.5) > 1e-12 || math.Abs(s.ECE-0.45) > 1e-9 {
		t.Fatalf("snapshot: %+v", s)
	}
	// The top bucket holds all observations.
	var seen int
	for _, b := range s.Buckets {
		if b.Count > 0 {
			seen++
			if b.Lo > 0.95 || b.Hi < 0.95 {
				t.Fatalf("0.95 landed in bucket [%g, %g]", b.Lo, b.Hi)
			}
		}
	}
	if seen != 1 {
		t.Fatalf("%d occupied buckets, want 1", seen)
	}
}

func TestReliabilityUnlabeledConfidences(t *testing.T) {
	r := NewReliability()
	r.ObserveConfidence(0.7)
	r.ObserveConfidence(0.9)
	r.Observe(0.5, true)
	if r.Total() != 3 || r.Snapshot().Labeled != 1 {
		t.Fatalf("total %d labeled %d", r.Total(), r.Snapshot().Labeled)
	}
	// ECE only covers the labeled population.
	if ece := r.Snapshot().ECE; math.Abs(ece-0.5) > 1e-9 {
		t.Fatalf("ECE = %g, want 0.5 (one labeled obs at 0.5, correct)", ece)
	}
}

func TestReliabilityEdges(t *testing.T) {
	r := NewReliability()
	if r.Snapshot().ECE != 0 || r.Snapshot().MeanConfidence != 0 {
		t.Fatal("empty tracker must report zeros")
	}
	// Out-of-range confidences clamp into the edge buckets, not panic.
	r.Observe(-0.5, false)
	r.Observe(1.5, true)
	r.Observe(math.NaN(), true) // NaN clamps too; must not poison sums
	s := r.Snapshot()
	if s.Total != 3 {
		t.Fatalf("total %d", s.Total)
	}
	if math.IsNaN(s.ECE) {
		t.Fatal("NaN confidence poisoned ECE")
	}
	var n *Reliability
	n.Observe(0.5, true)
	n.ObserveConfidence(0.5)
	if n.Total() != 0 || n.Snapshot().ECE != 0 {
		t.Fatal("nil tracker must be a no-op")
	}
	if s := n.Snapshot(); s.Total != 0 {
		t.Fatalf("nil snapshot: %+v", s)
	}
}

// ObserveConfidence records a decision without ground truth; only these
// tests feed one.

// ObserveConfidence records a decision with no ground truth — it counts
// toward volume and mean confidence but not the reliability histogram or
// ECE. No-op on nil.
func (r *Reliability) ObserveConfidence(conf float64) {
	if r == nil {
		return
	}
	if math.IsNaN(conf) {
		conf = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	r.totalConf += conf
}
