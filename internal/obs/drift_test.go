package obs

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// testBaseline is a two-feature baseline mimicking the [trace.mean,
// trace.std] drift vector: mean power around 0 with unit spread, amplitude
// around 5 with a tighter spread.
func testBaseline() DriftBaseline {
	return DriftBaseline{
		Names: []string{"trace.mean", "trace.std"},
		Mean:  []float64{0, 5},
		Std:   []float64{1, 0.5},
	}
}

// feed pushes n in-distribution vectors drawn from the baseline Gaussians,
// optionally perturbed by mutate.
func feed(m *DriftMonitor, rng *rand.Rand, b DriftBaseline, n int, mutate func([]float64)) {
	for i := 0; i < n; i++ {
		v := make([]float64, len(b.Mean))
		for j := range v {
			v[j] = b.Mean[j] + rng.NormFloat64()*b.Std[j]
		}
		if mutate != nil {
			mutate(v)
		}
		m.Observe(v)
	}
}

func TestDriftMonitorNoDriftStaysOK(t *testing.T) {
	b := testBaseline()
	m, err := NewDriftMonitor(b, DriftConfig{Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	feed(m, rng, b, 256, nil)
	if st := m.State(); st != DriftOK {
		t.Fatalf("in-distribution stream: state %v score %g, want ok", st, m.Score())
	}
	s := m.Snapshot()
	if s.Windows == 0 || s.Observed != 256 {
		t.Fatalf("snapshot: %+v", s)
	}
	if s.Score >= DefaultDriftWarn {
		t.Fatalf("in-distribution score %g crossed warn %g", s.Score, DefaultDriftWarn)
	}
}

// TestDriftMonitorDCOffset is the paper's first covariate shift: a DC offset
// added to every trace moves trace.mean. The alert must fire within one
// window of shifted traffic.
func TestDriftMonitorDCOffset(t *testing.T) {
	b := testBaseline()
	m, err := NewDriftMonitor(b, DriftConfig{Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	feed(m, rng, b, 64, nil) // clean warm-up window
	if m.State() != DriftOK {
		t.Fatalf("clean warm-up alarmed: score %g", m.Score())
	}
	feed(m, rng, b, 64, func(v []float64) { v[0] += 3 }) // 3σ DC offset
	if st := m.State(); st != DriftWarn && st != DriftCritical {
		t.Fatalf("3σ DC offset not detected within one window: state %v score %g", st, m.Score())
	}
	s := m.Snapshot()
	if s.WorstFeature != "trace.mean" {
		t.Fatalf("worst feature %q, want trace.mean", s.WorstFeature)
	}
	if s.MaxZ < 2 {
		t.Fatalf("max |z| %g after 3σ shift", s.MaxZ)
	}
}

// TestDriftMonitorGainShift is the second covariate shift: a gain change
// scales the per-trace amplitude, moving trace.std.
func TestDriftMonitorGainShift(t *testing.T) {
	b := testBaseline()
	m, err := NewDriftMonitor(b, DriftConfig{Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	feed(m, rng, b, 64, nil)
	if m.State() != DriftOK {
		t.Fatalf("clean warm-up alarmed: score %g", m.Score())
	}
	feed(m, rng, b, 64, func(v []float64) { v[1] *= 1.5 }) // +50% gain
	if st := m.State(); st != DriftWarn && st != DriftCritical {
		t.Fatalf("gain shift not detected within one window: state %v score %g", st, m.Score())
	}
	if s := m.Snapshot(); s.WorstFeature != "trace.std" {
		t.Fatalf("worst feature %q, want trace.std", s.WorstFeature)
	}
}

// TestDriftMonitorRecovers checks the sliding window forgets: once shifted
// traffic stops, a full clean window returns the state to ok.
func TestDriftMonitorRecovers(t *testing.T) {
	b := testBaseline()
	m, err := NewDriftMonitor(b, DriftConfig{Window: 32})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	feed(m, rng, b, 32, func(v []float64) { v[0] += 5 })
	if m.State() == DriftOK {
		t.Fatal("5σ shift not detected")
	}
	feed(m, rng, b, 32, nil)
	if st := m.State(); st != DriftOK {
		t.Fatalf("state %v after full clean window, want ok (score %g)", st, m.Score())
	}
}

func TestDriftMonitorThresholdOrdering(t *testing.T) {
	cfg := DriftConfig{Window: 8, Warn: 2, Critical: 1}.withDefaults()
	if cfg.Critical < cfg.Warn {
		t.Fatalf("withDefaults must keep critical >= warn: %+v", cfg)
	}
	cfg = DriftConfig{}.withDefaults()
	if cfg.Window != DefaultDriftWindow || cfg.Warn != DefaultDriftWarn || cfg.Critical != DefaultDriftCritical {
		t.Fatalf("defaults: %+v", cfg)
	}
}

func TestDriftMonitorRejectsBadInput(t *testing.T) {
	if _, err := NewDriftMonitor(DriftBaseline{}, DriftConfig{}); err == nil {
		t.Fatal("empty baseline should fail")
	}
	if _, err := NewDriftMonitor(DriftBaseline{Mean: []float64{1}, Std: []float64{1, 2}}, DriftConfig{}); err == nil {
		t.Fatal("mismatched mean/std should fail")
	}
	b := testBaseline()
	m, err := NewDriftMonitor(b, DriftConfig{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Wrong dimension and non-finite vectors are dropped, not counted.
	m.Observe([]float64{1})
	m.Observe([]float64{math.NaN(), 1})
	m.Observe([]float64{1, math.Inf(1)})
	if s := m.Snapshot(); s.Observed != 0 {
		t.Fatalf("defective vectors were counted: %+v", s)
	}
	// Zero/negative baseline std is floored, not divided by.
	m2, err := NewDriftMonitor(DriftBaseline{Mean: []float64{0}, Std: []float64{0}}, DriftConfig{Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	m2.Observe([]float64{1})
	m2.Observe([]float64{1})
	if s := m2.Snapshot(); math.IsNaN(s.Score) || math.IsInf(s.Score, 0) {
		t.Fatalf("score not finite with zero baseline std: %+v", s)
	}
}

func TestDriftMonitorNilSafe(t *testing.T) {
	var m *DriftMonitor
	m.Observe([]float64{1})
	if m.State() != DriftOK || m.Score() != 0 {
		t.Fatal("nil monitor must be a no-op")
	}
	if s := m.Snapshot(); s.State != "ok" {
		t.Fatalf("nil snapshot state %q", s.State)
	}
	var sb strings.Builder
	if err := m.WriteTable(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil WriteTable: %q %v", sb.String(), err)
	}
}

func TestDriftWriteTable(t *testing.T) {
	b := testBaseline()
	m, err := NewDriftMonitor(b, DriftConfig{Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	// Before the window fills: the table reports the warm-up state.
	feed(m, rng, b, 3, nil)
	var warm strings.Builder
	if err := m.WriteTable(&warm); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm.String(), "never filled") {
		t.Fatalf("warm-up table: %q", warm.String())
	}
	feed(m, rng, b, 16, func(v []float64) { v[0] += 4 })
	var sb strings.Builder
	if err := m.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"drift: state=", "trace.mean", "trace.std", "symKL"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestSymmetricKLGaussian(t *testing.T) {
	if kl := symmetricKLGaussian(0, 1, 0, 1); math.Abs(kl) > 1e-12 {
		t.Fatalf("identical Gaussians: %g", kl)
	}
	// Pure mean shift with equal variances: symKL = Δ²/σ².
	if kl := symmetricKLGaussian(0, 2, 3, 2); math.Abs(kl-9.0/4) > 1e-12 {
		t.Fatalf("mean shift: %g, want %g", kl, 9.0/4)
	}
	// Symmetry.
	a, bkl := symmetricKLGaussian(1, 2, 3, 0.5), symmetricKLGaussian(3, 0.5, 1, 2)
	if math.Abs(a-bkl) > 1e-12 {
		t.Fatalf("not symmetric: %g vs %g", a, bkl)
	}
	// Divergence grows with separation.
	if symmetricKLGaussian(0, 1, 1, 1) >= symmetricKLGaussian(0, 1, 2, 1) {
		t.Fatal("not monotone in separation")
	}
}
