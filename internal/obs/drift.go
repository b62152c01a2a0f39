package obs

import (
	"fmt"
	"io"
	"math"
	"sync"
)

// DriftBaseline is the training-time reference distribution the drift
// monitor compares live traffic against: per-feature mean and standard
// deviation captured when the template was fitted.
type DriftBaseline struct {
	// Names labels the features for reports; optional (indices are used
	// when absent or mismatched in length).
	Names []string
	Mean  []float64
	Std   []float64
}

// DriftConfig tunes the sliding-window drift monitor.
type DriftConfig struct {
	// Window is the number of most recent traces the live statistics are
	// computed over. Defaults to 64.
	Window int
	// Warn is the symmetric-KL score at which the monitor enters DriftWarn.
	// Defaults to 1.0.
	Warn float64
	// Critical is the score at which it enters DriftCritical. Defaults
	// to 5.0.
	Critical float64
}

// Default drift thresholds: on the synthetic campaign an in-distribution
// 64-trace window scores ≲0.3 on every feature while the paper's CSA
// covariate shifts (DC offset, gain change) push the worst feature's
// symmetric KL multiple orders of magnitude higher, so 1.0/5.0 separate
// cleanly.
const (
	DefaultDriftWindow   = 64
	DefaultDriftWarn     = 1.0
	DefaultDriftCritical = 5.0
)

func (c DriftConfig) withDefaults() DriftConfig {
	if c.Window <= 0 {
		c.Window = DefaultDriftWindow
	}
	if c.Warn <= 0 {
		c.Warn = DefaultDriftWarn
	}
	if c.Critical <= 0 {
		c.Critical = DefaultDriftCritical
	}
	if c.Critical < c.Warn {
		c.Critical = c.Warn
	}
	return c
}

// DriftState is the monitor's alert level.
type DriftState int

const (
	// DriftOK: the live window is statistically consistent with training.
	DriftOK DriftState = iota
	// DriftWarn: the worst feature's window score crossed the warn
	// threshold — accuracy may be degrading.
	DriftWarn
	// DriftCritical: the score crossed the critical threshold — the paper's
	// covariate-shift regime, where accuracy collapses without CSA.
	DriftCritical
)

// String implements fmt.Stringer.
func (s DriftState) String() string {
	switch s {
	case DriftOK:
		return "ok"
	case DriftWarn:
		return "warn"
	case DriftCritical:
		return "critical"
	default:
		return fmt.Sprintf("DriftState(%d)", int(s))
	}
}

// minDriftSigma floors standard deviations so constant features cannot
// produce infinite z-shifts or KL scores.
const minDriftSigma = 1e-12

// DriftMonitor detects covariate shift — the paper's headline failure mode,
// where DC-offset/gain changes between training and live acquisition
// silently collapse accuracy — by comparing a sliding window of live
// drift-feature vectors against the training baseline. Per feature it
// computes the z-shift of the window mean and the symmetric KL divergence
// between the training and window Gaussians; the drift score is the worst
// feature's symmetric KL. All methods are safe for concurrent use and no-ops
// on a nil receiver.
type DriftMonitor struct {
	mu   sync.Mutex
	cfg  DriftConfig
	base DriftBaseline

	ring   [][]float64 // window × nfeat, ring buffer
	next   int         // ring slot the next observation lands in
	filled int         // observations currently in the ring (≤ Window)
	total  int64       // observations ever seen
	sum    []float64   // per-feature running sum over the ring
	sumSq  []float64   // per-feature running sum of squares over the ring

	score   float64 // worst-feature symmetric KL of the latest full window
	maxZ    float64 // worst-feature |z| of the latest full window
	worst   int     // feature index attaining score
	windows int64   // completed (full-ring) evaluations
	state   DriftState
}

// NewDriftMonitor builds a monitor over the given baseline. The baseline
// must have matching, non-empty Mean/Std; standard deviations are floored
// to keep scores finite.
func NewDriftMonitor(base DriftBaseline, cfg DriftConfig) (*DriftMonitor, error) {
	if len(base.Mean) == 0 || len(base.Mean) != len(base.Std) {
		return nil, fmt.Errorf("obs: drift baseline needs matching mean/std, got %d/%d", len(base.Mean), len(base.Std))
	}
	std := make([]float64, len(base.Std))
	for i, s := range base.Std {
		if !(s > minDriftSigma) { // also catches NaN
			s = minDriftSigma
		}
		std[i] = s
	}
	base.Std = std
	cfg = cfg.withDefaults()
	n := len(base.Mean)
	return &DriftMonitor{
		cfg:   cfg,
		base:  base,
		ring:  make([][]float64, cfg.Window),
		sum:   make([]float64, n),
		sumSq: make([]float64, n),
	}, nil
}

// Config returns the effective (defaulted) configuration.
func (d *DriftMonitor) Config() DriftConfig {
	if d == nil {
		return DriftConfig{}
	}
	return d.cfg
}

// Observe pushes one live drift-feature vector into the window and, once
// the window is full, re-evaluates the drift score and alert state. Vectors
// of the wrong dimension or containing non-finite values are dropped. No-op
// on a nil receiver.
func (d *DriftMonitor) Observe(v []float64) {
	if d == nil || len(v) != len(d.base.Mean) {
		return
	}
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	slot := d.ring[d.next]
	if slot == nil {
		slot = make([]float64, len(v))
		d.ring[d.next] = slot
	} else {
		for j, old := range slot {
			d.sum[j] -= old
			d.sumSq[j] -= old * old
		}
	}
	copy(slot, v)
	for j, x := range v {
		d.sum[j] += x
		d.sumSq[j] += x * x
	}
	d.next = (d.next + 1) % len(d.ring)
	if d.filled < len(d.ring) {
		d.filled++
	}
	d.total++
	if d.filled == len(d.ring) {
		d.evaluateLocked()
	}
}

// evaluateLocked recomputes score/maxZ/state from the full ring. Caller
// holds d.mu.
func (d *DriftMonitor) evaluateLocked() {
	n := float64(d.filled)
	worst, score, maxZ := 0, 0.0, 0.0
	for j := range d.sum {
		mean := d.sum[j] / n
		variance := d.sumSq[j]/n - mean*mean
		if variance < minDriftSigma {
			variance = minDriftSigma
		}
		std := math.Sqrt(variance)
		z := math.Abs(mean-d.base.Mean[j]) / d.base.Std[j]
		kl := symmetricKLGaussian(d.base.Mean[j], d.base.Std[j], mean, std)
		if z > maxZ {
			maxZ = z
		}
		if kl > score || j == 0 {
			score, worst = kl, j
		}
	}
	d.score, d.maxZ, d.worst = score, maxZ, worst
	d.windows++
	switch {
	case score >= d.cfg.Critical:
		d.state = DriftCritical
	case score >= d.cfg.Warn:
		d.state = DriftWarn
	default:
		d.state = DriftOK
	}
	m := obsMet()
	m.driftWindows.Inc()
	m.driftScore.Set(score)
	m.driftZMax.Set(maxZ)
	m.driftAlert.Set(float64(d.state))
	m.driftScoreHist.Observe(score)
}

// symmetricKLGaussian is the symmetric Kullback–Leibler divergence between
// two univariate Gaussians (inlined so obs stays dependency-free):
// KL(p‖q)+KL(q‖p) = (σp²+Δ²)/(2σq²) + (σq²+Δ²)/(2σp²) − 1, Δ = μp−μq.
func symmetricKLGaussian(mu0, sd0, mu1, sd1 float64) float64 {
	v0, v1 := sd0*sd0, sd1*sd1
	d := mu0 - mu1
	return (v0+d*d)/(2*v1) + (v1+d*d)/(2*v0) - 1
}

// State returns the current alert level (DriftOK for nil or warming up).
func (d *DriftMonitor) State() DriftState {
	if d == nil {
		return DriftOK
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state
}

// Score returns the latest full-window drift score (0 while warming up).
func (d *DriftMonitor) Score() float64 {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.score
}

// DriftFeature is one feature's row in a DriftSnapshot.
type DriftFeature struct {
	Name       string  `json:"name"`
	BaseMean   float64 `json:"base_mean"`
	BaseStd    float64 `json:"base_std"`
	WindowMean float64 `json:"window_mean"`
	WindowStd  float64 `json:"window_std"`
	ZShift     float64 `json:"z_shift"`
	SymKL      float64 `json:"sym_kl"`
}

// DriftSnapshot is the JSON-serializable state of the monitor.
type DriftSnapshot struct {
	State        string         `json:"state"`
	Score        float64        `json:"score"`
	MaxZ         float64        `json:"max_z"`
	WorstFeature string         `json:"worst_feature,omitempty"`
	Window       int            `json:"window"`
	Warn         float64        `json:"warn"`
	Critical     float64        `json:"critical"`
	Observed     int64          `json:"observed"`
	Windows      int64          `json:"windows"`
	Features     []DriftFeature `json:"features,omitempty"`
}

// featureName returns the display name of feature j.
func (d *DriftMonitor) featureName(j int) string {
	if j < len(d.base.Names) && d.base.Names[j] != "" {
		return d.base.Names[j]
	}
	return fmt.Sprintf("f%d", j)
}

// Snapshot captures the monitor state, including per-feature rows when the
// window has filled at least once. Zero-valued on nil.
func (d *DriftMonitor) Snapshot() DriftSnapshot {
	if d == nil {
		return DriftSnapshot{State: DriftOK.String()}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s := DriftSnapshot{
		State:    d.state.String(),
		Score:    d.score,
		MaxZ:     d.maxZ,
		Window:   d.cfg.Window,
		Warn:     d.cfg.Warn,
		Critical: d.cfg.Critical,
		Observed: d.total,
		Windows:  d.windows,
	}
	if d.windows == 0 {
		return s
	}
	s.WorstFeature = d.featureName(d.worst)
	n := float64(d.filled)
	for j := range d.sum {
		mean := d.sum[j] / n
		variance := d.sumSq[j]/n - mean*mean
		if variance < minDriftSigma {
			variance = minDriftSigma
		}
		std := math.Sqrt(variance)
		s.Features = append(s.Features, DriftFeature{
			Name:       d.featureName(j),
			BaseMean:   d.base.Mean[j],
			BaseStd:    d.base.Std[j],
			WindowMean: mean,
			WindowStd:  std,
			ZShift:     (mean - d.base.Mean[j]) / d.base.Std[j],
			SymKL:      symmetricKLGaussian(d.base.Mean[j], d.base.Std[j], mean, std),
		})
	}
	return s
}

// WriteTable renders the drift summary as a human-readable table — the
// end-of-run stderr report. Features are printed worst-first, capped at the
// ten highest scores. No output on a nil monitor or before the first full
// window.
func (d *DriftMonitor) WriteTable(w io.Writer) error {
	s := d.Snapshot()
	if s.Windows == 0 {
		if d != nil && s.Observed > 0 {
			_, err := fmt.Fprintf(w, "drift: %d traces observed, window (%d) never filled\n", s.Observed, s.Window)
			return err
		}
		return nil
	}
	if _, err := fmt.Fprintf(w, "drift: state=%s score=%.3g max|z|=%.3g (warn %.3g, critical %.3g, window %d, %d traces)\n",
		s.State, s.Score, s.MaxZ, s.Warn, s.Critical, s.Window, s.Observed); err != nil {
		return err
	}
	feats := s.Features
	for i := 1; i < len(feats); i++ { // insertion sort, worst SymKL first
		for j := i; j > 0 && feats[j].SymKL > feats[j-1].SymKL; j-- {
			feats[j], feats[j-1] = feats[j-1], feats[j]
		}
	}
	if len(feats) > 10 {
		feats = feats[:10]
	}
	if _, err := fmt.Fprintf(w, "%-20s %12s %12s %12s %12s %10s %10s\n",
		"feature", "base mean", "base σ", "win mean", "win σ", "z", "symKL"); err != nil {
		return err
	}
	for _, f := range feats {
		if _, err := fmt.Fprintf(w, "%-20s %12.4g %12.4g %12.4g %12.4g %10.3g %10.3g\n",
			f.Name, f.BaseMean, f.BaseStd, f.WindowMean, f.WindowStd, f.ZShift, f.SymKL); err != nil {
			return err
		}
	}
	if rest := len(s.Features) - len(feats); rest > 0 {
		if _, err := fmt.Fprintf(w, "(%d more features below)\n", rest); err != nil {
			return err
		}
	}
	return nil
}
