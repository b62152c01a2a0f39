package ml

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// clfMetrics bundles the per-classifier instrument handles. All handles are
// nil (no-op) under a nil registry, so the disabled path costs one nil check
// per Fit and one per Predict.
type clfMetrics struct {
	fits     *obs.Counter   // ml.<kind>.fits
	predicts *obs.Counter   // ml.<kind>.predicts
	fitSec   *obs.Histogram // ml.<kind>.fit.seconds
}

// timeFit starts timing one Fit call; call the returned func when the fit
// ends (success or error — both are fit work).
func (m *clfMetrics) timeFit() func() {
	if m.fitSec == nil {
		return noopEnd
	}
	start := time.Now()
	return func() {
		m.fits.Inc()
		m.fitSec.Observe(time.Since(start).Seconds())
	}
}

var noopEnd = func() {}

// mlMetrics is the package's full handle set, one per algorithm. The live
// set is swapped
// atomically by the OnDefault hook, so obs.SetDefault can rebind while fits
// and predictions run on other goroutines.
type mlMetrics struct {
	lda, qda, nb, knn, svm clfMetrics
}

var metPtr atomic.Pointer[mlMetrics]

// met returns the current handle set; never nil.
func met() *mlMetrics {
	if m := metPtr.Load(); m != nil {
		return m
	}
	return &mlMetrics{}
}

// Per-algorithm accessors, so call sites read like the handles they bind.
func ldaMet() *clfMetrics { return &met().lda }
func qdaMet() *clfMetrics { return &met().qda }
func nbMet() *clfMetrics  { return &met().nb }
func knnMet() *clfMetrics { return &met().knn }
func svmMet() *clfMetrics { return &met().svm }

func init() {
	obs.OnDefault(func(r *obs.Registry) {
		m := &mlMetrics{}
		bind := func(cm *clfMetrics, kind string) {
			cm.fits = r.Counter("ml." + kind + ".fits")
			cm.predicts = r.Counter("ml." + kind + ".predicts")
			cm.fitSec = r.HistogramWith("ml."+kind+".fit.seconds", obs.DurationBuckets())
		}
		bind(&m.lda, "lda")
		bind(&m.qda, "qda")
		bind(&m.nb, "bayes")
		bind(&m.knn, "knn")
		bind(&m.svm, "svm")
		metPtr.Store(m)
	})
}
