package power

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/stats"
)

// valMetrics holds the validation instrument handles; the handles are nil
// (no-op) under a nil registry. The live set is swapped atomically by the
// OnDefault hook so obs.SetDefault can rebind while traces validate.
type valMetrics struct {
	checked     *obs.Counter // power.validate.checked
	nonFinite   *obs.Counter // power.validate.rejected_non_finite
	constant    *obs.Counter // power.validate.rejected_constant
	wrongLength *obs.Counter // power.validate.rejected_wrong_length
}

var metPtr atomic.Pointer[valMetrics]

// met returns the current handle set; never nil.
func met() *valMetrics {
	if m := metPtr.Load(); m != nil {
		return m
	}
	return &valMetrics{}
}

func init() {
	obs.OnDefault(func(r *obs.Registry) {
		metPtr.Store(&valMetrics{
			checked:     r.Counter("power.validate.checked"),
			nonFinite:   r.Counter("power.validate.rejected_non_finite"),
			constant:    r.Counter("power.validate.rejected_constant"),
			wrongLength: r.Counter("power.validate.rejected_wrong_length"),
		})
	})
}

// Trace-level validation sentinels. Each is wrapped (with %w) into the
// descriptive error ValidateTrace returns, so callers dispatch with
// errors.Is while logs keep the specifics.
var (
	// ErrNonFiniteTrace marks a trace containing NaN or ±Inf samples — a
	// glitched scope capture. A single such sample would propagate NaN
	// through the CWT into every downstream statistic.
	ErrNonFiniteTrace = errors.New("power: trace has non-finite samples")
	// ErrConstantTrace marks a trace with zero sample variance — a flat-lined
	// probe. It normalizes to all-zeros and carries no instruction signal.
	ErrConstantTrace = errors.New("power: trace is constant")
	// ErrTraceLength marks a trace whose length differs from the campaign's
	// configured TraceLen — a truncated or misaligned capture.
	ErrTraceLength = errors.New("power: trace length mismatch")
)

// ValidateTrace checks one trace against the defects the fit/classify path
// cannot absorb: wrong length (when wantLen > 0), non-finite samples, and
// zero variance. It returns nil for a usable trace, or a descriptive error
// wrapping one of the sentinels above.
func ValidateTrace(trace []float64, wantLen int) error {
	if len(trace) == 0 {
		return fmt.Errorf("%w: empty trace", ErrTraceLength)
	}
	if wantLen > 0 && len(trace) != wantLen {
		return fmt.Errorf("%w: got %d samples, want %d", ErrTraceLength, len(trace), wantLen)
	}
	if !stats.AllFinite(trace) {
		return ErrNonFiniteTrace
	}
	first := trace[0]
	for _, v := range trace[1:] {
		if v != first {
			return nil
		}
	}
	return fmt.Errorf("%w: all %d samples equal %g", ErrConstantTrace, len(trace), first)
}

// ValidationReport counts the traces a Validate/Sanitize pass rejected,
// broken down by defect.
type ValidationReport struct {
	Checked     int // traces examined
	NonFinite   int // rejected: NaN/±Inf samples
	Constant    int // rejected: zero variance
	WrongLength int // rejected: length mismatch
}

// Rejected returns the total number of rejected traces.
func (r ValidationReport) Rejected() int { return r.NonFinite + r.Constant + r.WrongLength }

// Merge accumulates another report into r.
func (r *ValidationReport) Merge(o ValidationReport) {
	r.Checked += o.Checked
	r.NonFinite += o.NonFinite
	r.Constant += o.Constant
	r.WrongLength += o.WrongLength
}

// String renders the report for logs, e.g.
// "2/100 traces rejected (1 non-finite, 1 constant)".
func (r ValidationReport) String() string {
	if r.Rejected() == 0 {
		return fmt.Sprintf("0/%d traces rejected", r.Checked)
	}
	var parts []string
	if r.NonFinite > 0 {
		parts = append(parts, fmt.Sprintf("%d non-finite", r.NonFinite))
	}
	if r.Constant > 0 {
		parts = append(parts, fmt.Sprintf("%d constant", r.Constant))
	}
	if r.WrongLength > 0 {
		parts = append(parts, fmt.Sprintf("%d wrong-length", r.WrongLength))
	}
	return fmt.Sprintf("%d/%d traces rejected (%s)", r.Rejected(), r.Checked, strings.Join(parts, ", "))
}

// count files err into the report (and the registry, when one is installed);
// returns false for a nil error.
func (r *ValidationReport) count(err error) bool {
	met().checked.Inc()
	switch {
	case err == nil:
		return false
	case errors.Is(err, ErrNonFiniteTrace):
		r.NonFinite++
		met().nonFinite.Inc()
	case errors.Is(err, ErrTraceLength):
		r.WrongLength++
		met().wrongLength.Inc()
	default: // ErrConstantTrace and anything future lands here conservatively
		r.Constant++
		met().constant.Inc()
	}
	return true
}

// referenceLen returns the trace length to validate against when the caller
// does not pin one: the most common length in the dataset (ties broken toward
// the shorter length for determinism). Using the mode instead of the first
// trace keeps one truncated leading capture from condemning the rest.
func (d *Dataset) referenceLen() int {
	counts := map[int]int{}
	for _, tr := range d.Traces {
		counts[len(tr)]++
	}
	lens := make([]int, 0, len(counts))
	for l := range counts {
		lens = append(lens, l)
	}
	sort.Ints(lens)
	best, bestCount := 0, -1
	for _, l := range lens {
		if counts[l] > bestCount {
			best, bestCount = l, counts[l]
		}
	}
	return best
}

// Sanitize returns a copy of the dataset with every defective trace removed
// (per-trace rejection — one bad capture never aborts a campaign) plus the
// report of what was dropped. wantLen <= 0 selects the modal trace length.
// The trace slices themselves are shared, not copied. An all-defective
// dataset yields an empty clean set; callers decide whether that is fatal.
func (d *Dataset) Sanitize(wantLen int) (*Dataset, ValidationReport) {
	if wantLen <= 0 {
		wantLen = d.referenceLen()
	}
	clean := &Dataset{DeviceID: d.DeviceID, ClassNames: d.ClassNames}
	var rep ValidationReport
	for i, tr := range d.Traces {
		rep.Checked++
		if rep.count(ValidateTrace(tr, wantLen)) {
			continue
		}
		clean.Append(tr, d.Labels[i], d.Programs[i])
	}
	return clean, rep
}
