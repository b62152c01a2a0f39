package core

import (
	"errors"
	"fmt"

	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/power"
)

// InferenceObserver bundles the inference-quality sinks a Disassembler
// feeds while classifying: the sampled JSONL decision log, the
// covariate-shift drift monitor, and the calibration tracker. Any field may
// be nil — every sink is individually optional and nil-safe.
type InferenceObserver struct {
	// Log receives one DecisionRecord per successful classification
	// (sampled inside the log).
	Log *obs.DecisionLog
	// Drift receives one drift vector (see features.Pipeline.DriftVector)
	// per successful classification.
	Drift *obs.DriftMonitor
	// Calibration holds ground-truth-labeled confidences. The decoder never
	// feeds it: only a caller that knows the executed stream can label a
	// decision, as the experiments' malware evaluation does.
	Calibration *obs.Reliability
}

// SetObserver installs the inference-quality sinks. Classify and the batch
// decodes feed them from then on; scored classification is used
// automatically. Must be called before classification starts — the field is
// read without synchronization on the hot path.
func (d *Disassembler) SetObserver(o *InferenceObserver) { d.observer = o }

// Observer returns the installed sinks, or nil.
func (d *Disassembler) Observer() *InferenceObserver { return d.observer }

// DriftBaseline returns the training-time drift reference of the group
// pipeline (the shared front of the hierarchy), or nil for templates that
// predate drift support.
func (d *Disassembler) DriftBaseline() *features.FeatureBaseline {
	if d.group.pipe == nil {
		return nil
	}
	return d.group.pipe.DriftBaseline()
}

// ErrNoDriftBaseline is returned by NewDriftMonitor for templates that
// predate drift support (converted from the oldest gob files): they carry no
// training-time feature statistics to compare against.
var ErrNoDriftBaseline = errors.New("core: template lacks a drift baseline (saved by an older build); retrain to enable drift monitoring")

// NewDriftMonitor builds a covariate-shift monitor against this
// disassembler's training baseline.
func (d *Disassembler) NewDriftMonitor(cfg obs.DriftConfig) (*obs.DriftMonitor, error) {
	if d.group.pipe == nil {
		return nil, ErrNotTrained
	}
	b := d.DriftBaseline()
	if b == nil {
		return nil, ErrNoDriftBaseline
	}
	return obs.NewDriftMonitor(obs.DriftBaseline{Names: b.Names, Mean: b.Mean, Std: b.Std}, cfg)
}

// Decision is a Decoded instruction annotated with how confidently each
// hierarchy level decided it.
type Decision struct {
	Decoded
	// Confidence is the product of the per-level confidences — the
	// probability the whole chain is right under level independence.
	Confidence float64
	// Levels holds the per-level outcomes, outermost (group) first.
	Levels []obs.DecisionLevel
}

// Record converts the decision into its decision-log form (Seq is assigned
// by the log).
func (dec Decision) Record() obs.DecisionRecord {
	return obs.DecisionRecord{
		Text:       dec.Decoded.String(),
		Confidence: dec.Confidence,
		Levels:     dec.Levels,
	}
}

// feedObserver pushes one successful decision into the installed sinks.
func (d *Disassembler) feedObserver(dec Decision, driftVec []float64) {
	o := d.observer
	if o == nil {
		return
	}
	met().confidence.Observe(dec.Confidence)
	if driftVec != nil {
		o.Drift.Observe(driftVec)
	}
	// The log builds the record (its listing text and levels) only for the
	// decisions it keeps, so a sparsely sampled log costs one count.
	if err := o.Log.RecordWith(dec.Record); err != nil {
		met().decisionLogErrs.Inc()
	}
}

// ObserveTrace feeds the installed drift monitor with one trace's covariate
// statistics without classifying it. Covariate shift is a property of the
// input stream, not of classification success — under severe drift the
// hierarchy walk starts failing (wrong group → untrained level) and a
// monitor fed only from successful decisions would starve exactly when it
// matters most. It also lets a monitor watch traffic whose instruction mix
// the trained subset does not cover. No-op (nil error) without a drift sink.
func (d *Disassembler) ObserveTrace(trace []float64) error {
	o := d.observer
	if o == nil || o.Drift == nil {
		return nil
	}
	if d.group.pipe == nil {
		return ErrNotTrained
	}
	if err := power.ValidateTrace(trace, d.group.pipe.TraceLen()); err != nil {
		return fmt.Errorf("core: rejecting trace: %w", err)
	}
	dv, err := d.group.pipe.DriftVector(trace)
	if err != nil {
		return err
	}
	o.Drift.Observe(dv)
	return nil
}

// ClassifyScored decodes a single power trace with per-level confidence,
// feeding the installed observer inline — the streaming path. The label is
// identical to Classify's on the same trace.
func (d *Disassembler) ClassifyScored(trace []float64) (Decision, error) {
	s := d.getScratch()
	defer d.scratch.Put(s)
	ls := [1]lane{newLane(trace, s, nil, make([]obs.DecisionLevel, maxLevels))}
	d.decode(ls[:])
	dec, err := ls[0].result()
	if err != nil {
		return Decision{}, err
	}
	d.feedObserver(dec, d.driftVector(s, s.drift[:]))
	return dec, nil
}
