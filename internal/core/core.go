// Package core assembles the substrates into the paper's contribution: a
// power side-channel disassembler. A trained Disassembler maps a single
// power trace to an instruction — hierarchically, as in Section 2.1:
//
//	level 1: which of the 8 instruction groups,
//	level 2: which instruction inside that group,
//	level 3: which operand registers (Rd, Rr) where the class uses them.
//
// Each level has its own KL/PCA feature pipeline and classifier. The Trainer
// runs the simulated acquisition campaign, fits the pipelines (optionally
// with covariate shift adaptation) and trains the classifiers.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/avr"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// coreMetrics holds the disassembly instrument handles; the handles are nil
// (no-op) under a nil registry. The live set is swapped atomically by the
// OnDefault hook so obs.SetDefault can rebind while classifications run.
type coreMetrics struct {
	classified      *obs.Counter   // core.traces.classified — Classify calls that succeeded
	rejected        *obs.Counter   // core.traces.rejected — Classify calls that failed
	groupRemapped   *obs.Counter   // core.group.remapped — group decisions redirected onto a trained group
	confidence      *obs.Histogram // core.decision.confidence — overall decision confidences
	decisionLogErrs *obs.Counter   // core.decision_log.errors — failed JSONL writes
}

var metPtr atomic.Pointer[coreMetrics]

// met returns the current handle set; never nil.
func met() *coreMetrics {
	if m := metPtr.Load(); m != nil {
		return m
	}
	return &coreMetrics{}
}

func init() {
	obs.OnDefault(func(r *obs.Registry) {
		metPtr.Store(&coreMetrics{
			classified:      r.Counter("core.traces.classified"),
			rejected:        r.Counter("core.traces.rejected"),
			groupRemapped:   r.Counter("core.group.remapped"),
			confidence:      r.HistogramWith("core.decision.confidence", obs.UnitBuckets()),
			decisionLogErrs: r.Counter("core.decision_log.errors"),
		})
	})
}

// SparseMode was the inference-path selector (auto, on, off).
//
// Deprecated: sparse per-cell extraction is the only inference path; the
// type remains only so existing callers of SetSparseModePreferred compile.
type SparseMode int

// SparseAuto was the default SparseMode. It is an untyped constant, so it
// also still fills the ignored serve.RegistryConfig.Sparse field. It stays
// only because scdisbench's replay names it (ROADMAP item 1 retires it).
//
// Deprecated: see SparseMode.
const SparseAuto = 0

// ClassifierKind selects the classification algorithm at every level.
type ClassifierKind string

// The classifier families the paper evaluates.
const (
	ClassifierLDA ClassifierKind = "lda"
	ClassifierQDA ClassifierKind = "qda"
	ClassifierSVM ClassifierKind = "svm"
	ClassifierNB  ClassifierKind = "naive-bayes"
	ClassifierKNN ClassifierKind = "knn"
)

// NewClassifier constructs an untrained classifier of the given kind.
// SVM hyperparameters follow the harness defaults (C=10, RBF γ=0.1); use the
// ml package directly for grid search.
func NewClassifier(kind ClassifierKind) (ml.Classifier, error) {
	switch kind {
	case ClassifierLDA:
		return ml.NewLDA(), nil
	case ClassifierQDA:
		return ml.NewQDA(), nil
	case ClassifierSVM:
		return ml.NewSVM(10, ml.RBFKernel{Gamma: 0.1}), nil
	case ClassifierNB:
		return ml.NewGaussianNB(), nil
	case ClassifierKNN:
		return ml.NewKNN(1), nil
	default:
		return nil, fmt.Errorf("core: unknown classifier kind %q", kind)
	}
}

// Decoded is one reverse-engineered instruction: the class plus recovered
// register operands where the class has them. Operand fields that the power
// channel cannot determine (immediates, branch targets, addresses) are left
// unknown.
type Decoded struct {
	Class avr.Class
	Group avr.Group
	Rd    uint8
	Rr    uint8
	HasRd bool
	HasRr bool
}

// String renders the decoded instruction in assembler-like syntax with '?'
// for operands the side channel cannot recover.
func (d Decoded) String() string {
	sp := avr.SpecOf(d.Class)
	var b strings.Builder
	b.WriteString(sp.Name)
	operand := func(has bool, r uint8) string {
		if has {
			return fmt.Sprintf("r%d", r)
		}
		return "r?"
	}
	switch sp.Operands {
	case avr.OperandRdRr:
		fmt.Fprintf(&b, " %s, %s", operand(d.HasRd, d.Rd), operand(d.HasRr, d.Rr))
	case avr.OperandRdK, avr.OperandRdPairK:
		fmt.Fprintf(&b, " %s, K?", operand(d.HasRd, d.Rd))
	case avr.OperandRd:
		fmt.Fprintf(&b, " %s", operand(d.HasRd, d.Rd))
	case avr.OperandOff, avr.OperandAddr:
		b.WriteString(" k?")
	case avr.OperandRdAddr:
		fmt.Fprintf(&b, " %s, k?", operand(d.HasRd, d.Rd))
	case avr.OperandAddrRr:
		fmt.Fprintf(&b, " k?, %s", operand(d.HasRr, d.Rr))
	case avr.OperandRdPtr, avr.OperandRdZ, avr.OperandRdQ:
		fmt.Fprintf(&b, " %s, %s", operand(d.HasRd, d.Rd), ptrText(d.Class))
	case avr.OperandPtrRr, avr.OperandQRr:
		fmt.Fprintf(&b, " %s, %s", ptrText(d.Class), operand(d.HasRr, d.Rr))
	case avr.OperandRrB:
		fmt.Fprintf(&b, " %s, b?", operand(d.HasRd || d.HasRr, pickReg(d)))
	case avr.OperandAB:
		b.WriteString(" A?, b?")
	case avr.OperandSOff:
		b.WriteString(" s?, k?")
	case avr.OperandS:
		b.WriteString(" s?")
	}
	return b.String()
}

func pickReg(d Decoded) uint8 {
	if d.HasRd {
		return d.Rd
	}
	return d.Rr
}

func ptrText(c avr.Class) string {
	switch avr.SpecOf(c).Operands {
	case avr.OperandRdQ, avr.OperandQRr:
		return avr.PointerToken(c) + "+q?"
	default:
		return avr.PointerToken(c)
	}
}

// groupLevel bundles the fitted pipeline + classifier of one level.
type groupLevel struct {
	pipe *features.Pipeline
	clf  ml.Classifier
}

// trained reports whether the level carries templates.
func (g groupLevel) trained() bool { return g.pipe != nil && g.clf != nil }

// Disassembler is a fully trained hierarchical template set.
//
// Concurrency: a trained Disassembler is immutable, so Classify,
// ClassifyScored, Disassemble and the scored batch variants are safe for
// concurrent use from any number of goroutines — one shared Disassembler can
// serve concurrent requests. Disassemble additionally fans the per-trace
// classification out over the parallel.Workers() pool. SetObserver is
// configuration, not serving: call it before the first classification — the
// observer is read without synchronization on the hot path. The observer
// sinks themselves (DecisionLog, DriftMonitor, Reliability) are internally
// synchronized, so concurrent batch decodes feed them safely; within one
// batch the feeding order is the trace-stream order, across batches it is
// arrival order.
type Disassembler struct {
	group      groupLevel
	instr      [avr.NumGroups]groupLevel
	instrClass [avr.NumGroups][]avr.Class // label → class per group
	rd         groupLevel
	rr         groupLevel
	haveRegs   bool
	observer   *InferenceObserver // inference-quality sinks; nil = disabled
	scratch    sync.Pool          // *decodeScratch, one per decode in flight
}

// SetSparseModePreferred once chose the inference path per template.
//
// Deprecated: sparse per-cell extraction is the only inference path; this is
// a no-op that reports no fallback. It stays only because scdisbench's
// replay calls it (ROADMAP item 1 retires it).
func (d *Disassembler) SetSparseModePreferred(SparseMode) (fellBack bool) { return false }

// SparseEnabled reports whether classification runs the sparse path.
//
// Deprecated: it always does; this returns true. It stays only because
// scdisbench's replay calls it (ROADMAP item 1 retires it).
func (d *Disassembler) SparseEnabled() bool { return true }

// ErrNotTrained is returned when a Disassembler lacks a required level.
var ErrNotTrained = errors.New("core: disassembler not trained")

// TraceLen returns the trace length (in samples) the templates were fitted
// at — the length every submitted trace must have. 0 for an untrained
// disassembler.
func (d *Disassembler) TraceLen() int {
	if d.group.pipe == nil {
		return 0
	}
	return d.group.pipe.TraceLen()
}

// Classify decodes a single power trace into an instruction. Each hierarchy
// level (group, instruction, Rd, Rr) evaluates only its own selected
// time–frequency cells as direct dot products
// (features.Pipeline.ExtractSparseInto); no full scalogram is computed at
// inference. It runs the same walk as ClassifyScored with no sinks fed, in
// pooled scratch, and allocates nothing in the steady state.
//
// The trace is validated first (power.ValidateTrace): a NaN/Inf, constant or
// wrong-length capture is rejected with a typed error instead of silently
// producing a garbage label.
//
// It is the facade's single-trace decode: nothing in this module calls it,
// but sidechannel.Disassembler users do, and TestDecodeAllocationBudget,
// TestSparseSpeedupBudget and BENCH_pipeline.json measure it.
func (d *Disassembler) Classify(trace []float64) (Decoded, error) {
	if d.observer != nil {
		// An installed observer wants the scored path: same labels (the
		// scored predictors argmax the same scores), plus sink feeding.
		dec, err := d.ClassifyScored(trace)
		return dec.Decoded, err
	}
	s := d.getScratch()
	defer d.scratch.Put(s)
	ls := [1]lane{newLane(trace, s, nil, s.levels[:])}
	d.decode(ls[:])
	dec, err := ls[0].result()
	return dec.Decoded, err
}

// operandRegisters reports which register operands a class carries.
func operandRegisters(k avr.OperandKind, c avr.Class) (rd, rr bool) {
	switch k {
	case avr.OperandRdRr:
		return true, true
	case avr.OperandRdK, avr.OperandRdPairK, avr.OperandRd, avr.OperandRdAddr,
		avr.OperandRdPtr, avr.OperandRdQ, avr.OperandRdZ:
		return true, false
	case avr.OperandAddrRr, avr.OperandPtrRr, avr.OperandQRr:
		return false, true
	case avr.OperandRrB:
		if c == avr.OpBST || c == avr.OpBLD {
			return true, false
		}
		return false, true
	default:
		return false, false
	}
}

// Disassemble decodes a stream of traces (one per executed instruction)
// into a listing. The classifications run on the parallel.Workers() pool,
// two adjacent traces per walk; the output (and, on failure, the decoded
// prefix plus the lowest-index error) is identical to classifying serially.
// It is DisassembleCtx with a background context, kept as the facade's decode
// that sidechannel's package doc and examples call.
func (d *Disassembler) Disassemble(traces [][]float64) ([]Decoded, error) {
	return d.DisassembleCtx(context.Background(), traces)
}

// DisassembleCtx is Disassemble with cooperative cancellation. On a
// classification failure the decoded prefix plus the lowest-index error are
// returned, exactly like the serial flow; on cancellation the scheduling of
// new traces stops and the call returns a nil listing with ctx.Err().
func (d *Disassembler) DisassembleCtx(ctx context.Context, traces [][]float64) ([]Decoded, error) {
	if d.observer != nil {
		decs, err := d.DisassembleScoredCtx(ctx, traces)
		if decs == nil {
			return nil, err
		}
		out := make([]Decoded, len(decs))
		for i, dec := range decs {
			out[i] = dec.Decoded
		}
		return out, err
	}
	ctx, span := obs.Span(ctx, "core.disassemble")
	defer span.End()
	span.SetAttr("traces", float64(len(traces)))
	out := make([]Decoded, len(traces))
	failIdx, failWith, ctxErr := d.batch(ctx, span, traces, nil, func(i int, dec Decision, _ *decodeScratch) {
		out[i] = dec.Decoded
	})
	if failWith != nil {
		return out[:failIdx], failWith
	}
	if ctxErr != nil {
		return nil, ctxErr
	}
	return out, nil
}

// DisassembleScored is DisassembleScoredCtx with a background context. It
// stays only because scdisbench's replay calls it (ROADMAP item 1 retires it).
func (d *Disassembler) DisassembleScored(traces [][]float64) ([]Decision, error) {
	return d.DisassembleScoredCtx(context.Background(), traces)
}

// DisassembleScoredCtx decodes a stream of traces with per-decision
// confidence. Classification fans out over the parallel.Workers() pool in
// the same pairs as Disassemble; the installed observer is then fed
// serially in trace-stream order, so the decision log's sampled records and
// the drift monitor's window contents are identical to a serial run
// regardless of worker count. Error semantics match DisassembleCtx (decoded
// prefix + lowest-index error; observer sees only the clean prefix).
func (d *Disassembler) DisassembleScoredCtx(ctx context.Context, traces [][]float64) ([]Decision, error) {
	ctx, span := obs.Span(ctx, "core.disassemble")
	defer span.End()
	span.SetAttr("traces", float64(len(traces)))
	out := make([]Decision, len(traces))
	// Every decision's Levels is a maxLevels-capacity window into one
	// backing array per batch — never pooled scratch, because decisions
	// leave the call — and the drift vectors wait in one array for the
	// in-order feeding below.
	levels := make([]obs.DecisionLevel, maxLevels*len(traces))
	var drift []float64
	if o := d.observer; o != nil && o.Drift != nil {
		drift = make([]float64, features.NumDriftFeatures*len(traces))
	}
	failIdx, failWith, ctxErr := d.batch(ctx, span, traces, levels, func(i int, dec Decision, s *decodeScratch) {
		d.driftVector(s, driftSlot(drift, i))
		out[i] = dec
	})
	if ctxErr == nil {
		var confSum float64
		for i := 0; i < failIdx; i++ {
			d.feedObserver(out[i], driftSlot(drift, i))
			confSum += out[i].Confidence
		}
		if failIdx > 0 {
			span.SetAttr("confidence.mean", confSum/float64(failIdx))
		}
		if o := d.observer; o != nil {
			if o.Drift != nil {
				span.SetAttr("drift.score", o.Drift.Score())
				span.SetAttr("drift.state", float64(o.Drift.State()))
			}
			span.SetAttr("decisions.seen", float64(o.Log.Seen()))
		}
	}
	if failWith != nil {
		return out[:failIdx], failWith
	}
	if ctxErr != nil {
		return nil, ctxErr
	}
	return out, nil
}

// batch is the loop of both batch decodes. It decodes the traces on the
// parallel.Workers() pool, adjacent traces (2i, 2i+1) as one two-lane walk;
// the last trace of an odd batch walks alone. done receives every decoded
// trace with its index and scratch, before the scratch returns to the pool.
// A Decision's Levels are a window into levels (maxLevels per trace), or
// into the scratch when levels is nil because no decision leaves the call.
// batch returns the lowest failing index (len(traces) when none) with its
// error, and ctx's error when scheduling stopped.
func (d *Disassembler) batch(ctx context.Context, span *obs.SpanHandle, traces [][]float64, levels []obs.DecisionLevel, done func(i int, dec Decision, s *decodeScratch)) (failIdx int, failWith, ctxErr error) {
	const per = 2
	var fail struct {
		sync.Mutex
		idx int
		err error
	}
	fail.idx = len(traces)
	ctxErr = parallel.ForCtx(ctx, (len(traces)+per-1)/per, func(u int) {
		var ls [per]lane
		lo, hi := u*per, min(u*per+per, len(traces))
		for i := lo; i < hi; i++ {
			// Per-trace fine span: only request tracers (Fine=true) pay for
			// it; the CLI session tracer and untraced batches skip at the
			// flag check.
			tsp := span.FineChild("core.classify")
			tsp.SetAttr("trace", float64(i))
			s := d.getScratch()
			lv := s.levels[:]
			if levels != nil {
				lv = levels[maxLevels*i : maxLevels*(i+1) : maxLevels*(i+1)]
			}
			ls[i-lo] = newLane(traces[i], s, tsp, lv)
		}
		d.decode(ls[:hi-lo])
		for i := lo; i < hi; i++ {
			l := &ls[i-lo]
			dec, err := l.result()
			if err == nil {
				done(i, dec, l.s)
			}
			d.scratch.Put(l.s)
			if err != nil {
				l.tsp.SetAttr("error", 1)
				l.tsp.End()
				fail.Lock()
				if i < fail.idx {
					fail.idx, fail.err = i, fmt.Errorf("core: trace %d: %w", i, err)
				}
				fail.Unlock()
				continue
			}
			l.tsp.SetAttr("confidence", dec.Confidence)
			l.tsp.End()
		}
	})
	return fail.idx, fail.err, ctxErr
}

// driftSlot returns trace i's drift vector in a batch's drift array, or nil
// when the batch keeps none.
func driftSlot(drift []float64, i int) []float64 {
	if drift == nil {
		return nil
	}
	return drift[features.NumDriftFeatures*i : features.NumDriftFeatures*(i+1)]
}

// Listing renders decoded instructions as assembler text.
func Listing(decs []Decoded) string {
	var b strings.Builder
	for _, d := range decs {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// registerContext reports the Instruction field a Decoded comparison should
// look at; used by malware flow checks.
func registerContext(c avr.Class, in avr.Instruction) (rd uint8, rr uint8, hasRd, hasRr bool) {
	hasRd, hasRr = operandRegisters(avr.SpecOf(c).Operands, c)
	return in.Rd, in.Rr, hasRd, hasRr
}
