package core

import (
	"fmt"
	"math"

	"repro/internal/avr"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/stats"
)

// The single-trace decode. Classify, ClassifyScored, Disassemble and the
// scored batch all run one hierarchy walk over one pooled per-call scratch.
// The trace is validated and its time-domain moments are taken once: they
// are both the NormTrace parameters and the drift vector. The normalized
// trace is written once, and every level crossed evaluates its cells,
// z-score, PCA projection and scored classifier into the same buffers. A
// steady-state decode allocates nothing of its own; only the Levels of a
// Decision that leaves the call get memory, never the pooled scratch's.

// maxLevels is the deepest walk: group, instruction, Rd, Rr.
const maxLevels = 4

// levelID indexes a hierarchy stage.
type levelID int

const (
	levelGroup levelID = iota
	levelInstr
	levelRd
	levelRr
)

// levelNames are the DecisionLevel names; levelSpans the per-level span
// names, spelled out so a traced decode builds no strings.
var (
	levelNames = [maxLevels]string{"group", "instr", "rd", "rr"}
	levelSpans = [maxLevels]string{"core.classify.group", "core.classify.instr", "core.classify.rd", "core.classify.rr"}
)

// decodeScratch is the working memory of one trace decode. It is pooled per
// Disassembler and sized from the template's largest level.
type decodeScratch struct {
	mean, std float64   // the trace's moments (stats.TraceNormParams)
	norm      []float64 // the trace standardized once (NormTrace levels)
	cells     []float64 // a level's cell values, standardized and centred in place
	feat      []float64 // a level's classifier input
	pred      *ml.Scratch
	// levels holds the per-level outcomes of a decode whose Decision never
	// leaves the call (Classify); drift the drift vector of ClassifyScored.
	levels [maxLevels]obs.DecisionLevel
	drift  [features.NumDriftFeatures]float64
}

// getScratch takes a scratch from the pool, building one sized for every
// trained level when the pool is empty.
func (d *Disassembler) getScratch() *decodeScratch {
	if s, ok := d.scratch.Get().(*decodeScratch); ok {
		return s
	}
	var cells, feat int
	norm := false
	var clfs []ml.Classifier
	for _, lvl := range d.trainedLevels() {
		cells = max(cells, lvl.pipe.NumPoints())
		feat = max(feat, lvl.pipe.NumFeatures())
		norm = norm || lvl.pipe.Config().PerTraceNorm
		clfs = append(clfs, lvl.clf)
	}
	s := &decodeScratch{
		cells: make([]float64, cells),
		feat:  make([]float64, feat),
		pred:  ml.NewScratch(clfs...),
	}
	if norm {
		s.norm = make([]float64, d.TraceLen())
	}
	return s
}

// trainedLevels returns every level that carries templates.
func (d *Disassembler) trainedLevels() []groupLevel {
	var out []groupLevel
	for _, lvl := range append([]groupLevel{d.group, d.rd, d.rr}, d.instr[:]...) {
		if lvl.pipe != nil && lvl.clf != nil {
			out = append(out, lvl)
		}
	}
	return out
}

// grow returns (*buf)[:n], reallocating *buf first when it is too short.
func grow(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

// decode validates one trace and walks it through the sparse per-cell path
// in s, appending the per-level outcomes to levels (capacity maxLevels). It
// counts the trace as classified or rejected and leaves its moments in s,
// but does not feed the observer.
func (d *Disassembler) decode(trace []float64, s *decodeScratch, tsp *obs.SpanHandle, levels []obs.DecisionLevel) (Decision, error) {
	if d.group.pipe == nil || d.group.clf == nil {
		return Decision{}, ErrNotTrained
	}
	if err := power.ValidateTrace(trace, d.group.pipe.TraceLen()); err != nil {
		met().rejected.Inc()
		return Decision{}, fmt.Errorf("core: rejecting trace: %w", err)
	}
	s.mean, s.std = stats.TraceNormParams(trace)
	var norm []float64 // written when the first NormTrace level asks for it
	dec, err := d.walk(s.pred, func(pl *features.Pipeline) ([]float64, error) {
		x := trace
		if pl.Config().PerTraceNorm {
			if norm == nil {
				norm = grow(&s.norm, len(trace))
				stats.NormalizeTraceWith(norm, trace, s.mean, s.std)
			}
			x = norm
		}
		out := grow(&s.feat, pl.NumFeatures())
		if err := pl.ExtractSparseInto(out, grow(&s.cells, pl.NumPoints()), x); err != nil {
			return nil, err
		}
		return out, nil
	}, tsp, levels)
	if err != nil {
		met().rejected.Inc()
		return Decision{}, err
	}
	met().classified.Inc()
	return dec, nil
}

// walk is the hierarchy walk. extract maps a level's pipeline to its
// classifier input: the sparse extraction into the decode scratch at
// inference, Pipeline.Extract when the accuracy gate decodes a second time
// as the sparse path's oracle. Each level's scored decision, predicted in
// pred, is appended to levels. tsp, when non-nil, is the per-trace parent
// span; each level records a wall-only child span under it
// (core.classify.group/instr/rd/rr).
func (d *Disassembler) walk(pred *ml.Scratch, extract func(*features.Pipeline) ([]float64, error), tsp *obs.SpanHandle, levels []obs.DecisionLevel) (Decision, error) {
	dec := Decision{Confidence: 1, Levels: levels[:0]}
	gi, err := d.level(&dec, levelGroup, d.group, pred, extract, tsp)
	if err != nil {
		return Decision{}, err
	}
	if gi < 0 || gi >= avr.NumGroups {
		return Decision{}, fmt.Errorf("core: group label %d out of range", gi)
	}
	lvl := d.instr[gi]
	if lvl.pipe == nil || lvl.clf == nil {
		return Decision{}, fmt.Errorf("core: no instruction templates for group %d: %w", gi+1, ErrNotTrained)
	}
	ii, err := d.level(&dec, levelInstr, lvl, pred, extract, tsp)
	if err != nil {
		return Decision{}, err
	}
	if ii < 0 || ii >= len(d.instrClass[gi]) {
		return Decision{}, fmt.Errorf("core: instruction label %d out of range for group %d", ii, gi+1)
	}
	cls := d.instrClass[gi][ii]
	dec.Decoded = Decoded{Class: cls, Group: cls.Group()}

	if d.haveRegs {
		sp := avr.SpecOf(cls)
		needRd, needRr := operandRegisters(sp.Operands, cls)
		if needRd {
			r, err := d.level(&dec, levelRd, d.rd, pred, extract, tsp)
			if err != nil {
				return Decision{}, err
			}
			dec.Rd, dec.HasRd = uint8(r), true
		}
		if needRr {
			r, err := d.level(&dec, levelRr, d.rr, pred, extract, tsp)
			if err != nil {
				return Decision{}, err
			}
			dec.Rr, dec.HasRr = uint8(r), true
		}
	}
	return dec, nil
}

// level decides one hierarchy level and records it into dec. The group
// level's decision is restricted to trained groups (remapGroup) before it
// is recorded.
func (d *Disassembler) level(dec *Decision, id levelID, lvl groupLevel, pred *ml.Scratch, extract func(*features.Pipeline) ([]float64, error), tsp *obs.SpanHandle) (int, error) {
	var lsp *obs.SpanHandle
	if tsp != nil {
		lsp = tsp.Child(levelSpans[id])
		defer lsp.End()
	}
	f, err := extract(lvl.pipe)
	if err != nil {
		return 0, fmt.Errorf("core: %s features: %w", levelNames[id], err)
	}
	sp, err := predictScored(lvl.clf, f, pred)
	if err != nil {
		return 0, fmt.Errorf("core: %s classify: %w", levelNames[id], err)
	}
	if id == levelGroup {
		sp = d.remapGroup(f, sp, pred)
	}
	lsp.SetAttr("label", float64(sp.Label))
	lsp.SetAttr("confidence", sp.Confidence)
	lsp.SetAttr("margin", sp.Margin)
	dec.Levels = append(dec.Levels, obs.DecisionLevel{
		Level:      levelNames[id],
		Label:      sp.Label,
		RunnerUp:   sp.RunnerUp,
		Confidence: sp.Confidence,
		Margin:     sp.Margin,
	})
	dec.Confidence *= sp.Confidence
	return sp.Label, nil
}

// predictScored runs the classifier's scored path in pred when it has one
// (every built-in family), and otherwise falls back to Predict with a
// degenerate full-confidence score so externally supplied Classifier
// implementations keep working.
func predictScored(clf ml.Classifier, f []float64, pred *ml.Scratch) (ml.ScoredPrediction, error) {
	if c, ok := clf.(ml.ScratchClassifier); ok {
		return c.PredictScoredScratch(f, pred)
	}
	lbl, err := clf.Predict(f)
	if err != nil {
		return ml.ScoredPrediction{}, err
	}
	return ml.ScoredPrediction{Label: lbl, RunnerUp: -1, Confidence: 1, Margin: 1}, nil
}

// trainedGroup reports whether group label gi carries instruction templates.
func (d *Disassembler) trainedGroup(gi int) bool {
	return gi >= 0 && gi < avr.NumGroups && d.instr[gi].pipe != nil && d.instr[gi].clf != nil
}

// remapGroup redirects a group decision that landed on a group without
// instruction templates onto the best-scoring trained group. A subset
// disassembler's group classifier is trained on the full 8-way task
// (TrainSubset), so the occasional trace routes to a group it has no level-2
// templates for; a monitoring appliance should answer with the most likely
// group it can actually decode — the downstream majority fusion cancels the
// misread — rather than fail the trace. The classifier's raw scores (an
// ml.ScratchScorer, written into pred) for every untrained group are masked
// to -Inf and the confidence and margin renormalized over the rest, so the
// DecisionLevel reflects the restricted decision. When the classifier
// exposes no scores, or no trained group exists, the decision is returned
// unchanged and the walk's untrained-group error stands.
func (d *Disassembler) remapGroup(gf []float64, sp ml.ScoredPrediction, pred *ml.Scratch) ml.ScoredPrediction {
	if d.trainedGroup(sp.Label) {
		return sp
	}
	sc, ok := d.group.clf.(ml.ScratchScorer)
	if !ok {
		return sp
	}
	scores, err := sc.ScoresScratch(gf, pred)
	if err != nil {
		return sp
	}
	any := false
	for g := range scores {
		if d.trainedGroup(g) {
			any = true
		} else {
			scores[g] = math.Inf(-1)
		}
	}
	if !any {
		return sp
	}
	met().groupRemapped.Inc()
	return pred.ScoredFromLogScores(scores)
}

// driftVector writes the drift vector of the trace s last decoded into dst
// when a drift sink is installed, and returns nil otherwise.
func (d *Disassembler) driftVector(s *decodeScratch, dst []float64) []float64 {
	if o := d.observer; o == nil || o.Drift == nil {
		return nil
	}
	return features.DriftVectorInto(dst, s.mean, s.std)
}
