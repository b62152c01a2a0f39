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

// The trace decode. Classify, ClassifyScored and both batch decodes run one
// hierarchy walk over pooled per-call scratch. The walk carries one or two
// lanes, each one trace with its own scratch: a batch decode hands it
// adjacent traces in pairs, so a level both traces reach through the same
// pipeline evaluates their cells in one pass over its kernel windows. Each
// trace is validated and its time-domain moments are taken once: they are
// both the NormTrace parameters and the drift vector. The normalized trace
// is written once, and every level crossed evaluates its cells, z-score,
// PCA projection and scored classifier into the lane's buffers. A
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
	// leaves the call (Classify and the plain batch); drift the drift
	// vector of ClassifyScored.
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
		if lvl.trained() {
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

// lane is one trace's pass through the walk.
type lane struct {
	trace []float64
	s     *decodeScratch
	tsp   *obs.SpanHandle // per-trace parent span; nil when untraced
	dec   Decision
	err   error // set once the trace is rejected or fails; the lane is then done

	norm   []float64       // the trace standardized once, when a NormTrace level asks
	lvl    groupLevel      // the level the lane runs at the current stage; zero for none
	lsp    *obs.SpanHandle // that level's span
	feat   []float64       // that level's classifier input
	label  int             // the label the lane's last level decided
	needRr bool            // the decoded class carries an Rr operand
}

// newLane starts one trace's pass in scratch s. tsp is the per-trace parent
// span (nil when untraced); the Decision's Levels are appended into levels,
// which must have capacity maxLevels.
func newLane(trace []float64, s *decodeScratch, tsp *obs.SpanHandle, levels []obs.DecisionLevel) lane {
	return lane{trace: trace, s: s, tsp: tsp, dec: Decision{Confidence: 1, Levels: levels[:0]}}
}

// result returns the lane's Decision, or its error and a zero Decision.
func (l *lane) result() (Decision, error) {
	if l.err != nil {
		return Decision{}, l.err
	}
	return l.dec, nil
}

// input returns the trace as pl reads it: the raw trace, or for a NormTrace
// pipeline the lane's normalized copy, written on first use.
func (l *lane) input(pl *features.Pipeline) []float64 {
	if !pl.Config().PerTraceNorm {
		return l.trace
	}
	if l.norm == nil {
		l.norm = grow(&l.s.norm, len(l.trace))
		stats.NormalizeTraceWith(l.norm, l.trace, l.s.mean, l.s.std)
	}
	return l.norm
}

// decode validates each lane's trace and walks the valid ones through the
// hierarchy together, leaving each lane's Decision or error in it. It
// counts every trace as classified or rejected and leaves its moments in
// its scratch, but does not feed the observer.
func (d *Disassembler) decode(ls []lane) {
	if !d.group.trained() {
		for k := range ls {
			ls[k].err = ErrNotTrained
		}
		return
	}
	for k := range ls {
		l := &ls[k]
		if err := power.ValidateTrace(l.trace, d.group.pipe.TraceLen()); err != nil {
			l.err = fmt.Errorf("core: rejecting trace: %w", err)
			continue
		}
		l.s.mean, l.s.std = stats.TraceNormParams(l.trace)
	}
	d.walk(ls)
	for k := range ls {
		if ls[k].err != nil {
			met().rejected.Inc()
		} else {
			met().classified.Inc()
		}
	}
}

// walk is the hierarchy walk, one stage per level: group, instruction, Rd,
// Rr. Between stages it routes every live lane to its next level, or to
// none when its class carries no such register; a lane whose label is out
// of range, or whose next level carries no templates, fails and leaves the
// walk.
func (d *Disassembler) walk(ls []lane) {
	for k := range ls {
		if ls[k].err == nil {
			ls[k].lvl = d.group
		}
	}
	d.stage(ls, levelGroup)
	for k := range ls {
		l := &ls[k]
		if l.err != nil {
			continue
		}
		switch gi := l.label; {
		case gi < 0 || gi >= avr.NumGroups:
			l.err = fmt.Errorf("core: group label %d out of range", gi)
		case !d.trainedGroup(gi):
			l.err = fmt.Errorf("core: no instruction templates for group %d: %w", gi+1, ErrNotTrained)
		default:
			l.lvl = d.instr[gi]
		}
	}
	d.stage(ls, levelInstr)
	for k := range ls {
		l := &ls[k]
		if l.err != nil {
			continue
		}
		gi, ii := l.dec.Levels[0].Label, l.label
		if ii < 0 || ii >= len(d.instrClass[gi]) {
			l.err = fmt.Errorf("core: instruction label %d out of range for group %d", ii, gi+1)
			continue
		}
		cls := d.instrClass[gi][ii]
		l.dec.Decoded = Decoded{Class: cls, Group: cls.Group()}
		if d.haveRegs {
			needRd, needRr := operandRegisters(avr.SpecOf(cls).Operands, cls)
			switch {
			case needRd && !d.rd.trained():
				l.err = fmt.Errorf("core: no rd templates: %w", ErrNotTrained)
			case needRr && !d.rr.trained():
				l.err = fmt.Errorf("core: no rr templates: %w", ErrNotTrained)
			case needRd:
				l.lvl = d.rd
			}
			l.needRr = needRr
		}
	}
	d.stage(ls, levelRd)
	for k := range ls {
		if l := &ls[k]; l.err == nil && l.needRr {
			l.lvl = d.rr
		}
	}
	d.stage(ls, levelRr)
}

// stage runs level id for every lane routed to one. Two lanes routed through
// the same pipeline share one pass over its kernel windows
// (features.Pipeline.ExtractSparseInto2); a lane routed alone extracts
// alone. Each lane then classifies its own features and records the level.
// When a lane carries a per-trace span, the level gets a wall-only child
// span under it (core.classify.group/instr/rd/rr); a shared pass lies inside
// both lanes' spans.
func (d *Disassembler) stage(ls []lane, id levelID) {
	for k := range ls {
		if l := &ls[k]; l.lvl.pipe != nil {
			l.lsp = l.tsp.Child(levelSpans[id])
		}
	}
	if len(ls) == 2 && ls[0].lvl.pipe != nil && ls[0].lvl.pipe == ls[1].lvl.pipe {
		a, b := &ls[0], &ls[1]
		pl := a.lvl.pipe
		a.feat, b.feat = grow(&a.s.feat, pl.NumFeatures()), grow(&b.s.feat, pl.NumFeatures())
		cells0, cells1 := grow(&a.s.cells, pl.NumPoints()), grow(&b.s.cells, pl.NumPoints())
		if err := pl.ExtractSparseInto2(a.feat, b.feat, cells0, cells1, a.input(pl), b.input(pl)); err != nil {
			a.err = fmt.Errorf("core: %s features: %w", levelNames[id], err)
			b.err = a.err
		}
	} else {
		for k := range ls {
			l := &ls[k]
			if pl := l.lvl.pipe; pl != nil {
				l.feat = grow(&l.s.feat, pl.NumFeatures())
				if err := pl.ExtractSparseInto(l.feat, grow(&l.s.cells, pl.NumPoints()), l.input(pl)); err != nil {
					l.err = fmt.Errorf("core: %s features: %w", levelNames[id], err)
				}
			}
		}
	}
	for k := range ls {
		l := &ls[k]
		if l.lvl.pipe == nil {
			continue
		}
		if l.err == nil {
			d.decide(l, id)
		}
		l.lsp.End()
		l.lvl, l.lsp = groupLevel{}, nil
	}
}

// decide classifies the lane's features at level id and records the outcome
// into its Decision. The group level's decision is restricted to trained
// groups (remapGroup) before it is recorded.
func (d *Disassembler) decide(l *lane, id levelID) {
	pred := l.s.pred
	sp, err := predictScored(l.lvl.clf, l.feat, pred)
	if err != nil {
		l.err = fmt.Errorf("core: %s classify: %w", levelNames[id], err)
		return
	}
	if id == levelGroup {
		sp = d.remapGroup(l.feat, sp, pred)
	}
	l.lsp.SetAttr("label", float64(sp.Label))
	l.lsp.SetAttr("confidence", sp.Confidence)
	l.lsp.SetAttr("margin", sp.Margin)
	l.dec.Levels = append(l.dec.Levels, obs.DecisionLevel{
		Level:      levelNames[id],
		Label:      sp.Label,
		RunnerUp:   sp.RunnerUp,
		Confidence: sp.Confidence,
		Margin:     sp.Margin,
	})
	l.dec.Confidence *= sp.Confidence
	l.label = sp.Label
	switch id {
	case levelRd:
		l.dec.Rd, l.dec.HasRd = uint8(sp.Label), true
	case levelRr:
		l.dec.Rr, l.dec.HasRr = uint8(sp.Label), true
	}
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
	return gi >= 0 && gi < avr.NumGroups && d.instr[gi].trained()
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
