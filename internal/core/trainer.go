package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/avr"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/power"
)

// TrainerConfig scales and shapes the template-building campaign.
type TrainerConfig struct {
	Power power.Config

	// Programs and TracesPerProgram size the per-class instruction datasets
	// (the paper: 10 programs × 300 traces; 19 programs under CSA).
	Programs         int
	TracesPerProgram int

	// RegisterPrograms / RegisterTracesPerProgram size the Rd/Rr datasets.
	// Zero disables register recovery (opcode-only disassembly).
	RegisterPrograms         int
	RegisterTracesPerProgram int

	Pipeline   features.PipelineConfig
	Classifier ClassifierKind
	Seed       uint64
}

// DefaultTrainerConfig returns a laptop-scale configuration: the paper's
// preprocessing with reduced trace counts (use cmd/experiments -traces to
// approach paper scale).
func DefaultTrainerConfig() TrainerConfig {
	return TrainerConfig{
		Power:                    power.DefaultConfig(),
		Programs:                 4,
		TracesPerProgram:         12,
		RegisterPrograms:         4,
		RegisterTracesPerProgram: 12,
		Pipeline:                 features.CSAPipelineConfig(),
		Classifier:               ClassifierQDA,
		Seed:                     1,
	}
}

// Validate reports configuration errors.
func (c TrainerConfig) Validate() error {
	if err := c.Power.Validate(); err != nil {
		return err
	}
	if c.Programs < 2 {
		return fmt.Errorf("core: need >= 2 programs for not-varying masks, got %d", c.Programs)
	}
	if c.TracesPerProgram < 2 {
		return fmt.Errorf("core: need >= 2 traces per program, got %d", c.TracesPerProgram)
	}
	if c.RegisterPrograms > 0 && c.RegisterPrograms < 2 {
		return fmt.Errorf("core: register campaign needs >= 2 programs, got %d", c.RegisterPrograms)
	}
	return nil
}

// TrainReport summarizes what training produced.
type TrainReport struct {
	GroupTrainAccuracy float64
	InstrTrainAccuracy [avr.NumGroups]float64
	RdTrainAccuracy    float64
	RrTrainAccuracy    float64
	GroupPoints        int
	InstrPoints        [avr.NumGroups]int
	// Validation aggregates the per-trace ingestion checks across every
	// level's dataset: how many traces were examined and how many were
	// rejected (non-finite, constant, wrong length) before fitting.
	Validation power.ValidationReport
	// LevelConfusion holds the training-set confusion counts of every fitted
	// level, keyed "group", "group1".."group8", "rd", "rr"; cm[true][predicted].
	LevelConfusion map[string][][]int `json:",omitempty"`
	// Stages is the stage-timing tree of this run — the single source both the
	// CLI timing table and the run manifest render from. TrainCtx and
	// TrainSubsetReportCtx populate it, installing a local tracer when the
	// context does not already carry one.
	Stages []*obs.SpanNode `json:",omitempty"`
}

// jobOut is what one template-building job reports back for the serial merge:
// its level name, its ingestion-validation counts and its training-set
// confusion matrix.
type jobOut struct {
	name string
	vrep power.ValidationReport
	conf [][]int
}

// TrainCtx runs the full acquisition + template-building flow of Fig. 1 on the
// golden device and returns a ready Disassembler.
//
// The eleven template-building jobs (group level, 8 instruction levels, Rd,
// Rr) are independent — every Campaign.Collect* call derives its randomness
// from the campaign seed alone, never from call order — so they run
// concurrently on the parallel.Workers() pool and the resulting templates
// are identical to a serial run. On failure the lowest-ordered job's error
// is reported, matching the serial flow.
//
// Cancellation is cooperative: the eleven jobs stop being scheduled once ctx
// is cancelled, jobs already running stop at their next pipeline stage, and
// the call returns ctx.Err() (a job's own error at a lower index still wins,
// per parallel.ForErrCtx).
func TrainCtx(ctx context.Context, cfg TrainerConfig) (*Disassembler, *TrainReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	camp, err := power.NewCampaign(cfg.Power, 0, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	// Stage timings always land in the report: when the caller brought no
	// tracer, a local one scoped to this run is installed.
	tracer := obs.TracerFrom(ctx)
	if tracer == nil {
		tracer = obs.NewTracer()
		ctx = obs.WithTracer(ctx, tracer)
	}
	ctx, trainSpan := obs.Span(ctx, "core.train")
	defer trainSpan.End()
	d := &Disassembler{}
	rep := &TrainReport{}

	var jobs []func() (jobOut, error)
	// Level 1: the 8-group classifier.
	jobs = append(jobs, func() (jobOut, error) {
		out := jobOut{name: "group"}
		groupDS, err := camp.CollectGroups(cfg.Programs, cfg.TracesPerProgram)
		if err != nil {
			return out, fmt.Errorf("core: group acquisition: %w", err)
		}
		res, err := fitLevel(ctx, out.name, groupDS, avr.NumGroups, cfg)
		out.vrep, out.conf = res.vrep, res.conf
		if err != nil {
			return out, fmt.Errorf("core: group level: %w", err)
		}
		d.group, rep.GroupTrainAccuracy = res.level, res.acc
		rep.GroupPoints = d.group.pipe.NumPoints()
		return out, nil
	})
	// Level 2: per-group instruction classifiers.
	for g := avr.Group1; g <= avr.Group8; g++ {
		g := g
		jobs = append(jobs, func() (jobOut, error) {
			gi := int(g - avr.Group1)
			out := jobOut{name: fmt.Sprintf("group%d", gi+1)}
			classes := avr.ClassesInGroup(g)
			ds, err := camp.CollectClasses(classes, cfg.Programs, cfg.TracesPerProgram)
			if err != nil {
				return out, fmt.Errorf("core: group %d acquisition: %w", g, err)
			}
			res, err := fitLevel(ctx, out.name, ds, len(classes), cfg)
			out.vrep, out.conf = res.vrep, res.conf
			if err != nil {
				return out, fmt.Errorf("core: group %d level: %w", g, err)
			}
			d.instr[gi], rep.InstrTrainAccuracy[gi] = res.level, res.acc
			d.instrClass[gi] = classes
			rep.InstrPoints[gi] = d.instr[gi].pipe.NumPoints()
			return out, nil
		})
	}
	// Level 3: register classifiers.
	withRegs := cfg.RegisterPrograms > 0 && cfg.RegisterTracesPerProgram > 0
	if withRegs {
		jobs = append(jobs, func() (jobOut, error) {
			out := jobOut{name: "rd"}
			rdDS, err := camp.CollectRegisters(true, cfg.RegisterPrograms, cfg.RegisterTracesPerProgram)
			if err != nil {
				return out, fmt.Errorf("core: Rd acquisition: %w", err)
			}
			res, err := fitLevel(ctx, out.name, rdDS, 32, cfg)
			out.vrep, out.conf = res.vrep, res.conf
			if err != nil {
				return out, fmt.Errorf("core: Rd level: %w", err)
			}
			d.rd, rep.RdTrainAccuracy = res.level, res.acc
			return out, nil
		}, func() (jobOut, error) {
			out := jobOut{name: "rr"}
			rrDS, err := camp.CollectRegisters(false, cfg.RegisterPrograms, cfg.RegisterTracesPerProgram)
			if err != nil {
				return out, fmt.Errorf("core: Rr acquisition: %w", err)
			}
			res, err := fitLevel(ctx, out.name, rrDS, 32, cfg)
			out.vrep, out.conf = res.vrep, res.conf
			if err != nil {
				return out, fmt.Errorf("core: Rr level: %w", err)
			}
			d.rr, rep.RrTrainAccuracy = res.level, res.acc
			return out, nil
		})
	}
	// Each job writes its output into its own slot; the merge below runs
	// serially in job order, so the aggregate report is deterministic.
	outs := make([]jobOut, len(jobs))
	if err := parallel.ForErrCtx(ctx, len(jobs), func(i int) error {
		out, err := jobs[i]()
		outs[i] = out
		return err
	}); err != nil {
		return nil, nil, err
	}
	rep.LevelConfusion = map[string][][]int{}
	for _, out := range outs {
		rep.Validation.Merge(out.vrep)
		if out.conf != nil {
			rep.LevelConfusion[out.name] = out.conf
		}
	}
	d.haveRegs = withRegs
	trainSpan.End()
	rep.Stages = tracer.Tree()
	return d, rep, nil
}

// levelResult is everything fitLevel learns about one hierarchy level.
type levelResult struct {
	level groupLevel
	acc   float64 // training-set accuracy (confusion diagonal)
	vrep  power.ValidationReport
	conf  [][]int // training-set confusion counts cm[true][predicted]
}

// fitLevel fits one pipeline + classifier pair on a dataset and reports the
// training-set accuracy and confusion counts. The classifier trains on the
// features FitPipelineCtx hands back, so each training trace costs one CWT.
// Ingestion first sanitizes the dataset — defective traces (non-finite,
// constant, wrong length against the configured TraceLen) are rejected
// per-trace and counted in the returned report, so a few bad captures
// never abort or poison a level. The PCA
// dimensionality is clamped below the smallest per-class sample count so the
// QDA/LDA covariance estimates stay well conditioned even at reduced trace
// counts. name labels the level's stage span ("core.level.<name>").
func fitLevel(ctx context.Context, name string, ds *power.Dataset, nClasses int, cfg TrainerConfig) (levelResult, error) {
	ctx, span := obs.Span(ctx, "core.level."+name)
	defer span.End()
	var res levelResult
	ds, res.vrep = ds.Sanitize(cfg.Power.TraceLen)
	if ds.Len() == 0 {
		return res, fmt.Errorf("core: every trace rejected at ingestion (%s)", res.vrep)
	}
	counts := make([]int, nClasses)
	for _, l := range ds.Labels {
		if l >= 0 && l < nClasses {
			counts[l]++
		}
	}
	minCount := len(ds.Labels)
	for _, c := range counts {
		if c < minCount {
			minCount = c
		}
	}
	pcfg := cfg.Pipeline
	if maxDim := minCount/2 + 1; pcfg.NumComponents > maxDim {
		pcfg.NumComponents = maxDim
	}
	pipe, X, err := features.FitPipelineCtx(ctx, ds.Traces, ds.Labels, ds.Programs, nClasses, pcfg)
	if err != nil {
		return res, err
	}
	clf, err := NewClassifier(cfg.Classifier)
	if err != nil {
		return res, err
	}
	_, fitSpan := obs.Span(ctx, "core.classifier_fit")
	err = clf.Fit(X, ds.Labels)
	fitSpan.End()
	if err != nil {
		return res, err
	}
	_, evalSpan := obs.Span(ctx, "core.train_eval")
	cm, err := ml.ConfusionMatrix(clf, X, ds.Labels, nClasses)
	evalSpan.End()
	if err != nil {
		return res, err
	}
	res.level = groupLevel{pipe: pipe, clf: clf}
	res.conf = cm
	res.acc = accuracyFromConfusion(cm)
	return res, nil
}

// accuracyFromConfusion returns diagonal/total — the same value
// ml.EvaluateAccuracy computes, derived from the confusion counts instead of
// a second prediction pass.
func accuracyFromConfusion(cm [][]int) float64 {
	hit, total := 0, 0
	for i, row := range cm {
		for j, v := range row {
			total += v
			if i == j {
				hit += v
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

// TrainSubset trains a disassembler restricted to the given classes (still
// hierarchical: groups that appear among the classes get instruction
// classifiers). It stays only because scdisbench's set-up calls it; the
// module trains through TrainSubsetReportCtx (ROADMAP item 1 retires it).
func TrainSubset(cfg TrainerConfig, classes []avr.Class, withRegisters bool) (*Disassembler, error) {
	d, _, err := TrainSubsetReportCtx(context.Background(), cfg, classes, withRegisters)
	return d, err
}

// TrainSubsetReportCtx trains a disassembler restricted to the given classes
// (still hierarchical: groups that appear among the classes get instruction
// classifiers) and returns the same TrainReport TrainCtx produces
// (accuracies, validation counts, per-level confusion, stage timings),
// restricted to the levels the subset actually trains. Cancellation works
// as in TrainCtx.
func TrainSubsetReportCtx(ctx context.Context, cfg TrainerConfig, classes []avr.Class, withRegisters bool) (*Disassembler, *TrainReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if len(classes) < 2 {
		return nil, nil, fmt.Errorf("core: TrainSubset needs >= 2 classes")
	}
	camp, err := power.NewCampaign(cfg.Power, 0, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	tracer := obs.TracerFrom(ctx)
	if tracer == nil {
		tracer = obs.NewTracer()
		ctx = obs.WithTracer(ctx, tracer)
	}
	ctx, trainSpan := obs.Span(ctx, "core.train_subset")
	defer trainSpan.End()
	d := &Disassembler{}
	rep := &TrainReport{}

	var jobs []func() (jobOut, error)
	// Group level trained on the full 8-way task so group routing works.
	jobs = append(jobs, func() (jobOut, error) {
		out := jobOut{name: "group"}
		groupDS, err := camp.CollectGroups(cfg.Programs, cfg.TracesPerProgram)
		if err != nil {
			return out, err
		}
		res, err := fitLevel(ctx, out.name, groupDS, avr.NumGroups, cfg)
		out.vrep, out.conf = res.vrep, res.conf
		if err != nil {
			return out, err
		}
		d.group, rep.GroupTrainAccuracy = res.level, res.acc
		rep.GroupPoints = d.group.pipe.NumPoints()
		return out, nil
	})

	// Instruction level only for the groups covered by the subset. The map is
	// walked in sorted group order so the job list — and therefore which error
	// surfaces on failure — is deterministic.
	byGroup := map[avr.Group][]avr.Class{}
	for _, c := range classes {
		byGroup[c.Group()] = append(byGroup[c.Group()], c)
	}
	groups := make([]avr.Group, 0, len(byGroup))
	for g := range byGroup {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i] < groups[j] })
	for _, g := range groups {
		g, cls := g, byGroup[g]
		jobs = append(jobs, func() (jobOut, error) {
			gi := int(g - avr.Group1)
			out := jobOut{name: fmt.Sprintf("group%d", gi+1)}
			if len(cls) < 2 {
				// A lone class in its group still needs a 2-way pipeline; train
				// against the full group instead.
				cls = avr.ClassesInGroup(g)
			}
			ds, err := camp.CollectClasses(cls, cfg.Programs, cfg.TracesPerProgram)
			if err != nil {
				return out, err
			}
			res, err := fitLevel(ctx, out.name, ds, len(cls), cfg)
			out.vrep, out.conf = res.vrep, res.conf
			if err != nil {
				return out, err
			}
			d.instr[gi], rep.InstrTrainAccuracy[gi] = res.level, res.acc
			d.instrClass[gi] = cls
			rep.InstrPoints[gi] = d.instr[gi].pipe.NumPoints()
			return out, nil
		})
	}

	withRegs := withRegisters && cfg.RegisterPrograms > 0
	if withRegs {
		jobs = append(jobs, func() (jobOut, error) {
			out := jobOut{name: "rd"}
			rdDS, err := camp.CollectRegisters(true, cfg.RegisterPrograms, cfg.RegisterTracesPerProgram)
			if err != nil {
				return out, err
			}
			res, err := fitLevel(ctx, out.name, rdDS, 32, cfg)
			out.vrep, out.conf = res.vrep, res.conf
			if err != nil {
				return out, err
			}
			d.rd, rep.RdTrainAccuracy = res.level, res.acc
			return out, nil
		}, func() (jobOut, error) {
			out := jobOut{name: "rr"}
			rrDS, err := camp.CollectRegisters(false, cfg.RegisterPrograms, cfg.RegisterTracesPerProgram)
			if err != nil {
				return out, err
			}
			res, err := fitLevel(ctx, out.name, rrDS, 32, cfg)
			out.vrep, out.conf = res.vrep, res.conf
			if err != nil {
				return out, err
			}
			d.rr, rep.RrTrainAccuracy = res.level, res.acc
			return out, nil
		})
	}
	outs := make([]jobOut, len(jobs))
	if err := parallel.ForErrCtx(ctx, len(jobs), func(i int) error {
		out, err := jobs[i]()
		outs[i] = out
		return err
	}); err != nil {
		return nil, nil, err
	}
	rep.LevelConfusion = map[string][][]int{}
	for _, out := range outs {
		rep.Validation.Merge(out.vrep)
		if out.conf != nil {
			rep.LevelConfusion[out.name] = out.conf
		}
	}
	d.haveRegs = withRegs
	trainSpan.End()
	rep.Stages = tracer.Tree()
	return d, rep, nil
}
