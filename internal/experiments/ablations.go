package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/avr"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/power"
	"repro/internal/stats"
)

// AblationResult is a generic two-arm comparison.
type AblationResult struct {
	Title      string
	ArmA, ArmB string
	SRA, SRB   float64
	CostA      time.Duration // per-trace extraction or prediction cost
	CostB      time.Duration
	ExtraA     string
	ExtraB     string
}

func (r *AblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Title)
	fmt.Fprintf(&b, "  %-34s SR %5.1f%%   %v/trace  %s\n", r.ArmA, 100*r.SRA, r.CostA, r.ExtraA)
	fmt.Fprintf(&b, "  %-34s SR %5.1f%%   %v/trace  %s\n", r.ArmB, 100*r.SRB, r.CostB, r.ExtraB)
	return b.String()
}

// AblationNoKLSelection compares the KL-selected DNVP pipeline against using
// the full (subsampled) time–frequency plane: the design claim is that the
// ~99 % point reduction costs little accuracy while slashing per-trace cost.
func AblationNoKLSelection(sc Scale) (*AblationResult, error) {
	camp, err := power.NewCampaign(power.DefaultConfig(), 0, sc.Seed)
	if err != nil {
		return nil, err
	}
	classes := []avr.Class{avr.OpADD, avr.OpADC, avr.OpSUB, avr.OpAND}
	ds, err := camp.CollectClasses(classes, sc.Programs, sc.TracesPerProgram)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(sc.Seed)))
	train, test := ds.SplitRandom(rng, 5.0/6.0)

	// Arm A: KL-selected pipeline.
	pc := features.CSAPipelineConfig()
	pc.NumComponents = 20
	pipe, X, err := features.FitPipelineCtx(context.Background(), train.Traces, train.Labels, train.Programs, len(classes), pc)
	if err != nil {
		return nil, err
	}
	clfA := ml.NewQDA()
	if err := clfA.Fit(X, train.Labels); err != nil {
		return nil, err
	}
	startA := time.Now()
	Xt, err := pipe.ExtractAllCtx(context.Background(), test.Traces)
	if err != nil {
		return nil, err
	}
	costA := time.Since(startA) / time.Duration(len(test.Traces))
	srA, err := ml.EvaluateAccuracy(clfA, Xt, test.Labels)
	if err != nil {
		return nil, err
	}

	// Arm B: full scalogram, subsampled 4× in time, PCA to the same dim.
	sel, err := features.NewSelector(len(ds.Traces[0]))
	if err != nil {
		return nil, err
	}
	var allPoints []features.Point
	for j := 0; j < 50; j++ {
		for k := 0; k < len(ds.Traces[0]); k += 4 {
			allPoints = append(allPoints, features.Point{Scale: j, Time: k})
		}
	}
	extractFull := func(traces [][]float64) ([][]float64, error) {
		out := make([][]float64, len(traces))
		for i, tr := range traces {
			f, err := sel.ExtractPoints(tr, allPoints)
			if err != nil {
				return nil, err
			}
			out[i] = stats.NormalizeTrace(f)
		}
		return out, nil
	}
	Xfull, err := extractFull(train.Traces)
	if err != nil {
		return nil, err
	}
	pca, err := features.FitPCA(context.Background(), Xfull, 20)
	if err != nil {
		return nil, err
	}
	Xp, err := pca.TransformAll(Xfull)
	if err != nil {
		return nil, err
	}
	clfB := ml.NewQDA()
	if err := clfB.Fit(Xp, train.Labels); err != nil {
		return nil, err
	}
	startB := time.Now()
	XtFull, err := extractFull(test.Traces)
	if err != nil {
		return nil, err
	}
	XtP, err := pca.TransformAll(XtFull)
	if err != nil {
		return nil, err
	}
	costB := time.Since(startB) / time.Duration(len(test.Traces))
	srB, err := ml.EvaluateAccuracy(clfB, XtP, test.Labels)
	if err != nil {
		return nil, err
	}

	return &AblationResult{
		Title:  "Ablation: KL feature selection vs full time-frequency plane (4 group-1 classes)",
		ArmA:   "KL-selected DNVP + PCA",
		ArmB:   "full scalogram (4x subsampled) + PCA",
		SRA:    srA,
		SRB:    srB,
		CostA:  costA,
		CostB:  costB,
		ExtraA: fmt.Sprintf("%d points", pipe.NumPoints()),
		ExtraB: fmt.Sprintf("%d points", len(allPoints)),
	}, nil
}

// AblationFlatVsHierarchical compares one flat multiclass classifier over
// the classes of three groups against the hierarchical route (group →
// instruction), the paper's complexity argument from §2.1.
func AblationFlatVsHierarchical(sc Scale) (*AblationResult, error) {
	camp, err := power.NewCampaign(power.DefaultConfig(), 0, sc.Seed)
	if err != nil {
		return nil, err
	}
	groups := []avr.Group{avr.Group1, avr.Group3, avr.Group6}
	var classes []avr.Class
	for _, g := range groups {
		classes = append(classes, avr.ClassesInGroup(g)...)
	}
	ds, err := camp.CollectClasses(classes, sc.Programs, sc.TracesPerProgram)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(sc.Seed)))
	train, test := ds.SplitRandom(rng, 5.0/6.0)

	pcFlat := features.CSAPipelineConfig()
	pcFlat.NumComponents = 30
	pcFlat = clampPCs(pcFlat, train)
	startFitA := time.Now()
	_, srFlat, err := fitEval(train, test, len(classes), pcFlat, ml.NewQDA())
	if err != nil {
		return nil, err
	}
	costFlat := time.Since(startFitA) / time.Duration(len(test.Traces)+len(train.Traces))

	// Hierarchical: a group router + per-group classifiers, trained on the
	// same data relabeled.
	groupOf := map[int]int{}
	withinOf := map[int]int{}
	perGroupClasses := map[int][]int{}
	for li, c := range classes {
		gi := -1
		for i, g := range groups {
			if c.Group() == g {
				gi = i
			}
		}
		groupOf[li] = gi
		withinOf[li] = len(perGroupClasses[gi])
		perGroupClasses[gi] = append(perGroupClasses[gi], li)
	}
	relabel := func(d *power.Dataset, f func(int) (int, bool)) *power.Dataset {
		out := &power.Dataset{DeviceID: d.DeviceID}
		for i := range d.Traces {
			if l, ok := f(d.Labels[i]); ok {
				out.Append(d.Traces[i], l, d.Programs[i])
			}
		}
		return out
	}
	trainG := relabel(train, func(l int) (int, bool) { return groupOf[l], true })
	pcG := clampPCs(pcFlat, trainG)
	pipeG, Xg, err := features.FitPipelineCtx(context.Background(), trainG.Traces, trainG.Labels, trainG.Programs, len(groups), pcG)
	if err != nil {
		return nil, err
	}
	clfG := ml.NewQDA()
	if err := clfG.Fit(Xg, trainG.Labels); err != nil {
		return nil, err
	}
	type level struct {
		pipe *features.Pipeline
		clf  ml.Classifier
	}
	levels := make([]level, len(groups))
	for gi := range groups {
		sub := relabel(train, func(l int) (int, bool) {
			if groupOf[l] != gi {
				return 0, false
			}
			return withinOf[l], true
		})
		pcL := clampPCs(pcFlat, sub)
		pipeL, Xl, err := features.FitPipelineCtx(context.Background(), sub.Traces, sub.Labels, sub.Programs, len(perGroupClasses[gi]), pcL)
		if err != nil {
			return nil, err
		}
		clfL := ml.NewQDA()
		if err := clfL.Fit(Xl, sub.Labels); err != nil {
			return nil, err
		}
		levels[gi] = level{pipe: pipeL, clf: clfL}
	}
	startB := time.Now()
	hit := 0
	for i, tr := range test.Traces {
		fg, err := pipeG.Extract(tr)
		if err != nil {
			return nil, err
		}
		gi, err := clfG.Predict(fg)
		if err != nil {
			return nil, err
		}
		fl, err := levels[gi].pipe.Extract(tr)
		if err != nil {
			return nil, err
		}
		wi, err := levels[gi].clf.Predict(fl)
		if err != nil {
			return nil, err
		}
		if wi < len(perGroupClasses[gi]) && perGroupClasses[gi][wi] == test.Labels[i] {
			hit++
		}
	}
	costHier := time.Since(startB) / time.Duration(len(test.Traces))
	srHier := float64(hit) / float64(len(test.Traces))

	return &AblationResult{
		Title:  fmt.Sprintf("Ablation: flat %d-class vs hierarchical (groups 1/3/6)", len(classes)),
		ArmA:   "flat multiclass QDA",
		ArmB:   "hierarchical (group -> instruction)",
		SRA:    srFlat,
		SRB:    srHier,
		CostA:  costFlat,
		CostB:  costHier,
		ExtraA: fmt.Sprintf("%d one-vs-one pairs if SVM", len(classes)*(len(classes)-1)/2),
		ExtraB: fmt.Sprintf("<= %d pairs per trace (paper's ~218 vs 6216 argument)", maxPairs(groups)),
	}, nil
}

func maxPairs(groups []avr.Group) int {
	g := len(groups) * (len(groups) - 1) / 2
	max := 0
	for _, gr := range groups {
		n := len(avr.ClassesInGroup(gr))
		if p := n * (n - 1) / 2; p > max {
			max = p
		}
	}
	return g + max
}

// AblationTimeDomain compares CWT time–frequency features against raw
// time-domain samples selected by the same KL criterion — the paper's case
// for working in the time–frequency plane.
func AblationTimeDomain(sc Scale) (*AblationResult, error) {
	camp, err := power.NewCampaign(power.DefaultConfig(), 0, sc.Seed)
	if err != nil {
		return nil, err
	}
	classes := []avr.Class{avr.OpADC, avr.OpAND}
	ds, err := camp.CollectClasses(classes, sc.Programs, sc.TracesPerProgram)
	if err != nil {
		return nil, err
	}
	test, err := fieldDataset(camp, classes, sc, 0xBEEF)
	if err != nil {
		return nil, err
	}

	// Arm A: CWT pipeline (CSA).
	pcA := features.CSAPipelineConfig()
	pcA.NumComponents = 3
	_, srA, err := fitEval(ds, test, 2, pcA, ml.NewQDA())
	if err != nil {
		return nil, err
	}

	// Arm B: time-domain KL selection: rank raw sample indices by
	// between-class KL, keep the top 40, normalize per trace, PCA to 3.
	type scored struct {
		idx int
		kl  float64
	}
	n := len(ds.Traces[0])
	byClass := [2][][]float64{}
	for i, tr := range ds.Traces {
		byClass[ds.Labels[i]] = append(byClass[ds.Labels[i]], tr)
	}
	var ranked []scored
	for k := 0; k < n; k++ {
		colA := make([]float64, len(byClass[0]))
		colB := make([]float64, len(byClass[1]))
		for i, tr := range byClass[0] {
			colA[i] = tr[k]
		}
		for i, tr := range byClass[1] {
			colB[i] = tr[k]
		}
		kl, err := stats.KLGaussianFromSamples(colA, colB)
		if err != nil {
			return nil, err
		}
		ranked = append(ranked, scored{idx: k, kl: kl})
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].kl > ranked[j].kl })
	keep := ranked[:40]
	extract := func(tr []float64) []float64 {
		f := make([]float64, len(keep))
		for i, s := range keep {
			f[i] = tr[s.idx]
		}
		return stats.NormalizeTrace(f)
	}
	var Xb [][]float64
	for _, tr := range ds.Traces {
		Xb = append(Xb, extract(tr))
	}
	pca, err := features.FitPCA(context.Background(), Xb, 3)
	if err != nil {
		return nil, err
	}
	Xp, err := pca.TransformAll(Xb)
	if err != nil {
		return nil, err
	}
	clfB := ml.NewQDA()
	if err := clfB.Fit(Xp, ds.Labels); err != nil {
		return nil, err
	}
	var XtB [][]float64
	for _, tr := range test.Traces {
		XtB = append(XtB, extract(tr))
	}
	XtP, err := pca.TransformAll(XtB)
	if err != nil {
		return nil, err
	}
	srB, err := ml.EvaluateAccuracy(clfB, XtP, test.Labels)
	if err != nil {
		return nil, err
	}

	return &AblationResult{
		Title: "Ablation: time-frequency (CWT) vs raw time-domain features (ADC vs AND, field program)",
		ArmA:  "CWT + KL + norm + PCA(3)",
		ArmB:  "time-domain KL top-40 + norm + PCA(3)",
		SRA:   srA,
		SRB:   srB,
	}, nil
}
