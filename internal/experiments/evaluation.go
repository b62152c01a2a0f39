package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/avr"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/parallel"
	"repro/internal/power"
)

// ---------------------------------------------------------------- Fig. 5

// CurvePoint is one (number of variables, SR) sample of an accuracy curve.
type CurvePoint struct {
	Vars int
	SR   float64
}

// Fig5Result holds SR-vs-#PCs curves per classifier.
type Fig5Result struct {
	Title  string
	Curves map[string][]CurvePoint
	PCs    []int
}

// Fig5a sweeps the group classifier's SR over the number of principal
// components for LDA/QDA/SVM/naïve Bayes (paper: saturates at 99.85 % for
// SVM with 43 variables).
func Fig5a(sc Scale, pcs []int) (*Fig5Result, error) {
	camp, err := power.NewCampaign(power.DefaultConfig(), 0, sc.Seed)
	if err != nil {
		return nil, err
	}
	ds, err := camp.CollectGroups(sc.Programs, sc.TracesPerProgram)
	if err != nil {
		return nil, err
	}
	return sweepPCs("Fig 5a: instruction-group SR vs #principal components", ds, avr.NumGroups, pcs, sc)
}

// Fig5b sweeps the group-1 instruction classifier (12 classes; paper:
// saturates at 99.7 %).
func Fig5b(sc Scale, pcs []int) (*Fig5Result, error) {
	camp, err := power.NewCampaign(power.DefaultConfig(), 0, sc.Seed)
	if err != nil {
		return nil, err
	}
	g1 := avr.ClassesInGroup(avr.Group1)
	ds, err := camp.CollectClasses(g1, sc.Programs, sc.TracesPerProgram)
	if err != nil {
		return nil, err
	}
	return sweepPCs("Fig 5b: group-1 instruction SR vs #principal components", ds, len(g1), pcs, sc)
}

func sweepPCs(title string, ds *power.Dataset, nClasses int, pcs []int, sc Scale) (*Fig5Result, error) {
	rng := rand.New(rand.NewSource(int64(sc.Seed)))
	train, test := ds.SplitRandom(rng, 5.0/6.0) // paper: 2500 train / 500 test
	res := &Fig5Result{Title: title, Curves: map[string][]CurvePoint{}, PCs: pcs}
	for _, k := range pcs {
		pc := features.CSAPipelineConfig()
		pc.NumComponents = k
		pipe, X, err := features.FitPipelineCtx(context.Background(), train.Traces, train.Labels, train.Programs, nClasses, pc)
		if err != nil {
			return nil, err
		}
		Xt, err := pipe.ExtractAllCtx(context.Background(), test.Traces)
		if err != nil {
			return nil, err
		}
		// LIBSVM-style kernel width: γ = 1/#features.
		clfs := []ml.Classifier{
			ml.NewLDA(),
			ml.NewQDA(),
			ml.NewSVM(10, ml.RBFKernel{Gamma: 1 / float64(k)}),
			ml.NewGaussianNB(),
		}
		for _, clf := range clfs {
			if err := clf.Fit(X, train.Labels); err != nil {
				return nil, err
			}
			acc, err := ml.EvaluateAccuracy(clf, Xt, test.Labels)
			if err != nil {
				return nil, err
			}
			name := clf.Name()
			if strings.HasPrefix(name, "SVM") {
				name = "SVM (RBF)"
			}
			res.Curves[name] = append(res.Curves[name], CurvePoint{Vars: k, SR: acc})
		}
	}
	return res, nil
}

func (r *Fig5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Title)
	fmt.Fprintf(&b, "  %-22s", "#PCs:")
	for _, k := range r.PCs {
		fmt.Fprintf(&b, " %6d", k)
	}
	b.WriteByte('\n')
	for _, name := range sortedKeys(r.Curves) {
		fmt.Fprintf(&b, "  %-22s", name)
		for _, p := range r.Curves[name] {
			fmt.Fprintf(&b, " %5.1f%%", 100*p.SR)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func sortedKeys(m map[string][]CurvePoint) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// ---------------------------------------------------------------- Fig. 6

// Fig6Result compares majority voting (per-pair feature vectors) with the
// general method (unified feature set + PCA) at small variable counts.
type Fig6Result struct {
	Vars     []int
	General  map[string][]CurvePoint
	Majority map[string][]CurvePoint
}

// Fig6 reproduces the majority-voting comparison on group 1 (paper: with
// only 3 variables majority voting reaches 82–85 % where the general method
// is far lower; SVM with 9 variables: 95.2 %).
func Fig6(sc Scale, vars []int) (*Fig6Result, error) {
	camp, err := power.NewCampaign(power.DefaultConfig(), 0, sc.Seed)
	if err != nil {
		return nil, err
	}
	g1 := avr.ClassesInGroup(avr.Group1)
	ds, err := camp.CollectClasses(g1, sc.Programs, sc.TracesPerProgram)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(sc.Seed)))
	train, test := ds.SplitRandom(rng, 5.0/6.0)

	res := &Fig6Result{Vars: vars, General: map[string][]CurvePoint{}, Majority: map[string][]CurvePoint{}}
	makers := []struct {
		name string
		mk   func() ml.Classifier
	}{
		{"LDA", func() ml.Classifier { return ml.NewLDA() }},
		{"QDA", func() ml.Classifier { return ml.NewQDA() }},
		{"SVM", func() ml.Classifier { return ml.NewSVM(10, ml.RBFKernel{Gamma: 0.1}) }},
		{"NaiveBayes", func() ml.Classifier { return ml.NewGaussianNB() }},
	}

	for _, v := range vars {
		// General method: unified DNVP + PCA down to v components.
		pcGen := features.CSAPipelineConfig()
		pcGen.NumComponents = v
		pipeGen, X, err := features.FitPipelineCtx(context.Background(), train.Traces, train.Labels, train.Programs, len(g1), pcGen)
		if err != nil {
			return nil, err
		}
		Xt, err := pipeGen.ExtractAllCtx(context.Background(), test.Traces)
		if err != nil {
			return nil, err
		}
		// Majority voting: per-pair classifiers on ≤v pair-specific points.
		pcVote := features.CSAPipelineConfig()
		pcVote.TopPerPair = v
		pcVote.NumComponents = v
		pipeVote, _, err := features.FitPipelineCtx(context.Background(), train.Traces, train.Labels, train.Programs, len(g1), pcVote)
		if err != nil {
			return nil, err
		}
		trainPairVecs, err := pairVectors(pipeVote, train.Traces, v)
		if err != nil {
			return nil, err
		}
		testPairVecs, err := pairVectors(pipeVote, test.Traces, v)
		if err != nil {
			return nil, err
		}

		for _, mk := range makers {
			clf := mk.mk()
			if err := clf.Fit(X, train.Labels); err != nil {
				return nil, err
			}
			acc, err := ml.EvaluateAccuracy(clf, Xt, test.Labels)
			if err != nil {
				return nil, err
			}
			res.General[mk.name] = append(res.General[mk.name], CurvePoint{Vars: v, SR: acc})

			accVote, err := majorityVoteSR(pipeVote, mk.mk, trainPairVecs, train.Labels, testPairVecs, test.Labels, len(g1))
			if err != nil {
				return nil, err
			}
			res.Majority[mk.name] = append(res.Majority[mk.name], CurvePoint{Vars: v, SR: accVote})
		}
	}
	return res, nil
}

// pairVectors precomputes, for every trace, its feature vector for every
// class pair (truncated to maxVars points). Each trace's scalogram is
// computed once and shared across all pairs, and the traces run concurrently
// on the parallel.Workers() pool into index-owned slots.
func pairVectors(pipe *features.Pipeline, traces [][]float64, maxVars int) ([][][]float64, error) {
	out := make([][][]float64, len(traces))
	err := parallel.ForErrCtx(context.Background(), len(traces), func(i int) error {
		flat, err := pipe.RawScalogram(traces[i])
		if err != nil {
			return err
		}
		vecs := make([][]float64, pipe.PairCount())
		for p := 0; p < pipe.PairCount(); p++ {
			v, err := pipe.PairVectorFromScalogram(p, flat, maxVars)
			if err != nil {
				return err
			}
			vecs[p] = v
		}
		out[i] = vecs
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// majorityVoteSR trains one binary classifier per pair on the pair-specific
// vectors and evaluates the voted multiclass SR.
func majorityVoteSR(pipe *features.Pipeline, mk func() ml.Classifier,
	trainVecs [][][]float64, trainLabels []int,
	testVecs [][][]float64, testLabels []int, nClasses int) (float64, error) {

	voter, err := ml.NewPairwiseVoter(nClasses)
	if err != nil {
		return 0, err
	}
	for p := 0; p < pipe.PairCount(); p++ {
		a, b := pipe.PairLabels(p)
		var X [][]float64
		var y []int
		for i, l := range trainLabels {
			switch l {
			case a:
				X = append(X, trainVecs[i][p])
				y = append(y, 0)
			case b:
				X = append(X, trainVecs[i][p])
				y = append(y, 1)
			}
		}
		clf := mk()
		if err := clf.Fit(X, y); err != nil {
			return 0, err
		}
		if err := voter.SetPairClassifier(p, clf); err != nil {
			return 0, err
		}
	}
	hit := 0
	for i := range testVecs {
		pred, err := voter.Vote(testVecs[i])
		if err != nil {
			return 0, err
		}
		if pred == testLabels[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(testVecs)), nil
}

func (r *Fig6Result) String() string {
	var b strings.Builder
	b.WriteString("Fig 6: majority voting vs general method, group-1 instructions\n")
	fmt.Fprintf(&b, "  %-26s", "#variables:")
	for _, v := range r.Vars {
		fmt.Fprintf(&b, " %6d", v)
	}
	b.WriteByte('\n')
	for _, name := range sortedKeys(r.General) {
		fmt.Fprintf(&b, "  general  %-17s", name)
		for _, p := range r.General[name] {
			fmt.Fprintf(&b, " %5.1f%%", 100*p.SR)
		}
		b.WriteByte('\n')
	}
	for _, name := range sortedKeys(r.Majority) {
		fmt.Fprintf(&b, "  majority %-17s", name)
		for _, p := range r.Majority[name] {
			fmt.Fprintf(&b, " %5.1f%%", 100*p.SR)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------- Table 3

// Table3Result is the covariate shift adaptation ablation.
type Table3Result struct {
	// Rows: classifier name → [withoutCSA, CSAWithoutNorm, CSAWithNorm].
	Rows map[string][3]float64
	// TrainAcc mirrors the paper's §4 observation (94.3 % train vs 18.5 %
	// test for QDA without CSA).
	TrainAccNoCSA map[string]float64
}

// Table3 reproduces the ADC-vs-AND covariate shift adaptation table: train
// on profiling programs, test on a field program with the scale's severity.
func Table3(sc Scale) (*Table3Result, error) {
	cfg := power.DefaultConfig()
	camp, err := power.NewCampaign(cfg, 0, sc.Seed)
	if err != nil {
		return nil, err
	}
	classes := []avr.Class{avr.OpADC, avr.OpAND}
	trainOld, err := camp.CollectClasses(classes, sc.Programs, sc.TracesPerProgram)
	if err != nil {
		return nil, err
	}
	trainCSA, err := camp.CollectClasses(classes, sc.CSAPrograms, sc.TracesPerProgram)
	if err != nil {
		return nil, err
	}
	test, err := fieldDataset(camp, classes, sc, 0x7AB1E3)
	if err != nil {
		return nil, err
	}

	res := &Table3Result{Rows: map[string][3]float64{}, TrainAccNoCSA: map[string]float64{}}
	configs := []struct {
		idx   int
		train *power.Dataset
		pc    features.PipelineConfig
	}{
		{0, trainOld, noCSAPipeline()},
		{1, trainCSA, csaNoNormPipeline()},
		{2, trainCSA, csaPipeline()},
	}
	for _, name := range []string{"QDA", "SVM"} {
		row := [3]float64{}
		for _, c := range configs {
			clf := newByName(name)
			trainAcc, testAcc, err := fitEval(c.train, test, 2, c.pc, clf)
			if err != nil {
				return nil, err
			}
			row[c.idx] = testAcc
			if c.idx == 0 {
				res.TrainAccNoCSA[name] = trainAcc
			}
		}
		res.Rows[name] = row
	}
	return res, nil
}

func noCSAPipeline() features.PipelineConfig {
	pc := features.DefaultPipelineConfig()
	pc.NumComponents = 3
	return pc
}

func csaNoNormPipeline() features.PipelineConfig {
	pc := features.CSAPipelineConfig()
	pc.PerTraceNorm = false
	pc.NumComponents = 3
	return pc
}

func csaPipeline() features.PipelineConfig {
	pc := features.CSAPipelineConfig()
	pc.NumComponents = 3
	return pc
}

func newByName(name string) ml.Classifier {
	if name == "SVM" {
		return ml.NewSVM(10, ml.RBFKernel{Gamma: 0.1})
	}
	return ml.NewQDA()
}

func (r *Table3Result) String() string {
	var b strings.Builder
	b.WriteString("Table 3: SR of ADC vs AND with covariate shift adaptation (field program)\n")
	b.WriteString("  classifier   without CSA   CSA w/o norm   CSA with norm   (train acc, no CSA)\n")
	for _, name := range []string{"QDA", "SVM"} {
		row := r.Rows[name]
		fmt.Fprintf(&b, "  %-11s  %10.1f%%  %12.1f%%  %13.1f%%   (%.1f%%)\n",
			name, 100*row[0], 100*row[1], 100*row[2], 100*r.TrainAccNoCSA[name])
	}
	b.WriteString("  paper:       QDA 18.5% / 54.3% / 92.0%;  SVM 19.2% / 57.8% / 93.2%\n")
	return b.String()
}

// ---------------------------------------------------------------- Table 4

// Table4Result is the cross-device SR after CSA.
type Table4Result struct {
	// Rows: classifier → SR per device 1..5.
	Rows map[string][]float64
}

// Table4 trains templates on the golden device and classifies field traces
// from five other devices (ADC vs AND, CSA pipeline).
func Table4(sc Scale) (*Table4Result, error) {
	cfg := power.DefaultConfig()
	campTrain, err := power.NewCampaign(cfg, 0, sc.Seed)
	if err != nil {
		return nil, err
	}
	classes := []avr.Class{avr.OpADC, avr.OpAND}
	train, err := campTrain.CollectClasses(classes, sc.CSAPrograms, sc.TracesPerProgram)
	if err != nil {
		return nil, err
	}
	res := &Table4Result{Rows: map[string][]float64{}}
	for _, name := range []string{"QDA", "SVM"} {
		pc := csaPipeline()
		pipe, X, err := features.FitPipelineCtx(context.Background(), train.Traces, train.Labels, train.Programs, 2, pc)
		if err != nil {
			return nil, err
		}
		clf := newByName(name)
		if err := clf.Fit(X, train.Labels); err != nil {
			return nil, err
		}
		var srs []float64
		for dev := 1; dev <= 5; dev++ {
			campDev, err := power.NewCampaign(cfg, dev, sc.Seed+uint64(dev))
			if err != nil {
				return nil, err
			}
			test, err := fieldDataset(campDev, classes, sc, uint64(dev)*0xD0D0)
			if err != nil {
				return nil, err
			}
			Xt, err := pipe.ExtractAllCtx(context.Background(), test.Traces)
			if err != nil {
				return nil, err
			}
			acc, err := ml.EvaluateAccuracy(clf, Xt, test.Labels)
			if err != nil {
				return nil, err
			}
			srs = append(srs, acc)
		}
		res.Rows[name] = srs
	}
	return res, nil
}

func (r *Table4Result) String() string {
	var b strings.Builder
	b.WriteString("Table 4: SR of ADC vs AND on 5 different devices (after CSA)\n")
	b.WriteString("  classifier    Dev.1    Dev.2    Dev.3    Dev.4    Dev.5\n")
	for _, name := range []string{"QDA", "SVM"} {
		fmt.Fprintf(&b, "  %-11s", name)
		for _, sr := range r.Rows[name] {
			fmt.Fprintf(&b, "  %5.1f%%", 100*sr)
		}
		b.WriteByte('\n')
	}
	b.WriteString("  paper:       QDA 89.3/91.5/88.9/92.3/94.5%;  SVM 90.4/92.8/90.8/93.4/95.6%\n")
	return b.String()
}

// ------------------------------------------------------------- Registers

// RegisterResult is the §5.3 register-recovery evaluation.
type RegisterResult struct {
	RdSR map[string]float64
	RrSR map[string]float64
}

// Registers trains and evaluates the Rd and Rr 32-class classifiers on a
// random split (paper: QDA 99.9 % Rd, 99.6 % Rr with 45 variables).
func Registers(sc Scale) (*RegisterResult, error) {
	camp, err := power.NewCampaign(power.DefaultConfig(), 0, sc.Seed)
	if err != nil {
		return nil, err
	}
	res := &RegisterResult{RdSR: map[string]float64{}, RrSR: map[string]float64{}}
	for _, fixDst := range []bool{true, false} {
		ds, err := camp.CollectRegisters(fixDst, sc.Programs, sc.TracesPerProgram)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(int64(sc.Seed)))
		train, test := ds.SplitRandom(rng, 5.0/6.0)
		pc := features.CSAPipelineConfig()
		pc.NumComponents = 45
		for _, name := range []string{"QDA", "LDA"} {
			clf := newByName(name)
			if name == "LDA" {
				clf = ml.NewLDA()
			}
			_, acc, err := fitEval(train, test, 32, pc, clf)
			if err != nil {
				return nil, err
			}
			if fixDst {
				res.RdSR[name] = acc
			} else {
				res.RrSR[name] = acc
			}
		}
	}
	return res, nil
}

func (r *RegisterResult) String() string {
	var b strings.Builder
	b.WriteString("Registers (§5.3): 32-class Rd / Rr recognition, 45 variables\n")
	for _, name := range []string{"QDA", "LDA"} {
		fmt.Fprintf(&b, "  %-5s  Rd %5.1f%%   Rr %5.1f%%\n", name, 100*r.RdSR[name], 100*r.RrSR[name])
	}
	b.WriteString("  paper: QDA Rd 99.9%, Rr 99.6%\n")
	return b.String()
}

// ---------------------------------------------------------------- Table 1

// Table1Result composes the hierarchical SR for the "Ours" row of Table 1.
type Table1Result struct {
	GroupSR   float64
	InstrSR   map[string]float64 // per group name
	MinInstr  float64
	RdSR      float64
	RrSR      float64
	OpcodeSR  float64 // GroupSR × min instruction SR
	OverallSR float64 // OpcodeSR × RdSR × RrSR
}

// Table1 runs the full hierarchy (all 8 groups, all 112 classes, both
// register banks) at the given scale with QDA and composes the headline SR
// exactly as §5.2/§5.3 do.
func Table1(sc Scale) (*Table1Result, error) {
	camp, err := power.NewCampaign(power.DefaultConfig(), 0, sc.Seed)
	if err != nil {
		return nil, err
	}
	res := &Table1Result{InstrSR: map[string]float64{}, MinInstr: 1}
	pc := features.CSAPipelineConfig()
	pc.NumComponents = 45

	// Level 1: groups.
	dsG, err := camp.CollectGroups(sc.Programs, sc.TracesPerProgram)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(sc.Seed)))
	trG, teG := dsG.SplitRandom(rng, 5.0/6.0)
	if _, res.GroupSR, err = fitEval(trG, teG, avr.NumGroups, clampPCs(pc, trG), ml.NewQDA()); err != nil {
		return nil, err
	}

	// Level 2: instructions within each group.
	for g := avr.Group1; g <= avr.Group8; g++ {
		classes := avr.ClassesInGroup(g)
		ds, err := camp.CollectClasses(classes, sc.Programs, sc.TracesPerProgram)
		if err != nil {
			return nil, err
		}
		tr, te := ds.SplitRandom(rng, 5.0/6.0)
		_, sr, err := fitEval(tr, te, len(classes), clampPCs(pc, tr), ml.NewQDA())
		if err != nil {
			return nil, err
		}
		res.InstrSR[g.String()] = sr
		if sr < res.MinInstr {
			res.MinInstr = sr
		}
	}

	// Level 3: registers.
	regs, err := Registers(sc)
	if err != nil {
		return nil, err
	}
	res.RdSR = regs.RdSR["QDA"]
	res.RrSR = regs.RrSR["QDA"]

	res.OpcodeSR = res.GroupSR * res.MinInstr
	res.OverallSR = res.OpcodeSR * res.RdSR * res.RrSR
	return res, nil
}

// clampPCs keeps the QDA covariances well conditioned at reduced scales.
func clampPCs(pc features.PipelineConfig, ds *power.Dataset) features.PipelineConfig {
	counts := map[int]int{}
	for _, l := range ds.Labels {
		counts[l]++
	}
	minCount := len(ds.Labels)
	for _, c := range counts {
		if c < minCount {
			minCount = c
		}
	}
	if maxDim := minCount/2 + 1; pc.NumComponents > maxDim {
		pc.NumComponents = maxDim
	}
	return pc
}

func (r *Table1Result) String() string {
	var b strings.Builder
	b.WriteString("Table 1 (\"Ours\" row): ATMega328P @ 16 MHz, 112 instructions + 64 registers\n")
	fmt.Fprintf(&b, "  group SR:                    %5.2f%%  (paper: 99.85%% SVM / 99.93%% QDA)\n", 100*r.GroupSR)
	for g := avr.Group1; g <= avr.Group8; g++ {
		fmt.Fprintf(&b, "    %s instruction SR:      %5.2f%%\n", g, 100*r.InstrSR[g.String()])
	}
	fmt.Fprintf(&b, "  worst-group instruction SR:  %5.2f%%  (paper: >= 99.5%%)\n", 100*r.MinInstr)
	fmt.Fprintf(&b, "  opcode SR (group x instr):   %5.2f%%  (paper: 99.1-99.53%%)\n", 100*r.OpcodeSR)
	fmt.Fprintf(&b, "  Rd SR:                       %5.2f%%  (paper: 99.9%%)\n", 100*r.RdSR)
	fmt.Fprintf(&b, "  Rr SR:                       %5.2f%%  (paper: 99.6%%)\n", 100*r.RrSR)
	fmt.Fprintf(&b, "  overall (opcode+Rd+Rr):      %5.2f%%  (paper: 99.03%%)\n", 100*r.OverallSR)
	return b.String()
}

// ---------------------------------------------------------------- §5.7

// MalwareResult is the register-swap detection case study.
type MalwareResult struct {
	CleanAlarm bool
	EvilAlarm  bool
	Mismatches []core.FlowMismatch
	Listing    string
}

// Malware trains a subset disassembler and checks the masked-AES snippet
// against its register-swapped malicious variant.
func Malware(sc Scale) (*MalwareResult, error) {
	return MalwareObserved(sc, nil)
}

// MalwareObserved is Malware with a post-training hook: onTrained (may be
// nil) runs once the subset disassembler exists, letting a CLI install an
// InferenceObserver — the trained drift baseline is only reachable from the
// Disassembler itself, which this experiment otherwise keeps internal.
func MalwareObserved(sc Scale, onTrained func(*core.Disassembler) error) (*MalwareResult, error) {
	cfg := core.DefaultTrainerConfig()
	cfg.Programs = sc.Programs
	cfg.TracesPerProgram = sc.TracesPerProgram
	cfg.RegisterPrograms = sc.Programs
	cfg.RegisterTracesPerProgram = sc.TracesPerProgram
	cfg.Seed = sc.Seed
	d, _, err := core.TrainSubsetReportCtx(context.Background(), cfg, []avr.Class{avr.OpEOR, avr.OpMOV}, true)
	if err != nil {
		return nil, err
	}
	if onTrained != nil {
		if err := onTrained(d); err != nil {
			return nil, err
		}
	}
	golden, err := avr.AssembleProgram("MOV r18, r17\nEOR r16, r17")
	if err != nil {
		return nil, err
	}
	evil, err := avr.AssembleProgram("MOV r18, r17\nEOR r16, r0")
	if err != nil {
		return nil, err
	}
	camp, err := power.NewCampaign(cfg.Power, 0, sc.Seed+77)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(sc.Seed) + 7))
	prog := power.NewProgramEnv(cfg.Power, sc.Seed+77, 3)
	detect := func(stream []avr.Instruction) ([]core.FlowMismatch, string, error) {
		sink := d.Observer()
		var runs [][]core.Decoded
		for run := 0; run < 9; run++ {
			traces, err := camp.AcquireSegments(rng, prog, stream)
			if err != nil {
				return nil, "", err
			}
			var decs []core.Decoded
			if sink != nil && sink.Calibration != nil {
				// The simulation knows the executed stream, so every run's
				// decisions can be labeled against true ground truth — not
				// just the golden flow, which deliberately differs from the
				// malicious stream.
				scored, err := d.DisassembleScoredCtx(context.Background(), traces)
				if err != nil {
					return nil, "", err
				}
				decs = make([]core.Decoded, len(scored))
				for i, sd := range scored {
					decs[i] = sd.Decoded
				}
				wrong := make([]bool, len(decs))
				for _, m := range core.CompareFlow(stream, decs) {
					if m.Index >= 0 && m.Index < len(wrong) {
						wrong[m.Index] = true
					}
				}
				for i, sd := range scored {
					sink.Calibration.Observe(sd.Confidence, !wrong[i])
				}
			} else {
				if decs, err = d.DisassembleCtx(context.Background(), traces); err != nil {
					return nil, "", err
				}
			}
			runs = append(runs, decs)
		}
		fused, err := core.MajorityDecode(runs)
		if err != nil {
			return nil, "", err
		}
		return core.CompareFlow(golden, fused), core.Listing(fused), nil
	}
	cleanMM, _, err := detect(golden)
	if err != nil {
		return nil, err
	}
	evilMM, listing, err := detect(evil)
	if err != nil {
		return nil, err
	}
	return &MalwareResult{
		CleanAlarm: hasRegisterAlarm(cleanMM),
		EvilAlarm:  hasRegisterAlarm(evilMM),
		Mismatches: evilMM,
		Listing:    listing,
	}, nil
}

func hasRegisterAlarm(mm []core.FlowMismatch) bool {
	for _, m := range mm {
		if m.Field == "Rd" || m.Field == "Rr" {
			return true
		}
	}
	return false
}

func (r *MalwareResult) String() string {
	var b strings.Builder
	b.WriteString("Malware detection (§5.7): masked-AES EOR r16,r17 -> EOR r16,r0\n")
	fmt.Fprintf(&b, "  clean stream register alarm: %v (want false)\n", r.CleanAlarm)
	fmt.Fprintf(&b, "  malicious stream alarm:      %v (want true)\n", r.EvilAlarm)
	b.WriteString("  recovered malicious listing:\n")
	for _, line := range strings.Split(strings.TrimSpace(r.Listing), "\n") {
		fmt.Fprintf(&b, "    %s\n", line)
	}
	for _, m := range r.Mismatches {
		fmt.Fprintf(&b, "  ALERT %s\n", m)
	}
	return b.String()
}
