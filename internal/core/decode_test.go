package core

import (
	"context"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/avr"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/power"
	"repro/internal/stats"
)

// registerTemplate is a trained register subset template (its classes with
// the Rd and Rr levels) with 16 held-out traces whose instructions cycle
// through the classes, shared across the decode tests.
type registerTemplate struct {
	once   sync.Once
	d      *Disassembler
	traces [][]float64
	err    error
}

var regFixture, rdOnlyFix registerTemplate

// registerFixture is the EOR and MOV template: both group 1, both with Rd
// and Rr, so a pair of its traces crosses the same four levels.
func registerFixture(t testing.TB) (*Disassembler, [][]float64) {
	return regFixture.get(t, avr.OpEOR, avr.OpMOV)
}

// rdOnlyFixture adds INC, a group 3 class with Rd only, to registerFixture's
// classes, so a pair of adjacent traces can take different instruction
// levels and one lane can skip Rr.
func rdOnlyFixture(t testing.TB) (*Disassembler, [][]float64) {
	return rdOnlyFix.get(t, avr.OpEOR, avr.OpMOV, avr.OpINC)
}

func (f *registerTemplate) get(t testing.TB, classes ...avr.Class) (*Disassembler, [][]float64) {
	t.Helper()
	f.once.Do(func() {
		cfg := smallConfig()
		cfg.Programs = 3
		cfg.TracesPerProgram = 8
		cfg.RegisterPrograms = 3
		cfg.RegisterTracesPerProgram = 8
		d, err := TrainSubset(cfg, classes, true)
		if err != nil {
			f.err = err
			return
		}
		camp, err := power.NewCampaign(cfg.Power, 0, 977)
		if err != nil {
			f.err = err
			return
		}
		rng := rand.New(rand.NewSource(5))
		stream := make([]avr.Instruction, 16)
		for i := range stream {
			stream[i] = avr.RandomOperands(rng, classes[i%len(classes)])
		}
		f.traces, f.err = camp.AcquireSegments(rng, power.NewProgramEnv(cfg.Power, 977, 2), stream)
		f.d = d
	})
	if f.err != nil {
		t.Fatal(f.err)
	}
	return f.d, f.traces
}

// sameBits reports whether two float slices are bitwise equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameDecision reports whether two decisions are bitwise equal: labels,
// confidence and every level's outcome.
func sameDecision(a, b Decision) bool {
	if a.Decoded != b.Decoded || math.Float64bits(a.Confidence) != math.Float64bits(b.Confidence) || len(a.Levels) != len(b.Levels) {
		return false
	}
	for i, x := range a.Levels {
		y := b.Levels[i]
		if x.Level != y.Level || x.Label != y.Label || x.RunnerUp != y.RunnerUp ||
			math.Float64bits(x.Confidence) != math.Float64bits(y.Confidence) ||
			math.Float64bits(x.Margin) != math.Float64bits(y.Margin) {
			return false
		}
	}
	return true
}

// TestScratchExtractionMatchesExtractSparse pins the decode's extraction to
// the public one, bit for bit, on every level of a register template: the
// trace normalized once and shared by all levels, with every level's cells
// and projection written over the previous level's values in the pooled
// scratch, must equal a fresh ExtractSparse of the raw trace.
func TestScratchExtractionMatchesExtractSparse(t *testing.T) {
	d, _ := registerFixture(t)
	levels := d.trainedLevels()
	if len(levels) < 4 {
		t.Fatalf("register template has %d trained levels, want group, 2 instruction groups, Rd and Rr", len(levels))
	}
	s := d.getScratch()
	defer d.scratch.Put(s)
	rng := rand.New(rand.NewSource(11))
	for k := 0; k < 8; k++ {
		trace := make([]float64, d.TraceLen())
		for i := range trace {
			trace[i] = 3 + 2*math.Sin(0.1*float64(i)+float64(k)) + rng.NormFloat64()
		}
		mean, std := stats.TraceNormParams(trace)
		norm := grow(&s.norm, len(trace))
		stats.NormalizeTraceWith(norm, trace, mean, std)
		for li, lvl := range levels {
			want, err := lvl.pipe.ExtractSparse(trace)
			if err != nil {
				t.Fatal(err)
			}
			x := trace
			if lvl.pipe.Config().PerTraceNorm {
				x = norm
			}
			got := grow(&s.feat, lvl.pipe.NumFeatures())
			if err := lvl.pipe.ExtractSparseInto(got, grow(&s.cells, lvl.pipe.NumPoints()), x); err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want) {
				t.Fatalf("trace %d level %d: scratch extraction %v != ExtractSparse %v", k, li, got, want)
			}
		}
	}
}

// publicDecision decodes one trace level by level through the public calls
// (extract, PredictScored, and Scores + Scratch.ScoredFromLogScores for a group
// decision restricted to trained groups). With ExtractSparse as extract it
// is the reference the pooled walk must reproduce bit for bit; with the
// full-CWT Extract it is the accuracy gate's oracle.
func publicDecision(t *testing.T, d *Disassembler, trace []float64, extract func(*features.Pipeline, []float64) ([]float64, error)) Decision {
	t.Helper()
	dec := Decision{Confidence: 1}
	level := func(name string, lvl groupLevel, group bool) int {
		f, err := extract(lvl.pipe, trace)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := lvl.clf.(ml.ScoredClassifier).PredictScored(f)
		if err != nil {
			t.Fatal(err)
		}
		if group && !d.trainedGroup(sp.Label) {
			scores, err := lvl.clf.(ml.Scorer).Scores(f)
			if err != nil {
				t.Fatal(err)
			}
			for g := range scores {
				if !d.trainedGroup(g) {
					scores[g] = math.Inf(-1)
				}
			}
			sp = new(ml.Scratch).ScoredFromLogScores(scores)
		}
		dec.Levels = append(dec.Levels, obs.DecisionLevel{Level: name, Label: sp.Label, RunnerUp: sp.RunnerUp, Confidence: sp.Confidence, Margin: sp.Margin})
		dec.Confidence *= sp.Confidence
		return sp.Label
	}
	gi := level("group", d.group, true)
	ii := level("instr", d.instr[gi], false)
	cls := d.instrClass[gi][ii]
	dec.Decoded = Decoded{Class: cls, Group: cls.Group()}
	needRd, needRr := operandRegisters(avr.SpecOf(cls).Operands, cls)
	if needRd {
		dec.Rd, dec.HasRd = uint8(level("rd", d.rd, false)), true
	}
	if needRr {
		dec.Rr, dec.HasRr = uint8(level("rr", d.rr, false)), true
	}
	return dec
}

// TestClassifyScoredMatchesPublicCalls requires every pooled, merged-walk
// decision — labels, confidence, and each level's label, runner-up,
// confidence and margin — to equal bitwise the one built from the public
// per-level calls, and Classify to decode the same instruction.
func TestClassifyScoredMatchesPublicCalls(t *testing.T) {
	d, traces := registerFixture(t)
	regs := 0
	for i, tr := range traces {
		want := publicDecision(t, d, tr, (*features.Pipeline).ExtractSparse)
		got, err := d.ClassifyScored(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !sameDecision(got, want) {
			t.Fatalf("trace %d: pooled walk %+v, public calls %+v", i, got, want)
		}
		plain, err := d.Classify(tr)
		if err != nil {
			t.Fatal(err)
		}
		if plain != want.Decoded {
			t.Fatalf("trace %d: Classify %+v, public calls %+v", i, plain, want.Decoded)
		}
		if got.HasRd || got.HasRr {
			regs++
		}
	}
	if regs == 0 {
		t.Fatal("no trace crossed a register level")
	}
}

// TestDecodeAllocationBudget pins the allocation budget of a single-trace
// decode on a register template: Classify at most 4 allocations, and
// ClassifyScored with a drift monitor at most 6 (its Levels get memory of
// their own because the Decision leaves the call). The run count absorbs the
// occasional sync.Pool drain, which rebuilds one scratch.
func TestDecodeAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates and drops pooled items; allocation counts are meaningless under -race")
	}
	d, traces := registerFixture(t)
	const runs = 200
	i := 0
	next := func() []float64 {
		i++
		return traces[i%len(traces)]
	}
	plain := testing.AllocsPerRun(runs, func() {
		if _, err := d.Classify(next()); err != nil {
			t.Fatal(err)
		}
	})
	if plain > 4 {
		t.Errorf("Classify: %.0f allocs per decode, budget 4", plain)
	}

	mon, err := d.NewDriftMonitor(obs.DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	withObserver(t, d, &InferenceObserver{Drift: mon})
	scored := testing.AllocsPerRun(runs, func() {
		if _, err := d.ClassifyScored(next()); err != nil {
			t.Fatal(err)
		}
	})
	if scored > 6 {
		t.Errorf("ClassifyScored with a drift monitor: %.0f allocs per decode, budget 6", scored)
	}
	t.Logf("allocs per decode: Classify %.0f, ClassifyScored with a drift monitor %.0f", plain, scored)
}

// TestSampledOutDecisionsBuildNoRecord pins that the decision log builds a
// record only for the decisions it keeps: with a log that keeps 1 in 10⁶,
// ClassifyScored allocates no more than with no log, while the log still
// counts every decision.
func TestSampledOutDecisionsBuildNoRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates and drops pooled items; allocation counts are meaningless under -race")
	}
	d, traces := registerFixture(t)
	const runs = 200
	i := 0
	decode := func() {
		i++
		if _, err := d.ClassifyScored(traces[i%len(traces)]); err != nil {
			t.Fatal(err)
		}
	}
	withObserver(t, d, nil)
	none := testing.AllocsPerRun(runs, decode)
	log := obs.NewDecisionLog(io.Discard, 1_000_000)
	d.SetObserver(&InferenceObserver{Log: log})
	sampled := testing.AllocsPerRun(runs, decode)
	if sampled > none {
		t.Errorf("ClassifyScored with a 1-in-10^6 decision log: %.0f allocs per decode, %.0f with no log", sampled, none)
	}
	if got := log.Seen(); got != runs+1 {
		t.Errorf("decision log saw %d decisions, want %d", got, runs+1)
	}
}

// TestConcurrentDecodesMatchSerial runs the scored batch at 4 workers twice
// at once (16 traces, decoded in pairs), a 3-trace scored batch (a pair and
// a lone trace) and a 64-trace plain batch (paired) while two more
// goroutines call ClassifyScored, all against one Disassembler with a
// decision log and drift monitor installed: every decision must equal the
// serial decode, so no two decodes share scratch. A later batch must leave
// an earlier batch's Levels unchanged, so no decision aliases pooled memory.
func TestConcurrentDecodesMatchSerial(t *testing.T) {
	d, traces := registerFixture(t)
	want := make([]Decision, len(traces))
	for i, tr := range traces {
		dec, err := d.ClassifyScored(tr)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = dec
	}
	mon, err := d.NewDriftMonitor(obs.DriftConfig{Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	withObserver(t, d, &InferenceObserver{Log: obs.NewDecisionLog(io.Discard, 1), Drift: mon})
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(4)

	check := func(who string, got []Decision) {
		if len(got) != len(want) {
			t.Errorf("%s: %d decisions, want %d", who, len(got), len(want))
			return
		}
		for i := range got {
			if !sameDecision(got[i], want[i]) {
				t.Errorf("%s trace %d: %+v, serial %+v", who, i, got[i], want[i])
			}
		}
	}
	batches := make([][]Decision, 2)
	var wg sync.WaitGroup
	for b := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := d.DisassembleScoredCtx(context.Background(), traces)
			if err != nil {
				t.Error(err)
			}
			batches[b] = got
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		got, err := d.DisassembleScoredCtx(context.Background(), traces[:3])
		if err != nil || len(got) != 3 {
			t.Errorf("small batch: %d decisions, error %v", len(got), err)
			return
		}
		for i := range got {
			if !sameDecision(got[i], want[i]) {
				t.Errorf("small batch trace %d: %+v, serial %+v", i, got[i], want[i])
			}
		}
	}()
	go func() {
		defer wg.Done()
		long := cycleTraces(traces, 64)
		got, err := d.DisassembleCtx(context.Background(), long)
		if err != nil {
			t.Error(err)
			return
		}
		for i := range got {
			if got[i] != want[i%len(want)].Decoded {
				t.Errorf("plain batch trace %d: %+v, serial %+v", i, got[i], want[i%len(want)].Decoded)
			}
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]Decision, len(traces))
			for i, tr := range traces {
				dec, err := d.ClassifyScored(tr)
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = dec
			}
			check("ClassifyScored", got)
		}()
	}
	wg.Wait()
	for _, got := range batches {
		check("batch", got)
	}

	first := batches[0]
	kept := make([][]obs.DecisionLevel, len(first))
	for i, dec := range first {
		kept[i] = append([]obs.DecisionLevel(nil), dec.Levels...)
	}
	if _, err := d.DisassembleScored(traces); err != nil {
		t.Fatal(err)
	}
	for i, dec := range first {
		for j := range kept[i] {
			if dec.Levels[j] != kept[i][j] {
				t.Fatalf("trace %d level %d changed after a later batch: %+v, was %+v", i, j, dec.Levels[j], kept[i][j])
			}
		}
	}
}
