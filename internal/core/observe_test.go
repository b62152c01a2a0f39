package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/avr"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/power"
	"repro/internal/store"
)

// withObserver installs an observer on the shared fixture disassembler and
// restores the previous one when the test ends, so fixture state never leaks
// between tests.
func withObserver(t *testing.T, d *Disassembler, o *InferenceObserver) {
	t.Helper()
	prev := d.Observer()
	d.SetObserver(o)
	t.Cleanup(func() { d.SetObserver(prev) })
}

// TestClassifyScoredAgreesWithClassify pins the label-agreement contract on
// real traces: the scored path must decode exactly what the plain path
// decodes, with a per-level confidence chain that is finite, in (0, 1], and
// whose product is the decision confidence.
func TestClassifyScoredAgreesWithClassify(t *testing.T) {
	d, traces := sharedFixture(t)
	plain := make([]Decoded, len(traces))
	for i, tr := range traces {
		dec, err := d.Classify(tr)
		if err != nil {
			t.Fatal(err)
		}
		plain[i] = dec
	}

	withObserver(t, d, &InferenceObserver{})
	for i, tr := range traces {
		sc, err := d.ClassifyScored(tr)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Decoded != plain[i] {
			t.Fatalf("trace %d: scored decode %+v != plain %+v", i, sc.Decoded, plain[i])
		}
		if len(sc.Levels) < 2 || sc.Levels[0].Level != "group" || sc.Levels[1].Level != "instr" {
			t.Fatalf("trace %d: levels %+v, want group then instr", i, sc.Levels)
		}
		prod := 1.0
		for _, lvl := range sc.Levels {
			if !(lvl.Confidence > 0 && lvl.Confidence <= 1) || math.IsNaN(lvl.Margin) {
				t.Fatalf("trace %d level %s: confidence %g margin %g", i, lvl.Level, lvl.Confidence, lvl.Margin)
			}
			prod *= lvl.Confidence
		}
		if math.Abs(prod-sc.Confidence) > 1e-12 {
			t.Fatalf("trace %d: confidence %g != level product %g", i, sc.Confidence, prod)
		}
		// Classify with an observer installed routes through the scored path;
		// its decode must still match.
		dec, err := d.Classify(tr)
		if err != nil {
			t.Fatal(err)
		}
		if dec != plain[i] {
			t.Fatalf("trace %d: observed Classify %+v != plain %+v", i, dec, plain[i])
		}
	}
}

// TestDisassembleScoredDeterministicAcrossWorkers checks that the batch
// scored path feeds its sinks identically regardless of worker count: same
// decisions, same decision-log bytes, same drift window outcome.
func TestDisassembleScoredDeterministicAcrossWorkers(t *testing.T) {
	d, traces := sharedFixture(t)
	defer parallel.SetWorkers(0)

	run := func(workers int) ([]Decision, string, float64) {
		t.Helper()
		parallel.SetWorkers(workers)
		var sb strings.Builder
		mon, err := d.NewDriftMonitor(obs.DriftConfig{Window: len(traces)})
		if err != nil {
			t.Fatal(err)
		}
		withObserver(t, d, &InferenceObserver{Log: obs.NewDecisionLog(&sb, 2), Drift: mon})
		decs, err := d.DisassembleScored(traces)
		if err != nil {
			t.Fatal(err)
		}
		return decs, sb.String(), mon.Score()
	}

	decs1, log1, score1 := run(1)
	decs4, log4, score4 := run(4)
	if len(decs1) != len(traces) || len(decs1) != len(decs4) {
		t.Fatalf("decision counts: %d vs %d (want %d)", len(decs1), len(decs4), len(traces))
	}
	for i := range decs1 {
		if decs1[i].Decoded != decs4[i].Decoded || decs1[i].Confidence != decs4[i].Confidence {
			t.Fatalf("decision %d differs across worker counts: %+v vs %+v", i, decs1[i], decs4[i])
		}
	}
	if log1 != log4 {
		t.Fatalf("decision logs differ across worker counts:\n%s\nvs\n%s", log1, log4)
	}
	if log1 == "" {
		t.Fatal("sampled decision log is empty")
	}
	if score1 != score4 {
		t.Fatalf("drift scores differ across worker counts: %g vs %g", score1, score4)
	}

	// The JSONL stream round-trips record by record.
	sc := bufio.NewScanner(strings.NewReader(log1))
	n := 0
	for sc.Scan() {
		var rec obs.DecisionRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("decision log line %d: %v", n+1, err)
		}
		if rec.Text == "" || len(rec.Levels) < 2 {
			t.Fatalf("decision log line %d incomplete: %+v", n+1, rec)
		}
		n++
	}
	if want := (len(traces) + 1) / 2; n != want {
		t.Fatalf("%d sampled records, want %d", n, want)
	}
}

// TestCheckProgramFeedsCalibration runs the labeled calibration feed of the
// malware check (scdis detect): a scored decode of the traces, each decision
// labeled by CompareFlow against the golden flow and observed by the
// installed reliability tracker. The decoder itself must leave the tracker
// alone; the labeled feed must land every position of the golden flow in the
// reliability population, and a self-consistent golden flow must be clean
// and score perfect accuracy.
func TestCheckProgramFeedsCalibration(t *testing.T) {
	d, traces := sharedFixture(t)
	decs, err := d.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}
	golden := make([]avr.Instruction, len(decs))
	for i, dec := range decs {
		golden[i] = avr.Instruction{Class: dec.Class, Rd: dec.Rd, Rr: dec.Rr}
	}

	cal := obs.NewReliability()
	withObserver(t, d, &InferenceObserver{Calibration: cal})
	scored, err := d.DisassembleScored(traces)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Snapshot().Labeled != 0 {
		t.Fatalf("the decoder labeled %d decisions; only a caller that knows the executed stream may", cal.Snapshot().Labeled)
	}
	observed := make([]Decoded, len(scored))
	for i, sd := range scored {
		observed[i] = sd.Decoded
	}
	mm := CompareFlow(golden, observed)
	if len(mm) != 0 {
		t.Fatalf("self-consistent golden flow flagged: %v", mm)
	}
	wrong := make([]bool, len(scored))
	for _, m := range mm {
		if m.Index >= 0 && m.Index < len(wrong) {
			wrong[m.Index] = true
		}
	}
	for i, sd := range scored {
		d.Observer().Calibration.Observe(sd.Confidence, !wrong[i])
	}

	if cal.Snapshot().Labeled != int64(len(golden)) {
		t.Fatalf("calibration saw %d labeled decisions, want %d", cal.Snapshot().Labeled, len(golden))
	}
	snap := cal.Snapshot()
	if snap.Accuracy != 1 {
		t.Fatalf("self-consistent flow accuracy %g, want 1", snap.Accuracy)
	}
	if math.IsNaN(snap.ECE) || snap.ECE < 0 || snap.ECE > 1 {
		t.Fatalf("ECE %g out of range", snap.ECE)
	}
	if !(snap.MeanConfidence > 0 && snap.MeanConfidence <= 1) {
		t.Fatalf("mean confidence %g", snap.MeanConfidence)
	}
}

// driftProbe acquires traces mirroring the training acquisition marginal —
// uniform over all instruction groups, random operands, fresh program
// environment per batch — optionally mutating each trace before feeding it
// through ObserveTrace.
func driftProbe(t *testing.T, d *Disassembler, n int, seedOff int64, mutate func([]float64)) {
	t.Helper()
	cfg := smallConfig()
	camp, err := power.NewCampaign(cfg.Power, 0, 4242)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(811 + seedOff))
	const batch = 4
	for fed, env := 0, 500; fed < n; env++ {
		prog := power.NewProgramEnv(cfg.Power, 4242, env)
		targets := make([]avr.Instruction, batch)
		for i := range targets {
			g := avr.Group1 + avr.Group(rng.Intn(avr.NumGroups))
			members := avr.ClassesInGroup(g)
			targets[i] = avr.RandomOperands(rng, members[rng.Intn(len(members))])
		}
		traces, err := camp.AcquireTemplated(rng, prog, targets)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range traces {
			if fed >= n {
				break
			}
			if mutate != nil {
				mutate(tr)
			}
			if err := d.ObserveTrace(tr); err != nil {
				t.Fatal(err)
			}
			fed++
		}
	}
}

// TestDriftMonitorEndToEnd is the acceptance gate for covariate-shift
// detection on the real pipeline: an in-distribution probe stream keeps the
// monitor quiet, while a DC-offset/gain shift — the paper's motivating
// failure mode — crosses the warn threshold within a single window.
func TestDriftMonitorEndToEnd(t *testing.T) {
	d, _ := sharedFixture(t)
	const window = 32

	mon, err := d.NewDriftMonitor(obs.DriftConfig{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	withObserver(t, d, &InferenceObserver{Drift: mon})

	driftProbe(t, d, window, 0, nil)
	if st := mon.State(); st != obs.DriftOK {
		t.Fatalf("in-distribution probe: state %s score %g (snapshot %+v)", st, mon.Score(), mon.Snapshot())
	}

	driftProbe(t, d, window, 1000, func(tr []float64) {
		for i := range tr {
			tr[i] = 1.2*tr[i] + 0.5
		}
	})
	if st := mon.State(); st == obs.DriftOK {
		t.Fatalf("DC-offset/gain shift not flagged: score %g (snapshot %+v)", mon.Score(), mon.Snapshot())
	}
	snap := mon.Snapshot()
	if snap.WorstFeature != "trace.mean" && snap.WorstFeature != "trace.std" {
		t.Fatalf("worst feature %q, want a trace moment", snap.WorstFeature)
	}
}

// TestObserveTraceValidation covers the stream-feeding entry point's edges:
// nil observer and missing drift sink are no-ops, defective traces are
// rejected, an untrained disassembler errors.
func TestObserveTraceValidation(t *testing.T) {
	d, traces := sharedFixture(t)
	if err := d.ObserveTrace(traces[0]); err != nil {
		t.Fatalf("no observer: %v", err)
	}
	withObserver(t, d, &InferenceObserver{})
	if err := d.ObserveTrace(traces[0]); err != nil {
		t.Fatalf("no drift sink: %v", err)
	}

	mon, err := d.NewDriftMonitor(obs.DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	withObserver(t, d, &InferenceObserver{Drift: mon})
	bad := append([]float64(nil), traces[0]...)
	bad[2] = math.Inf(1)
	if err := d.ObserveTrace(bad); err == nil {
		t.Fatal("non-finite trace accepted")
	}
	if err := d.ObserveTrace(traces[0][:3]); err == nil {
		t.Fatal("short trace accepted")
	}

	var untrained Disassembler
	untrained.SetObserver(&InferenceObserver{Drift: mon})
	if err := untrained.ObserveTrace(traces[0]); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("untrained ObserveTrace err = %v, want ErrNotTrained", err)
	}
	if _, err := untrained.NewDriftMonitor(obs.DriftConfig{}); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("untrained NewDriftMonitor err = %v, want ErrNotTrained", err)
	}
}

// TestTemplateV2CarriesBaseline pins drift-baseline persistence: a saved
// template round-trips the baseline, and a template without one (converted
// from a file that predates drift support) still loads but reports
// ErrNoDriftBaseline when a monitor is requested.
func TestTemplateV2CarriesBaseline(t *testing.T) {
	d, _ := sharedFixture(t)
	base := d.DriftBaseline()
	if base == nil {
		t.Fatal("trained disassembler has no drift baseline")
	}
	saved := saveBytes(t, d)
	d2, err := Load(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	got := d2.DriftBaseline()
	if got == nil {
		t.Fatal("reloaded template lost its drift baseline")
	}
	if len(got.Names) != len(base.Names) {
		t.Fatalf("baseline features %v != %v", got.Names, base.Names)
	}
	for i := range base.Names {
		if got.Names[i] != base.Names[i] || got.Mean[i] != base.Mean[i] || got.Std[i] != base.Std[i] {
			t.Fatalf("baseline feature %d differs after reload", i)
		}
	}
	if _, err := d2.NewDriftMonitor(obs.DriftConfig{}); err != nil {
		t.Fatalf("reloaded template cannot build a drift monitor: %v", err)
	}

	// Strip every baseline, exactly what converting a pre-drift file gave.
	noBase := rewriteState(t, saved, func(st *store.TemplateState) {
		for _, ls := range levelPtrs(st) {
			if ls.Present {
				ls.Pipe.Baseline = nil
			}
		}
	})
	dOld, err := Load(bytes.NewReader(noBase))
	if err != nil {
		t.Fatalf("template without a baseline rejected: %v", err)
	}
	if dOld.DriftBaseline() != nil {
		t.Fatal("template without a baseline reports one")
	}
	if _, err := dOld.NewDriftMonitor(obs.DriftConfig{}); !errors.Is(err, ErrNoDriftBaseline) {
		t.Fatalf("NewDriftMonitor without a baseline: err = %v, want ErrNoDriftBaseline", err)
	}
}
