package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/avr"
	"repro/internal/ml"
	"repro/internal/power"
)

// smallConfig keeps the end-to-end tests fast.
func smallConfig() TrainerConfig {
	cfg := DefaultTrainerConfig()
	cfg.Programs = 4
	cfg.TracesPerProgram = 20
	cfg.RegisterPrograms = 0
	cfg.RegisterTracesPerProgram = 0
	return cfg
}

func TestTrainSubsetEndToEnd(t *testing.T) {
	cfg := smallConfig()
	classes := []avr.Class{avr.OpADD, avr.OpAND, avr.OpLDI, avr.OpSEC}
	d, err := TrainSubset(cfg, classes, false)
	if err != nil {
		t.Fatal(err)
	}
	// Classify fresh traces from an unseen program environment; the CSA
	// pipeline should carry the templates over.
	camp, err := power.NewCampaign(cfg.Power, 0, 999)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	prog := power.NewProgramEnv(cfg.Power, 999, 7)
	hit, total := 0, 0
	for _, cl := range classes {
		stream := make([]avr.Instruction, 15)
		for i := range stream {
			stream[i] = avr.RandomOperands(rng, cl)
		}
		traces, err := camp.AcquireSegments(rng, prog, stream)
		if err != nil {
			t.Fatal(err)
		}
		decs, err := d.Disassemble(traces)
		if err != nil {
			t.Fatal(err)
		}
		for _, dec := range decs {
			total++
			if dec.Class == cl {
				hit++
			}
			if dec.Group != cl.Group() && dec.Class == cl {
				t.Fatalf("class %v reported with group %v", dec.Class, dec.Group)
			}
		}
	}
	if acc := float64(hit) / float64(total); acc < 0.80 {
		t.Fatalf("subset disassembler accuracy %.3f, want >= 0.80", acc)
	}
	// Register fields must be absent without register templates.
	tr, _ := camp.AcquireSegments(rng, prog, []avr.Instruction{{Class: avr.OpADD, Rd: 1, Rr: 2}})
	dec, err := d.Classify(tr[0])
	if err != nil {
		t.Fatal(err)
	}
	if dec.HasRd || dec.HasRr {
		t.Fatal("register recovery should be disabled")
	}
}

func TestTrainSubsetValidation(t *testing.T) {
	cfg := smallConfig()
	if _, err := TrainSubset(cfg, nil, false); err == nil {
		t.Fatal("empty class list should fail")
	}
	bad := cfg
	bad.Programs = 0
	if _, err := TrainSubset(bad, []avr.Class{avr.OpADD, avr.OpAND}, false); err == nil {
		t.Fatal("invalid config should fail")
	}
	if _, _, err := TrainCtx(context.Background(), bad); err == nil {
		t.Fatal("invalid config should fail Train too")
	}
}

func TestMalwareDetectionEndToEnd(t *testing.T) {
	// The §5.7 case study at test scale: golden masked-AES snippet vs a
	// malicious variant with the mask register swapped to r0 (zero).
	cfg := smallConfig()
	cfg.RegisterPrograms = 5
	cfg.RegisterTracesPerProgram = 20
	classes := []avr.Class{avr.OpEOR, avr.OpMOV}
	d, err := TrainSubset(cfg, classes, true)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := avr.AssembleProgram(`
		MOV r18, r17 ; stash the mask
		EOR r16, r17 ; mask the AES subkey
	`)
	if err != nil {
		t.Fatal(err)
	}
	evil, err := avr.AssembleProgram(`
		MOV r18, r17
		EOR r16, r0 ; malware: mask with the zero register
	`)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := power.NewCampaign(cfg.Power, 0, 4242)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	prog := power.NewProgramEnv(cfg.Power, 4242, 3)

	// Majority-vote fusion across repeated runs mirrors real-time monitoring
	// of a loop: single-trace misreads cancel out.
	detect := func(stream []avr.Instruction) []FlowMismatch {
		var runs [][]Decoded
		for run := 0; run < 9; run++ {
			traces, err := camp.AcquireSegments(rng, prog, stream)
			if err != nil {
				t.Fatal(err)
			}
			decs, err := d.Disassemble(traces)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, decs)
		}
		fused, err := MajorityDecode(runs)
		if err != nil {
			t.Fatal(err)
		}
		return CompareFlow(golden, fused)
	}
	cleanMM := detect(golden)
	evilMM := detect(evil)
	if len(evilMM) == 0 {
		t.Fatal("register-swap malware not detected")
	}
	// The attack signature — a source-register mismatch on the masking EOR —
	// must appear for the malicious stream and not for the clean one.
	hasRrAt1 := func(mm []FlowMismatch) bool {
		for _, m := range mm {
			if m.Index == 1 && m.Field == "Rr" {
				return true
			}
		}
		return false
	}
	if !hasRrAt1(evilMM) {
		t.Fatalf("expected Rr mismatch at instruction 1, got %v", evilMM)
	}
	if hasRrAt1(cleanMM) {
		t.Fatalf("clean stream raised a spurious Rr alarm: %v", cleanMM)
	}
}

// tinyConfig is an even smaller configuration for the robustness tests.
func tinyConfig() TrainerConfig {
	cfg := DefaultTrainerConfig()
	cfg.Programs = 2
	cfg.TracesPerProgram = 8
	cfg.RegisterPrograms = 0
	cfg.RegisterTracesPerProgram = 0
	return cfg
}

// assertFiniteValue walks v recursively and fails the test on any NaN/±Inf
// float64, reporting the path to the offending field.
func assertFiniteValue(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Float64, reflect.Float32:
		f := v.Float()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			t.Fatalf("non-finite value %v at %s", f, path)
		}
	case reflect.Ptr, reflect.Interface:
		if !v.IsNil() {
			assertFiniteValue(t, path, v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				assertFiniteValue(t, path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			assertFiniteValue(t, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Map:
		for _, k := range v.MapKeys() {
			assertFiniteValue(t, fmt.Sprintf("%s[%v]", path, k), v.MapIndex(k))
		}
	}
}

// Acceptance: a dataset contaminated with NaN, constant and wrong-length
// traces still fits — the defective traces are rejected per-trace with their
// counts reported — and no NaN reaches the trained pipeline state or
// classifier parameters.
func TestFitLevelToleratesDefectiveTraces(t *testing.T) {
	cfg := tinyConfig()
	camp, err := power.NewCampaign(cfg.Power, 0, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := camp.CollectClasses([]avr.Class{avr.OpADC, avr.OpAND}, cfg.Programs, cfg.TracesPerProgram)
	if err != nil {
		t.Fatal(err)
	}
	clean := ds.Len()

	// Poison the dataset with one defect of each kind.
	nanTrace := make([]float64, cfg.Power.TraceLen)
	for i := range nanTrace {
		nanTrace[i] = float64(i)
	}
	nanTrace[17] = math.NaN()
	ds.Append(nanTrace, 0, 0)
	constTrace := make([]float64, cfg.Power.TraceLen)
	for i := range constTrace {
		constTrace[i] = 2.5
	}
	ds.Append(constTrace, 1, 1)
	ds.Append([]float64{1, 2, 3}, 0, 0)

	res, err := fitLevel(context.Background(), "test", ds, 2, cfg)
	if err != nil {
		t.Fatalf("fitLevel on poisoned dataset: %v", err)
	}
	lvl, acc, vrep := res.level, res.acc, res.vrep
	if vrep.Checked != clean+3 || vrep.NonFinite != 1 || vrep.Constant != 1 || vrep.WrongLength != 1 {
		t.Fatalf("validation report = %+v, want 3 rejections across kinds", vrep)
	}
	if acc <= 0.5 {
		t.Fatalf("train accuracy %g suspiciously low after sanitization", acc)
	}
	if len(res.conf) != 2 {
		t.Fatalf("confusion matrix has %d rows, want 2", len(res.conf))
	}

	// No NaN anywhere in the persisted pipeline or classifier state.
	ps, err := lvl.pipe.State()
	if err != nil {
		t.Fatal(err)
	}
	assertFiniteValue(t, "PipelineState", reflect.ValueOf(ps))
	cs, err := ml.SnapshotClassifier(lvl.clf)
	if err != nil {
		t.Fatal(err)
	}
	assertFiniteValue(t, "ClassifierState", reflect.ValueOf(cs))
}

// Cancelling mid-train returns context.Canceled without deadlock (the test
// binary runs under -race in CI's race job, covering the acceptance bar).
func TestTrainCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(100*time.Millisecond, cancel)
	_, _, err := TrainCtx(ctx, tinyConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("TrainCtx err = %v, want context.Canceled", err)
	}

	preCtx, preCancel := context.WithCancel(context.Background())
	preCancel()
	start := time.Now()
	if _, _, err := TrainSubsetReportCtx(preCtx, tinyConfig(), []avr.Class{avr.OpADC, avr.OpAND}, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("TrainSubsetReportCtx err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("pre-cancelled TrainSubsetReportCtx took %v", elapsed)
	}
}

// Classification robustness: defective traces are rejected with the power
// package's typed sentinels, Disassemble reports the decoded prefix plus the
// failing index, and DisassembleCtx honors cancellation.
func TestClassifyRejectsDefectiveTraces(t *testing.T) {
	cfg := tinyConfig()
	classes := []avr.Class{avr.OpADC, avr.OpAND}
	d, err := TrainSubset(cfg, classes, false)
	if err != nil {
		t.Fatal(err)
	}

	nanTrace := make([]float64, cfg.Power.TraceLen)
	nanTrace[3] = math.NaN()
	if _, err := d.Classify(nanTrace); !errors.Is(err, power.ErrNonFiniteTrace) {
		t.Fatalf("NaN trace err = %v, want power.ErrNonFiniteTrace", err)
	}
	if _, err := d.Classify([]float64{1, 2, 3}); !errors.Is(err, power.ErrTraceLength) {
		t.Fatalf("short trace err = %v, want power.ErrTraceLength", err)
	}
	flat := make([]float64, cfg.Power.TraceLen)
	if _, err := d.Classify(flat); !errors.Is(err, power.ErrConstantTrace) {
		t.Fatalf("constant trace err = %v, want power.ErrConstantTrace", err)
	}

	// Acquire two good traces and splice a bad one between them.
	camp, err := power.NewCampaign(cfg.Power, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	prog := power.NewProgramEnv(cfg.Power, 99, 1)
	targets := []avr.Instruction{
		avr.RandomOperands(rng, classes[0]),
		avr.RandomOperands(rng, classes[1]),
	}
	good, err := camp.AcquireTemplated(rng, prog, targets)
	if err != nil {
		t.Fatal(err)
	}
	mixed := [][]float64{good[0], nanTrace, good[1]}
	prefix, err := d.Disassemble(mixed)
	if err == nil || !errors.Is(err, power.ErrNonFiniteTrace) {
		t.Fatalf("mixed stream err = %v, want wrapped power.ErrNonFiniteTrace", err)
	}
	if len(prefix) != 1 {
		t.Fatalf("decoded prefix length %d, want 1 (trace before the defect)", len(prefix))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.DisassembleCtx(ctx, good); !errors.Is(err, context.Canceled) {
		t.Fatalf("DisassembleCtx err = %v, want context.Canceled", err)
	}
}
