package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/avr"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/power"
)

// acquireTestTraces collects a deterministic batch of labeled traces from an
// unseen program environment.
func acquireTestTraces(t *testing.T, cfg TrainerConfig, classes []avr.Class, perClass int) [][]float64 {
	t.Helper()
	camp, err := power.NewCampaign(cfg.Power, 0, 4242)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	prog := power.NewProgramEnv(cfg.Power, 4242, 3)
	var traces [][]float64
	for _, cl := range classes {
		stream := make([]avr.Instruction, perClass)
		for i := range stream {
			stream[i] = avr.RandomOperands(rng, cl)
		}
		tr, err := camp.AcquireSegments(rng, prog, stream)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr...)
	}
	return traces
}

// TestClassifyOneTransformPerTrace pins the cost invariant of inference: a
// hierarchical classification runs ZERO full CWTs (the dsp.cwt.transforms
// counter stays put) — only one sparse evaluation per hierarchy level
// actually consulted (group + instr here), for Classify and Disassemble
// alike.
func TestClassifyOneTransformPerTrace(t *testing.T) {
	cfg := smallConfig()
	classes := []avr.Class{avr.OpADD, avr.OpAND, avr.OpLDI, avr.OpSEC}
	d, err := TrainSubset(cfg, classes, false)
	if err != nil {
		t.Fatal(err)
	}
	traces := acquireTestTraces(t, cfg, classes, 3)
	defer obs.SetDefault(nil)
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	full := reg.Counter("dsp.cwt.transforms")
	sparse := reg.Counter("dsp.cwt.sparse.transforms")

	before := full.Value()
	sparseBefore := sparse.Value()
	if _, err := d.Classify(traces[0]); err != nil {
		t.Fatal(err)
	}
	if got := full.Value() - before; got != 0 {
		t.Fatalf("Classify ran %d full CWTs, want 0", got)
	}
	if got := sparse.Value() - sparseBefore; got != 2 {
		t.Fatalf("Classify ran %d sparse evaluations, want 2 (group + instr)", got)
	}

	before = full.Value()
	sparseBefore = sparse.Value()
	if _, err := d.Disassemble(traces); err != nil {
		t.Fatal(err)
	}
	if got := full.Value() - before; got != 0 {
		t.Fatalf("Disassemble of %d traces ran %d full CWTs, want 0", len(traces), got)
	}
	if got := sparse.Value() - sparseBefore; got != int64(2*len(traces)) {
		t.Fatalf("Disassemble of %d traces ran %d sparse evaluations, want %d", len(traces), got, 2*len(traces))
	}
}

// TestTrainOneTransformPerTrace pins the cost invariant of training: every
// level runs exactly one full CWT per training trace that survives
// ingestion — FitPipelineCtx's statistics pass — and its classifier trains on
// the features FitPipelineCtx returns instead of transforming the set again.
func TestTrainOneTransformPerTrace(t *testing.T) {
	cfg := smallConfig()
	cfg.Programs, cfg.TracesPerProgram = 2, 4
	cfg.RegisterPrograms, cfg.RegisterTracesPerProgram = 2, 2
	defer obs.SetDefault(nil)
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	full := reg.Counter("dsp.cwt.transforms")

	before := full.Value()
	_, rep, err := TrainSubsetReportCtx(context.Background(), cfg, []avr.Class{avr.OpADD, avr.OpEOR}, true)
	if err != nil {
		t.Fatal(err)
	}
	trained := rep.Validation.Checked - rep.Validation.Rejected()
	if trained == 0 {
		t.Fatal("no training trace survived ingestion")
	}
	if got := full.Value() - before; got != int64(trained) {
		t.Fatalf("training on %d traces (summed over %d levels) ran %d full CWTs, want one per trace", trained, len(rep.LevelConfusion), got)
	}
}

// TestDisassembleParallelEquivalence requires the parallel Disassemble to
// produce exactly the serial decoding.
func TestDisassembleParallelEquivalence(t *testing.T) {
	cfg := smallConfig()
	classes := []avr.Class{avr.OpADD, avr.OpAND, avr.OpLDI, avr.OpSEC}
	d, err := TrainSubset(cfg, classes, false)
	if err != nil {
		t.Fatal(err)
	}
	traces := acquireTestTraces(t, cfg, classes, 4)

	defer parallel.SetWorkers(0)
	parallel.SetWorkers(1)
	want, err := d.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetWorkers(4)
	got, err := d.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("lengths differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("trace %d decoded differently: %+v vs %+v", i, want[i], got[i])
		}
	}

	// A bad trace fails identically too: same prefix length, same index in
	// the error, at any worker count.
	bad := append([][]float64{}, traces[:5]...)
	bad[3] = traces[3][:10]
	parallel.SetWorkers(1)
	prefixS, errS := d.Disassemble(bad)
	parallel.SetWorkers(4)
	prefixP, errP := d.Disassemble(bad)
	if errS == nil || errP == nil {
		t.Fatal("truncated trace should fail at every worker count")
	}
	if len(prefixS) != 3 || len(prefixP) != 3 {
		t.Fatalf("failure prefixes: serial %d, parallel %d, want 3", len(prefixS), len(prefixP))
	}
	if errS.Error() != errP.Error() {
		t.Fatalf("errors differ:\n  serial:   %v\n  parallel: %v", errS, errP)
	}
}

// TestTrainSubsetParallelEquivalence fits the same subset at one and four
// workers and requires identical classifications on a shared test batch —
// the trainer's parallel level jobs must not perturb the templates.
func TestTrainSubsetParallelEquivalence(t *testing.T) {
	cfg := smallConfig()
	cfg.TracesPerProgram = 12
	classes := []avr.Class{avr.OpADD, avr.OpLDI}
	traces := acquireTestTraces(t, cfg, classes, 4)

	defer parallel.SetWorkers(0)
	parallel.SetWorkers(1)
	dS, err := TrainSubset(cfg, classes, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dS.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetWorkers(4)
	dP, err := TrainSubset(cfg, classes, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dP.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("trace %d: serial-trained %+v, parallel-trained %+v", i, want[i], got[i])
		}
	}
}
