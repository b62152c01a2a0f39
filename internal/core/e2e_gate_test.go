package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/avr"
	"repro/internal/features"
	"repro/internal/power"
)

// The end-to-end accuracy regression gate: a deterministic synthetic dataset
// (power.Model with fixed seed) trained through the full hierarchy — group
// level, all eight instruction levels, Rd and Rr — with hard success-rate
// floors at every level plus a golden confusion-matrix summary. Any change
// that degrades the pipeline's statistical quality (feature selection, PCA,
// QDA fitting, normalization, trace synthesis) trips a floor; any change
// that silently alters its deterministic arithmetic trips the golden file.

// gateConfig sizes the gate: full hierarchy at a reduced scale so the gate
// stays affordable under -race while every level still fits on enough data
// to classify well above chance.
func gateConfig() TrainerConfig {
	cfg := DefaultTrainerConfig()
	cfg.Programs = 3
	cfg.TracesPerProgram = 8
	cfg.RegisterPrograms = 3
	cfg.RegisterTracesPerProgram = 8
	cfg.Seed = 1
	return cfg
}

// Per-level success-rate floors, set with margin under values measured at
// gateConfig() scale with NormTrace normalization (train: group 1.000,
// instr 0.965–1.000, rd 0.999, rr 0.997; held-out: group 0.993, class 0.703,
// rd 0.844, rr 0.903 — chance is 1/8 for groups, ~1/38 for classes, 1/32 for
// registers). The floors exist to catch regressions toward chance, while the
// golden summary below pins the exact deterministic behavior.
const (
	gateGroupTrainFloor = 0.97
	gateInstrTrainFloor = 0.90
	gateRegTrainFloor   = 0.90

	gateGroupEvalFloor = 0.90
	gateClassEvalFloor = 0.30
	gateRegEvalFloor   = 0.15

	// gateRdEvalFloor is separate from Rr: destination-register leakage is
	// measured stronger in the synthetic model.
	gateRdEvalFloor = 0.40
)

// confusionLevelOrder fixes the rendering order of the golden summary.
var confusionLevelOrder = []string{
	"group",
	"group1", "group2", "group3", "group4", "group5", "group6", "group7", "group8",
	"rd", "rr",
}

// confusionSummary renders one line per fitted level: class count, trace
// count, diagonal count, and accuracy to three decimals. Counts are exact
// integers, so the summary is reproducible wherever the float arithmetic is
// (see the GOARCH gate in the test).
func confusionSummary(conf map[string][][]int) string {
	var b strings.Builder
	for _, name := range confusionLevelOrder {
		cm, ok := conf[name]
		if !ok {
			continue
		}
		total, diag := 0, 0
		for i, row := range cm {
			for j, v := range row {
				total += v
				if i == j {
					diag += v
				}
			}
		}
		fmt.Fprintf(&b, "%s classes=%d total=%d correct=%d acc=%.3f\n",
			name, len(cm), total, diag, float64(diag)/float64(total))
	}
	return b.String()
}

// disassembleBothPaths decodes the stream through the sparse per-cell
// inference path AND a second time level by level with the full-CWT
// Pipeline.Extract as the per-level extractor — the oracle — and requires
// instruction-identical listings: the sparse path is a performance rewrite,
// not a model change, so any label divergence on the gate campaign is a bug.
// Returns the (shared) decoding.
func disassembleBothPaths(t *testing.T, d *Disassembler, traces [][]float64) []Decoded {
	t.Helper()
	sparse, err := d.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range traces {
		full := publicDecision(t, d, tr, (*features.Pipeline).Extract)
		if sparse[i] != full.Decoded {
			t.Fatalf("trace %d: sparse path decoded %+v, full-CWT oracle decoded %+v", i, sparse[i], full.Decoded)
		}
	}
	return sparse
}

func TestEndToEndAccuracyGate(t *testing.T) {
	if testing.Short() {
		t.Skip("accuracy gate trains the full hierarchy; skipped in -short mode")
	}
	cfg := gateConfig()
	d, rep, err := TrainCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Level 1: training-set floors from the report.
	t.Logf("train: group=%.4f instr=%v rd=%.4f rr=%.4f points=%d",
		rep.GroupTrainAccuracy, rep.InstrTrainAccuracy, rep.RdTrainAccuracy, rep.RrTrainAccuracy, rep.GroupPoints)
	if rep.GroupTrainAccuracy < gateGroupTrainFloor {
		t.Errorf("group train accuracy %.4f below floor %.2f", rep.GroupTrainAccuracy, gateGroupTrainFloor)
	}
	for g, acc := range rep.InstrTrainAccuracy {
		if acc < gateInstrTrainFloor {
			t.Errorf("group %d instruction train accuracy %.4f below floor %.2f", g+1, acc, gateInstrTrainFloor)
		}
	}
	if rep.RdTrainAccuracy < gateRegTrainFloor {
		t.Errorf("Rd train accuracy %.4f below floor %.2f", rep.RdTrainAccuracy, gateRegTrainFloor)
	}
	if rep.RrTrainAccuracy < gateRegTrainFloor {
		t.Errorf("Rr train accuracy %.4f below floor %.2f", rep.RrTrainAccuracy, gateRegTrainFloor)
	}
	if rep.Validation.Rejected() != 0 {
		t.Errorf("synthetic campaign produced rejected traces: %s", rep.Validation.String())
	}

	// Level 2: golden confusion summary. Integer confusion counts pin the
	// exact deterministic behavior of the whole train path. The file is
	// regenerated with REGEN_GOLDEN=1; the exact comparison runs on amd64
	// (the CI architecture — other architectures may contract floating-point
	// expressions differently, e.g. FMA on arm64, legitimately flipping
	// borderline decisions).
	summary := confusionSummary(rep.LevelConfusion)
	goldenPath := filepath.Join("testdata", "gate_confusion.golden")
	if os.Getenv("REGEN_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(summary), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", goldenPath)
	} else if runtime.GOARCH == "amd64" {
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("missing golden file (run with REGEN_GOLDEN=1 to create): %v", err)
		}
		if string(want) != summary {
			t.Errorf("confusion summary drifted from golden (REGEN_GOLDEN=1 to accept):\n--- got ---\n%s--- want ---\n%s", summary, want)
		}
	}

	// Level 3: held-out evaluation — a fresh program environment and seeds
	// never seen in training, the paper's cross-program scenario. The
	// campaign is acquired once and reused, so the same traces also gate the
	// template-store round trip below.
	classBatches, regBatches := heldOutCampaign(t, cfg)
	base := evalHeldOut(t, classBatches, regBatches, func(t *testing.T, traces [][]float64) []Decoded {
		return disassembleBothPaths(t, d, traces)
	})
	assertGateFloors(t, "in-memory", base)

	// Level 4: the schema-v4 store round trip. A v4 template, opened
	// header-only and lazily materialized, must classify the whole
	// held-out campaign byte-identically to the in-memory disassembler —
	// float64 sections round-trip bitwise, so any divergence is a store bug.
	dir := t.TempDir()
	v4Path := filepath.Join(dir, "gate.tpl")
	if err := d.SaveStoreFile(v4Path); err != nil {
		t.Fatal(err)
	}
	tpl, err := OpenTemplate(v4Path)
	if err != nil {
		t.Fatal(err)
	}
	defer tpl.Close()
	lazy, err := tpl.Disassembler()
	if err != nil {
		t.Fatal(err)
	}
	v4 := evalHeldOut(t, classBatches, regBatches, func(t *testing.T, traces [][]float64) []Decoded {
		decs, err := lazy.Disassemble(traces)
		if err != nil {
			t.Fatal(err)
		}
		return decs
	})
	for bi := range base.decodes {
		for i := range base.decodes[bi] {
			if v4.decodes[bi][i] != base.decodes[bi][i] {
				t.Fatalf("batch %d trace %d: v4-lazy decoded %+v, in-memory %+v",
					bi, i, v4.decodes[bi][i], base.decodes[bi][i])
			}
		}
	}
}

// gateBatch is one held-out acquisition: the true stream and its traces.
type gateBatch struct {
	cl     avr.Class
	stream []avr.Instruction
	traces [][]float64
}

// heldOutCampaign acquires the cross-program evaluation streams in the exact
// rng order the gate has always used, so the synthesized traces (and thus
// the floors) are unchanged by the refactor that made them reusable.
func heldOutCampaign(t *testing.T, cfg TrainerConfig) (classBatches, regBatches []gateBatch) {
	t.Helper()
	camp, err := power.NewCampaign(cfg.Power, 0, 24601)
	if err != nil {
		t.Fatal(err)
	}
	prog := power.NewProgramEnv(cfg.Power, 24601, 11)
	rng := rand.New(rand.NewSource(7))
	for _, cl := range avr.AllClasses() {
		stream := make([]avr.Instruction, 4)
		for i := range stream {
			stream[i] = avr.RandomOperands(rng, cl)
		}
		traces, err := camp.AcquireSegments(rng, prog, stream)
		if err != nil {
			t.Fatal(err)
		}
		classBatches = append(classBatches, gateBatch{cl: cl, stream: stream, traces: traces})
	}
	// Register recovery on plain Rd/Rr two-operand classes.
	for _, cl := range []avr.Class{avr.OpADD, avr.OpAND, avr.OpEOR, avr.OpMOV} {
		stream := make([]avr.Instruction, 8)
		for i := range stream {
			stream[i] = avr.RandomOperands(rng, cl)
		}
		traces, err := camp.AcquireSegments(rng, prog, stream)
		if err != nil {
			t.Fatal(err)
		}
		regBatches = append(regBatches, gateBatch{cl: cl, stream: stream, traces: traces})
	}
	return classBatches, regBatches
}

// gateEval is one disassembler's held-out scorecard, with the raw decodes
// retained so store round-trip variants can be compared decode-for-decode.
type gateEval struct {
	groupSR, classSR, rdSR, rrSR float64
	rdTotal, rrTotal             int
	decodes                      [][]Decoded // class batches, then register batches
}

func evalHeldOut(t *testing.T, classBatches, regBatches []gateBatch, decode func(*testing.T, [][]float64) []Decoded) gateEval {
	t.Helper()
	var ev gateEval
	groupHit, classHit, total := 0, 0, 0
	for _, b := range classBatches {
		decs := decode(t, b.traces)
		ev.decodes = append(ev.decodes, decs)
		for _, dec := range decs {
			total++
			if dec.Group == b.cl.Group() {
				groupHit++
			}
			if avr.Canonical(avr.Instruction{Class: dec.Class, Rd: dec.Rd, Rr: dec.Rr}).Class ==
				avr.Canonical(avr.Instruction{Class: b.cl}).Class {
				classHit++
			}
		}
	}
	ev.groupSR = float64(groupHit) / float64(total)
	ev.classSR = float64(classHit) / float64(total)

	rdHit, rrHit := 0, 0
	for _, b := range regBatches {
		decs := decode(t, b.traces)
		ev.decodes = append(ev.decodes, decs)
		for i, dec := range decs {
			if dec.HasRd {
				ev.rdTotal++
				if dec.Rd == b.stream[i].Rd {
					rdHit++
				}
			}
			if dec.HasRr {
				ev.rrTotal++
				if dec.Rr == b.stream[i].Rr {
					rrHit++
				}
			}
		}
	}
	ev.rdSR = float64(rdHit) / float64(max(ev.rdTotal, 1))
	ev.rrSR = float64(rrHit) / float64(max(ev.rrTotal, 1))
	t.Logf("held-out: group=%.4f class=%.4f rd=%.4f (%d) rr=%.4f (%d) over %d traces",
		ev.groupSR, ev.classSR, ev.rdSR, ev.rdTotal, ev.rrSR, ev.rrTotal, total)
	return ev
}

func assertGateFloors(t *testing.T, label string, ev gateEval) {
	t.Helper()
	if ev.groupSR < gateGroupEvalFloor {
		t.Errorf("%s: held-out group SR %.4f below floor %.2f", label, ev.groupSR, gateGroupEvalFloor)
	}
	if ev.classSR < gateClassEvalFloor {
		t.Errorf("%s: held-out class SR %.4f below floor %.2f", label, ev.classSR, gateClassEvalFloor)
	}
	if ev.rdTotal == 0 || ev.rrTotal == 0 {
		t.Errorf("%s: register recovery never engaged on held-out register-bearing traces", label)
	}
	if ev.rdSR < gateRdEvalFloor {
		t.Errorf("%s: held-out Rd SR %.4f below floor %.2f", label, ev.rdSR, gateRdEvalFloor)
	}
	if ev.rrSR < gateRegEvalFloor {
		t.Errorf("%s: held-out Rr SR %.4f below floor %.2f", label, ev.rrSR, gateRegEvalFloor)
	}
}
