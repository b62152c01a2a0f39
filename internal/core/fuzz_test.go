package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/avr"
	"repro/internal/dsp"
	"repro/internal/parallel"
	"repro/internal/store"
	"repro/internal/testkit"
)

// stateBytes writes a hand-built template state as a v4 file, letting the
// seeds cover structurally valid files (no group level, poisoned class
// table) without the cost of training a real template set.
func stateBytes(t testing.TB, st *store.TemplateState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := store.Write(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// craftedSeeds are the cheap FuzzLoad seeds, built without training: empty
// and garbage input, a legacy gob stream, a bare v4 file at the current and
// at a future schema, a poisoned class table, and a truncation.
func craftedSeeds(t testing.TB) [][]byte {
	bare := stateBytes(t, &store.TemplateState{})
	var poisoned store.TemplateState
	poisoned.InstrClass[0] = []avr.Class{avr.Class(255)}
	whole := stateBytes(t, &store.TemplateState{HaveRegs: true})
	return [][]byte{
		{},
		[]byte("not a gob stream"),
		legacyGobStream(t),
		bare,
		withSchema(bare, store.Version+1),
		stateBytes(t, &poisoned),
		whole[:len(whole)/2],
	}
}

// tinyTrained trains the smallest template set that still exercises every
// restore stage (z-score, PCA, QDA, kernel tables) — a narrow wavelet bank
// keeps the kernel tables short — and saves it: a structurally real file at
// committable size.
func tinyTrained(t *testing.T) []byte {
	cfg := smallConfig()
	cfg.Programs = 2
	cfg.TracesPerProgram = 6
	cfg.Pipeline.NumComponents = 2
	cfg.Pipeline.TopPerPair = 1
	cfg.Pipeline.Bank = dsp.BankConfig{NumScales: 6, MinScale: 2, MaxScale: 6}
	d, err := TrainSubset(cfg, []avr.Class{avr.OpADD, avr.OpAND}, false)
	if err != nil {
		t.Fatal(err)
	}
	return saveBytes(t, d)
}

// strippedTrained keeps a trained file's header and section directory but
// cuts off every section payload: the real structure with no matrices.
func strippedTrained(t testing.TB, b []byte) []byte {
	t.Helper()
	f, err := store.OpenReaderAt(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	return b[:f.PayloadOffset()]
}

// TestFuzzCorpusCommitted regenerates the committed seed corpus under
// testdata/fuzz when REGEN_FUZZ_CORPUS is set, and otherwise asserts it is
// present. Beyond the crafted seeds the corpus carries a small trained v4
// template and variants of it the fuzzer could not construct: a poisoned
// class table, a plane-normalized level, a truncation and the stripped
// header.
func TestFuzzCorpusCommitted(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") != "" {
		trained := tinyTrained(t)
		seeds := map[string][]byte{
			"empty":                {},
			"not_gob":              []byte("not a gob stream"),
			"gob_v3":               legacyGobStream(t),
			"bare_current_version": stateBytes(t, &store.TemplateState{}),
			"future_version":       withSchema(stateBytes(t, &store.TemplateState{}), store.Version+1),
			"trained_v4":           trained,
			"poisoned_class_table": rewriteState(t, trained, func(st *store.TemplateState) {
				st.InstrClass[0] = []avr.Class{avr.Class(255)}
			}),
			"plane_normalized":       rewriteState(t, trained, planeNormalized),
			"truncated":              trained[:len(trained)/2],
			"stripped_trained_state": strippedTrained(t, trained),
		}
		for name, b := range seeds {
			testkit.WriteCorpus(t, "FuzzLoad", name, b)
		}
		return
	}
	ents, err := os.ReadDir(filepath.Join("testdata", "fuzz", "FuzzLoad"))
	if err != nil || len(ents) == 0 {
		t.Errorf("no committed seed corpus for FuzzLoad (REGEN_FUZZ_CORPUS=1 to create): %v", err)
	}
}

// TestStrippedTrainedSeedRejectedCleanly pins the stripped seed's contract in
// unit form (the fuzz engine only exercises it under -fuzz): Load must
// reject a real header whose sections are gone with ErrTemplateFormat.
func TestStrippedTrainedSeedRejectedCleanly(t *testing.T) {
	d, _ := sharedFixture(t)
	b := strippedTrained(t, saveBytes(t, d))
	got, err := Load(bytes.NewReader(b))
	if got != nil || !errors.Is(err, ErrTemplateFormat) {
		t.Fatalf("stripped trained state: Load returned (%v, %v), want (nil, ErrTemplateFormat)", got, err)
	}
}

// FuzzLoad drives template loading with arbitrary bytes: the store's
// screens and, past them, the core restore layer FuzzStoreOpen stops short
// of — the class-table screen, the NormMode screen, PipelineFromState,
// RestoreClassifier and InstallSparseTable. The contract: Load never
// panics, never returns a non-nil Disassembler together with an error, and
// classifies every rejection under ErrTemplateFormat (I/O errors are
// impossible from a bytes.Reader); an accepted template decodes a single
// trace and a paired batch without panicking.
func FuzzLoad(f *testing.F) {
	for _, b := range craftedSeeds(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Load(bytes.NewReader(data))
		if err == nil {
			if d == nil {
				t.Fatal("Load returned nil, nil")
			}
			// Anything Load accepts must be decode-ready: every call must
			// return a verdict or an error, never panic. The probes are
			// capped so a fuzzed header cannot demand a huge trace. Three
			// distinct traces at two workers walk as one pair and one lone
			// lane, so the fuzzed template reaches the paired walk as well
			// as the single-trace one.
			n := min(d.TraceLen(), 1<<12)
			traces := make([][]float64, 3)
			for k := range traces {
				traces[k] = make([]float64, n)
				for i := range traces[k] {
					traces[k][i] = float64(i % (7 - 2*k))
				}
			}
			_, _ = d.Classify(traces[0])
			parallel.SetWorkers(2)
			t.Cleanup(func() { parallel.SetWorkers(0) })
			_, _ = d.DisassembleScoredCtx(context.Background(), traces)
			return
		}
		if d != nil {
			t.Fatalf("Load returned a partially initialized Disassembler with error %v", err)
		}
		if !errors.Is(err, ErrTemplateFormat) {
			t.Fatalf("rejection outside ErrTemplateFormat: %v", err)
		}
	})
}

// TestSaveLoadFuzzSeedRoundTrip keeps the fuzz surface honest against the
// real format: a trained template set survives SaveStore → Load and the
// loaded copy decodes traces identically to the original.
func TestSaveLoadFuzzSeedRoundTrip(t *testing.T) {
	d, traces := sharedFixture(t)
	b := saveBytes(t, d)
	back, err := Load(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("loaded disassembler decode %d = %+v, original %+v", i, got[i], want[i])
		}
	}
	// Every truncation of a real template file must be rejected cleanly —
	// the deep-structure analogue of the fuzz contract, on bytes the fuzzer
	// would need many CPU-hours to construct.
	for _, frac := range []int{1, 2, 4, 8} {
		cut := len(b) * frac / 10
		if _, err := Load(bytes.NewReader(b[:cut])); !errors.Is(err, ErrTemplateFormat) {
			t.Fatalf("truncation at %d/%d bytes: got %v, want ErrTemplateFormat", cut, len(b), err)
		}
	}
}
