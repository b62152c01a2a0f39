package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/avr"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/store"
)

// The shared fixture trains a small disassembler once per test process and
// keeps it as v4 template bytes, plus a matched trace batch and its serial
// decode as the reference labels every handler response must reproduce
// bitwise.
var fx struct {
	once     sync.Once
	tpl      []byte
	traces   [][]float64
	want     []string
	traceLen int
	err      error
}

func fixtureConfig() core.TrainerConfig {
	cfg := core.DefaultTrainerConfig()
	cfg.Programs = 4
	cfg.TracesPerProgram = 20
	cfg.RegisterPrograms = 0
	cfg.RegisterTracesPerProgram = 0
	return cfg
}

var fixtureClasses = []avr.Class{avr.OpADC, avr.OpAND}

func fixture(t *testing.T) {
	t.Helper()
	fx.once.Do(func() {
		cfg := fixtureConfig()
		d, err := core.TrainSubset(cfg, fixtureClasses, false)
		if err != nil {
			fx.err = err
			return
		}
		var buf bytes.Buffer
		if err := d.SaveStore(&buf); err != nil {
			fx.err = err
			return
		}
		fx.tpl = buf.Bytes()
		fx.traceLen = d.TraceLen()

		camp, err := power.NewCampaign(cfg.Power, 0, 7117)
		if err != nil {
			fx.err = err
			return
		}
		rng := rand.New(rand.NewSource(41))
		prog := power.NewProgramEnv(cfg.Power, 7117, 5)
		var stream []avr.Instruction
		for _, cl := range fixtureClasses {
			for i := 0; i < 4; i++ {
				stream = append(stream, avr.RandomOperands(rng, cl))
			}
		}
		if fx.traces, err = camp.AcquireSegments(rng, prog, stream); err != nil {
			fx.err = err
			return
		}
		decs, err := d.Disassemble(fx.traces)
		if err != nil {
			fx.err = err
			return
		}
		for _, dec := range decs {
			fx.want = append(fx.want, dec.String())
		}
	})
	if fx.err != nil {
		t.Fatal(fx.err)
	}
}

// writeTemplate drops the fixture template bytes into dir under name.tpl.
func writeTemplate(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, name+TemplateExt)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// legacyGobTemplate is a gob stream of the shape older builds saved
// templates in (schemas v1–v3 began with the format version).
func legacyGobTemplate(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct{ Version int }{3}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reencodedTemplate materializes the fixture template, applies mutate
// and writes the state back.
func reencodedTemplate(t *testing.T, mutate func(*store.TemplateState)) []byte {
	t.Helper()
	fixture(t)
	f, err := store.OpenReaderAt(bytes.NewReader(fx.tpl), int64(len(fx.tpl)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Template()
	if err != nil {
		t.Fatal(err)
	}
	mutate(st)
	var buf bytes.Buffer
	if err := store.Write(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// levelPtrs lists every level slot of st: group, Rd, Rr, then the groups.
func levelPtrs(st *store.TemplateState) []*store.LevelState {
	levels := []*store.LevelState{&st.Group, &st.Rd, &st.Rr}
	for i := range st.Instr {
		levels = append(levels, &st.Instr[i])
	}
	return levels
}

// planeNormalizedTemplate rewrites the fixture template with the retired
// scalogram-plane NormMode on every per-trace-normalized level — the shape
// an old CSA template converted to v4 has.
func planeNormalizedTemplate(t *testing.T) []byte {
	t.Helper()
	return reencodedTemplate(t, func(st *store.TemplateState) {
		for _, ls := range levelPtrs(st) {
			if ls.Present && ls.Pipe.Cfg.PerTraceNorm {
				ls.Pipe.Cfg.NormMode = 0
			}
		}
	})
}

// baselineFreeTemplate rewrites the fixture template without its drift
// baselines: a different valid state of another size that decodes the same
// labels.
func baselineFreeTemplate(t *testing.T) []byte {
	t.Helper()
	return reencodedTemplate(t, func(st *store.TemplateState) {
		for _, ls := range levelPtrs(st) {
			if ls.Present {
				ls.Pipe.Baseline = nil
			}
		}
	})
}

// quantizedTemplate is the fixture template with its flags word set to 1,
// how older builds marked a float32-quantized file.
func quantizedTemplate(t *testing.T) []byte {
	t.Helper()
	fixture(t)
	b := append([]byte(nil), fx.tpl...)
	binary.LittleEndian.PutUint32(b[8:12], 1)
	return b
}

// newTestRegistry builds a registry over a fresh temp dir holding the
// current fixture template as "demo".
func newTestRegistry(t *testing.T, cfg RegistryConfig) (*Registry, string) {
	t.Helper()
	fixture(t)
	dir := t.TempDir()
	writeTemplate(t, dir, "demo", fx.tpl)
	reg, err := NewRegistry(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return reg, dir
}
