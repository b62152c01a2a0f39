package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/avr"
	"repro/internal/features"
	"repro/internal/power"
	"repro/internal/store"
)

// saveBytes writes d as an in-memory v4 template file.
func saveBytes(t testing.TB, d *Disassembler) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.SaveStore(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rewriteState materializes a v4 file, lets mutate edit its state, and
// writes it back — how the tests build structurally valid files whose
// content a real save could never produce.
func rewriteState(t testing.TB, b []byte, mutate func(*store.TemplateState)) []byte {
	t.Helper()
	f, err := store.OpenReaderAt(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Template()
	if err != nil {
		t.Fatal(err)
	}
	mutate(st)
	var out bytes.Buffer
	if err := store.Write(&out, st); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// planeNormalized marks every per-trace-normalized level with the retired
// scalogram-plane NormMode — the shape an older build's conversion of an
// old CSA template produced.
func planeNormalized(st *store.TemplateState) {
	for _, ls := range levelPtrs(st) {
		if ls.Present && ls.Pipe.Cfg.PerTraceNorm {
			ls.Pipe.Cfg.NormMode = 0
		}
	}
}

// levelPtrs lists every level slot of st: group, Rd, Rr, then the groups.
func levelPtrs(st *store.TemplateState) []*store.LevelState {
	out := []*store.LevelState{&st.Group, &st.Rd, &st.Rr}
	for i := range st.Instr {
		out = append(out, &st.Instr[i])
	}
	return out
}

// legacyGobStream is a gob stream of the shape older builds saved templates
// in (schemas v1–v3 began with the format version).
func legacyGobStream(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct {
		Version  int
		HaveRegs bool
	}{Version: 3}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withSchema patches the prelude's schema version of a v4 file.
func withSchema(b []byte, v uint32) []byte {
	out := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(out[4:8], v)
	return out
}

// withFlags patches the prelude's flags word of a v4 file; flags 1 is how
// older builds marked a quantized (float32) template.
func withFlags(b []byte, flags uint32) []byte {
	out := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(out[8:12], flags)
	return out
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := smallConfig()
	classes := []avr.Class{avr.OpADC, avr.OpAND}
	d, err := TrainSubset(cfg, classes, false)
	if err != nil {
		t.Fatal(err)
	}
	b := saveBytes(t, d)
	if len(b) == 0 {
		t.Fatal("empty template file")
	}
	d2, err := Load(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	// Saved and restored disassemblers must classify identically.
	camp, err := power.NewCampaign(cfg.Power, 0, 55)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	prog := power.NewProgramEnv(cfg.Power, 55, 2)
	targets := make([]avr.Instruction, 30)
	for i := range targets {
		targets[i] = avr.RandomOperands(rng, classes[i%2])
	}
	traces, err := camp.AcquireTemplated(rng, prog, targets)
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := d2.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b2[i] {
			t.Fatalf("decode %d differs after reload: %+v vs %+v", i, a[i], b2[i])
		}
	}
}

func TestSaveUntrainedFails(t *testing.T) {
	var d Disassembler
	var buf bytes.Buffer
	if err := d.SaveStore(&buf); err == nil {
		t.Fatal("saving an untrained disassembler should fail")
	}
	path := filepath.Join(t.TempDir(), "untrained.tpl")
	if err := d.SaveStoreFile(path); err == nil {
		t.Fatal("saving an untrained disassembler to a file should fail")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("failed save left %s behind (stat err %v)", path, err)
	}
}

func TestLoadGarbageFails(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a template file"))); err == nil {
		t.Fatal("loading garbage should fail")
	}
}

// Fuzz-style robustness: no truncation or byte mutation of a valid template
// file may panic Load or leave it returning a partially usable Disassembler —
// every outcome is either a descriptive ErrTemplateFormat-wrapped error or a
// fully decodable template set.
func TestLoadMutatedTemplateBytes(t *testing.T) {
	cfg := smallConfig()
	d, err := TrainSubset(cfg, []avr.Class{avr.OpADC, avr.OpAND}, false)
	if err != nil {
		t.Fatal(err)
	}
	valid := saveBytes(t, d)
	trace := make([]float64, cfg.Power.TraceLen)
	for i := range trace {
		trace[i] = float64(i % 13)
	}

	tryLoad := func(t *testing.T, data []byte, label string) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: Load panicked: %v", label, r)
			}
		}()
		ld, err := Load(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrTemplateFormat) {
				t.Fatalf("%s: err = %v, want ErrTemplateFormat wrap", label, err)
			}
			return
		}
		// Decode happened to survive the mutation: the result must still be
		// fully usable downstream — classifying may fail with an error but
		// must never panic on a corrupted class table or factor.
		_, _ = ld.Classify(trace)
	}

	// Truncations at every 1/8th of the file, plus off-by-one edges.
	for _, frac := range []int{0, 1, 2, 3, 4, 5, 6, 7} {
		n := len(valid) * frac / 8
		tryLoad(t, valid[:n], "truncate")
	}
	tryLoad(t, valid[:len(valid)-1], "truncate-1")

	// Deterministic single-byte mutations scattered over the file.
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 64; i++ {
		mut := append([]byte(nil), valid...)
		pos := rng.Intn(len(mut))
		mut[pos] ^= byte(1 << rng.Intn(8))
		tryLoad(t, mut, "mutate")
	}

	// The untouched file still loads.
	if _, err := Load(bytes.NewReader(valid)); err != nil {
		t.Fatalf("pristine file failed to load: %v", err)
	}
}

func TestLoadRejectsFutureVersion(t *testing.T) {
	d, _ := sharedFixture(t)
	_, err := Load(bytes.NewReader(withSchema(saveBytes(t, d), store.Version+41)))
	if !errors.Is(err, ErrTemplateFormat) {
		t.Fatalf("err = %v, want ErrTemplateFormat", err)
	}
	if !strings.Contains(err.Error(), "newer") {
		t.Fatalf("future-version error %q should say the file is newer than this build", err)
	}
}

func TestLoadRejectsUndefinedClassTable(t *testing.T) {
	cfg := smallConfig()
	d, err := TrainSubset(cfg, []avr.Class{avr.OpADC, avr.OpAND}, false)
	if err != nil {
		t.Fatal(err)
	}
	mut := rewriteState(t, saveBytes(t, d), func(st *store.TemplateState) {
		st.InstrClass[0] = []avr.Class{avr.Class(250)}
	})
	_, err = Load(bytes.NewReader(mut))
	if !errors.Is(err, ErrTemplateFormat) {
		t.Fatalf("undefined class table err = %v, want ErrTemplateFormat", err)
	}
}

func TestLoadGarbageWrapsTemplateFormat(t *testing.T) {
	_, err := Load(bytes.NewReader([]byte{0x07, 0xff, 0x81, 0x00}))
	if !errors.Is(err, ErrTemplateFormat) {
		t.Fatalf("garbage err = %v, want ErrTemplateFormat", err)
	}
}

// TestLoadRefusesLegacyTemplates pins the fail-closed contract of the single
// template format: a gob file from an older build, a v4 file marked
// quantized and a v4 file carrying the retired scalogram-plane
// normalization are refused by every load path — Load, LoadFile and the
// header-only OpenTemplate — with ErrTemplateFormat, and the errors say why.
func TestLoadRefusesLegacyTemplates(t *testing.T) {
	d, _ := sharedFixture(t)
	saved := saveBytes(t, d)
	plane := rewriteState(t, saved, planeNormalized)
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"gob", legacyGobStream(t), "gob templates"},
		{"quantized", withFlags(saved, 1), "quantized"},
		{"plane", plane, "NormTrace"},
	} {
		path := filepath.Join(dir, tc.name+".tpl")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, loadErr := Load(bytes.NewReader(tc.data))
		_, fileErr := LoadFile(path)
		_, openErr := OpenTemplate(path)
		for what, err := range map[string]error{"Load": loadErr, "LoadFile": fileErr, "OpenTemplate": openErr} {
			if !errors.Is(err, ErrTemplateFormat) {
				t.Fatalf("%s of the %s template: err = %v, want ErrTemplateFormat", what, tc.name, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s of the %s template: error %q does not mention %q", what, tc.name, err, tc.want)
			}
		}
		if tc.name == "plane" && !errors.Is(loadErr, features.ErrNormMode) {
			t.Fatalf("plane-normalized Load error %v does not wrap features.ErrNormMode", loadErr)
		}
	}
}
