package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dsp"
	"repro/internal/features"
	"repro/internal/linalg"
	"repro/internal/ml"
	"repro/internal/stats"
	"repro/internal/testkit"
)

// tinyState builds a hand-sized template state that exercises every section
// family the format defines: a PCA basis per level, one classifier of each
// matrix-bearing family (LDA, QDA, kNN, SVM), and a sparse kernel table.
// The values are thirds and sevenths, so a bitwise round trip checks every
// mantissa bit.
func tinyState() *TemplateState {
	vals := func(n int, seed float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = (seed + float64(i)) / 3 * (1 + seed/7)
		}
		return out
	}
	mat := func(r, c int, seed float64) *linalg.Matrix {
		return &linalg.Matrix{Rows: r, Cols: c, Data: vals(r*c, seed)}
	}
	rows := func(r, c int, seed float64) [][]float64 {
		out := make([][]float64, r)
		for i := range out {
			out[i] = vals(c, seed+float64(i))
		}
		return out
	}
	pipe := func(seed float64) *features.PipelineState {
		return &features.PipelineState{
			TraceLen: 16,
			Points:   []features.Point{{Scale: 0, Time: 1}, {Scale: 1, Time: 2}},
			Z:        &stats.ZScoreNormalizer{Means: vals(3, seed+0.125), Stds: vals(3, seed+0.375)},
			PCA: &features.PCA{
				Mean:       vals(3, seed),
				Components: mat(2, 3, seed+0.5),
				EigVals:    vals(2, seed+0.75),
			},
		}
	}
	st := &TemplateState{HaveRegs: true}
	st.Group = LevelState{
		Present: true,
		Pipe:    pipe(1),
		Clf: &ml.ClassifierState{LDA: &ml.LDAState{
			Means:        rows(2, 2, 2),
			PooledFactor: mat(2, 2, 3),
			Priors:       []float64{0.5, 0.5},
		}},
		Sparse: &dsp.SparseTable{
			N:     16,
			Cells: []dsp.Cell{{Scale: 0, Time: 1}, {Scale: 1, Time: 2}},
			Lo:    []int{0, 1},
			Off:   []int{0, 3, 5},
			Re:    vals(5, 4),
			Im:    vals(5, 5),
		},
	}
	st.Instr[0] = LevelState{
		Present: true,
		Pipe:    pipe(6),
		Clf: &ml.ClassifierState{QDA: &ml.QDAState{
			Means:   rows(2, 2, 7),
			Factors: []*linalg.Matrix{mat(2, 2, 8), mat(2, 2, 9)},
			Priors:  []float64{0.25, 0.75},
		}},
	}
	st.Instr[1] = LevelState{
		Present: true,
		Pipe:    pipe(10),
		Clf: &ml.ClassifierState{KNN: &ml.KNNState{
			K: 1, X: rows(3, 2, 11), Labels: []int{0, 1, 0},
		}},
	}
	st.Rd = LevelState{
		Present: true,
		Pipe:    pipe(12),
		Clf: &ml.ClassifierState{SVM: &ml.SVMState{
			C: 1, Kernel: ml.SVMKernelState{Kind: "linear"},
			Machines: []ml.BinarySVMState{{
				Alphas: vals(2, 13), SVs: rows(2, 2, 14), SVYs: []float64{1, -1}, Bias: 0.25,
			}},
			Pairs: [][2]int{{0, 1}}, Classes: 2, Dim: 2,
		}},
	}
	return st
}

// otherState is a valid state of another size than tinyState (its kNN level
// is absent): the replacement the tests that rewrite a file write, so the
// new bytes match neither the old directory nor the old length.
func otherState() *TemplateState {
	st := tinyState()
	st.Instr[1] = LevelState{}
	return st
}

// expectedPayloads enumerates the tiny state's section payloads by name:
// float values for matrix sections, raw gob bytes for the per-level aux
// blobs.
func expectedPayloads(t testing.TB, st *TemplateState) (map[string][]float64, map[string][]byte) {
	t.Helper()
	_, secs, err := collect(st)
	if err != nil {
		t.Fatal(err)
	}
	floats := make(map[string][]float64, len(secs))
	raws := make(map[string][]byte)
	for _, s := range secs {
		if s.raw != nil {
			raws[s.info.Name] = s.raw
		} else {
			floats[s.info.Name] = s.data
		}
	}
	return floats, raws
}

func writeBytes(t testing.TB, st *TemplateState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func openBytes(t testing.TB, b []byte) *File {
	t.Helper()
	f, err := OpenReaderAt(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// rewriteHeader decodes a valid file's header, applies mutate, and reassembles
// the file with a recomputed header CRC and the original payload bytes —
// the test path for crafting directories that Write would refuse to emit.
func rewriteHeader(t testing.TB, file []byte, mutate func(h *fileHeader)) []byte {
	t.Helper()
	hlen := int64(binary.LittleEndian.Uint32(file[12:16]))
	var hdr fileHeader
	if err := gob.NewDecoder(bytes.NewReader(file[preludeLen : preludeLen+hlen])).Decode(&hdr); err != nil {
		t.Fatal(err)
	}
	mutate(&hdr)
	var hbuf bytes.Buffer
	if err := gob.NewEncoder(&hbuf).Encode(&hdr); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 0, preludeLen+hbuf.Len()+len(file)-int(preludeLen+hlen))
	out = append(out, file[:preludeLen]...)
	binary.LittleEndian.PutUint32(out[12:16], uint32(hbuf.Len()))
	binary.LittleEndian.PutUint32(out[16:20], crc32.Checksum(hbuf.Bytes(), castagnoli))
	out = append(out, hbuf.Bytes()...)
	out = append(out, file[preludeLen+hlen:]...)
	return out
}

// TestRoundTripBitwiseAnySectionOrder is the core format property: a float64
// save → open → materialize returns every payload bit-for-bit, regardless of
// the order sections were laid out in the payload region.
func TestRoundTripBitwiseAnySectionOrder(t *testing.T) {
	st := tinyState()
	want, wantAux := expectedPayloads(t, st)
	testkit.Check(t, testkit.CheckConfig{Runs: 25}, func(g *testkit.G) error {
		testShuffleSections = func(secs []section) {
			g.Rng.Shuffle(len(secs), func(i, j int) { secs[i], secs[j] = secs[j], secs[i] })
		}
		defer func() { testShuffleSections = nil }()
		b := writeBytes(t, st)
		f, err := OpenReaderAt(bytes.NewReader(b), int64(len(b)))
		if err != nil {
			return err
		}
		defer f.Close()
		if got := len(f.Sections()); got != len(want)+len(wantAux) {
			return fmt.Errorf("directory holds %d sections, want %d", got, len(want)+len(wantAux))
		}
		for name, wv := range want {
			got, err := f.LoadSection(name)
			if err != nil {
				return err
			}
			if len(got) != len(wv) {
				return fmt.Errorf("section %q decoded %d values, want %d", name, len(got), len(wv))
			}
			for i := range wv {
				if math.Float64bits(got[i]) != math.Float64bits(wv[i]) {
					return fmt.Errorf("section %q value %d = %v, want bitwise %v", name, i, got[i], wv[i])
				}
			}
		}
		for name, wb := range wantAux {
			got, err := f.LoadSectionBytes(name)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, wb) {
				return fmt.Errorf("aux section %q round-tripped to different bytes", name)
			}
		}
		// Materialize the whole state and spot-check reattachment routed the
		// payloads — matrix and aux structure alike — to the right slots.
		mst, err := f.Template()
		if err != nil {
			return err
		}
		if got := mst.Group.Pipe.PCA.Components.Data; !bitsEqual(got, want["group/pca"]) {
			return errors.New("materialized group PCA basis differs from the saved payload")
		}
		if got := mst.Group.Sparse.Im; !bitsEqual(got, want["group/cwt.im"]) {
			return errors.New("materialized kernel table differs from the saved payload")
		}
		if got := mst.Rd.Clf.SVM.Machines[0].SVs; len(got) != 2 || !bitsEqual(append(append([]float64{}, got[0]...), got[1]...), want["rd/clf/svm.0.sv"]) {
			return errors.New("materialized SVM support vectors differ from the saved payload")
		}
		// Aux-carried structure comes back exactly.
		gp, op := mst.Group.Pipe, st.Group.Pipe
		if len(gp.Points) != len(op.Points) || gp.Points[1] != op.Points[1] {
			return errors.New("materialized selected points differ from the saved state")
		}
		if gp.Z == nil || !bitsEqual(gp.Z.Means, op.Z.Means) || !bitsEqual(gp.Z.Stds, op.Z.Stds) {
			return errors.New("materialized z-score moments differ from the saved state")
		}
		if !bitsEqual(gp.PCA.Mean, op.PCA.Mean) || !bitsEqual(gp.PCA.EigVals, op.PCA.EigVals) {
			return errors.New("materialized PCA mean/eigenvalues differ from the saved state")
		}
		gs, ws := mst.Group.Sparse, st.Group.Sparse
		if len(gs.Cells) != len(ws.Cells) || gs.Cells[1] != ws.Cells[1] ||
			len(gs.Lo) != len(ws.Lo) || gs.Lo[1] != ws.Lo[1] ||
			len(gs.Off) != len(ws.Off) || gs.Off[2] != ws.Off[2] {
			return errors.New("materialized kernel structure differs from the saved state")
		}
		// And the eager header really is stripped of the bulk.
		hs := f.HeaderState()
		if hs.Group.Pipe.Points != nil || hs.Group.Pipe.Z != nil || hs.Group.Pipe.PCA.Mean != nil {
			return errors.New("header state still carries aux-destined structure")
		}
		if hs.Group.Clf != nil || hs.Rd.Clf != nil {
			return errors.New("header state still carries classifier snapshots")
		}
		if hs.Group.Sparse.Cells != nil {
			return errors.New("header state still carries kernel cell structure")
		}
		return nil
	})
}

func bitsEqual(a, b []float64) bool {
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

// TestOpenRejectsCraftedDirectories covers the Open-time directory screen:
// each hand-mutated header must be rejected with ErrFormat before any
// payload is touched.
func TestOpenRejectsCraftedDirectories(t *testing.T) {
	valid := writeBytes(t, tinyState())
	cases := []struct {
		name   string
		mutate func(h *fileHeader)
	}{
		{"section past EOF", func(h *fileHeader) { h.Sections[0].Offset = 1 << 40 }},
		{"negative offset", func(h *fileHeader) { h.Sections[0].Offset = -8 }},
		{"impossible shape", func(h *fileHeader) { h.Sections[0].Rows = maxDim + 1 }},
		{"negative rows", func(h *fileHeader) { h.Sections[0].Rows = -1 }},
		{"overflowing product", func(h *fileHeader) { h.Sections[0].Rows = maxDim; h.Sections[0].Cols = maxDim }},
		{"duplicate name", func(h *fileHeader) { h.Sections[1].Name = h.Sections[0].Name }},
		{"unroutable name", func(h *fileHeader) { h.Sections[0].Name = "group/clfx" }},
		{"absent level", func(h *fileHeader) { h.Sections[0].Name = "rr/pca" }},
		{"kernel on table-less level", func(h *fileHeader) { h.Sections[0].Name = "g1/cwt.re" }},
		{"encoding disagrees with flags", func(h *fileHeader) { h.Sections[0].Encoding = 1 }}, // the retired float32 encoding
		{"matrix claiming raw encoding", func(h *fileHeader) { h.Sections[0].Encoding = EncRaw }},
		{"aux claiming float encoding", func(h *fileHeader) {
			for i := range h.Sections {
				if h.Sections[i].Name == "group/aux" {
					h.Sections[i].Encoding = EncFloat64
				}
			}
		}},
		{"wrong schema", func(h *fileHeader) { h.Schema = Version + 1 }},
		{"missing state", func(h *fileHeader) { h.State = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := rewriteHeader(t, valid, tc.mutate)
			_, err := OpenReaderAt(bytes.NewReader(b), int64(len(b)))
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("crafted directory (%s) opened with err=%v, want ErrFormat", tc.name, err)
			}
		})
	}
}

// TestOpenRejectsBadPrelude covers the fixed-size region's own screen.
func TestOpenRejectsBadPrelude(t *testing.T) {
	valid := writeBytes(t, tinyState())
	flip := func(b []byte, i int) []byte {
		out := append([]byte(nil), b...)
		out[i] ^= 0x40
		return out
	}
	cases := map[string][]byte{
		"empty":            {},
		"short prelude":    valid[:preludeLen-1],
		"bad magic":        flip(valid, 0),
		"future version":   flip(valid, 4),
		"header truncated": valid[:preludeLen+5],
		"header bit flip":  flip(valid, preludeLen+3),
		"header CRC flip":  flip(valid, 17),
		"huge header len":  flip(valid, 15),
	}
	for name, b := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := OpenReaderAt(bytes.NewReader(b), int64(len(b))); !errors.Is(err, ErrFormat) {
				t.Fatalf("open returned %v, want ErrFormat", err)
			}
		})
	}
	// The future-version message should tell the operator to upgrade, not
	// just reject.
	_, err := OpenReaderAt(bytes.NewReader(flip(valid, 4)), int64(len(valid)))
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("upgrade")) {
		t.Fatalf("future-version rejection %v does not point at upgrading", err)
	}
}

// TestOpensAuxWithPairTables pins that a v4 file written before the per-pair
// KL tables left the format still materializes: its aux blobs carry Pairs
// and PairIdx, which gob skips because levelAux no longer has them. The
// writer's section hook swaps the group level's aux blob for one of that
// older shape before offsets and CRCs are assigned.
func TestOpensAuxWithPairTables(t *testing.T) {
	type olderAux struct {
		Points          []features.Point
		Pairs           []features.PairFeatures
		PairIdx         [][]int
		Z               *stats.ZScoreNormalizer
		PCAMean, PCAEig []float64
		Clf             *ml.ClassifierState
		Cells           []dsp.Cell
		Lo, Off         []int
	}
	plain := writeBytes(t, tinyState())
	want, err := openBytes(t, plain).Template()
	if err != nil {
		t.Fatal(err)
	}
	testShuffleSections = func(secs []section) {
		for i := range secs {
			if secs[i].info.Name != "group/aux" {
				continue
			}
			var aux levelAux
			if err := gob.NewDecoder(bytes.NewReader(secs[i].raw)).Decode(&aux); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(olderAux{
				Points: aux.Points,
				Pairs: []features.PairFeatures{{
					A: 0, B: 1, Points: aux.Points[:1], KL: []float64{0.5},
				}},
				PairIdx: [][]int{{0}},
				Z:       aux.Z, PCAMean: aux.PCAMean, PCAEig: aux.PCAEig,
				Clf: aux.Clf, Cells: aux.Cells, Lo: aux.Lo, Off: aux.Off,
			}); err != nil {
				t.Fatal(err)
			}
			secs[i].raw, secs[i].info.Cols = buf.Bytes(), buf.Len()
		}
	}
	defer func() { testShuffleSections = nil }()
	older := writeBytes(t, tinyState())
	if len(older) <= len(plain) {
		t.Fatal("the section hook did not swap in the older aux blob")
	}
	got, err := openBytes(t, older).Template()
	if err != nil {
		t.Fatalf("a file whose aux carries pair tables no longer materializes: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a file whose aux carries pair tables materializes to a different state")
	}
}

// withFlags returns a copy of a file with its prelude flags word set. The
// header CRC does not cover the prelude, so the rest stays valid.
func withFlags(b []byte, flags uint32) []byte {
	out := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(out[8:12], flags)
	return out
}

// TestOpenRefusesFlags pins that the flags word must be 0: bit 0, which
// marked the retired float32 encoding, is refused with a message that says
// so, and a bit no build ever defined is refused too.
func TestOpenRefusesFlags(t *testing.T) {
	valid := writeBytes(t, tinyState())
	for _, tc := range []struct {
		flags uint32
		want  string
	}{
		{1, "quantized"},
		{2, "defines no flags"},
	} {
		b := withFlags(valid, tc.flags)
		f, err := OpenReaderAt(bytes.NewReader(b), int64(len(b)))
		if f != nil || !errors.Is(err, ErrFormat) {
			t.Fatalf("flags %#x: OpenReaderAt returned (%v, %v), want (nil, ErrFormat)", tc.flags, f, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("flags %#x: error %q does not mention %q", tc.flags, err, tc.want)
		}
	}
}

// TestIncompleteDirectoryCannotMaterialize drops one directory entry at a
// time from a valid file: Open still succeeds (the header is coherent), but
// Template must refuse — a template classifies with all of its payloads or
// with none of them.
func TestIncompleteDirectoryCannotMaterialize(t *testing.T) {
	valid := writeBytes(t, tinyState())
	ref := openBytes(t, valid)
	for _, drop := range ref.Sections() {
		t.Run(drop.Name, func(t *testing.T) {
			b := rewriteHeader(t, valid, func(h *fileHeader) {
				keep := h.Sections[:0]
				for _, s := range h.Sections {
					if s.Name != drop.Name {
						keep = append(keep, s)
					}
				}
				h.Sections = keep
			})
			f, err := OpenReaderAt(bytes.NewReader(b), int64(len(b)))
			if err != nil {
				t.Fatalf("dropping %q should leave a coherent header, got %v", drop.Name, err)
			}
			defer f.Close()
			if _, err := f.Template(); !errors.Is(err, ErrFormat) {
				t.Fatalf("materialized without section %q (err=%v)", drop.Name, err)
			}
		})
	}
}

// TestWriterRejectsDefectiveStates pins the writer-side screens.
func TestWriterRejectsDefectiveStates(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil); err == nil {
		t.Fatal("nil state accepted")
	}
	st := tinyState()
	st.Instr[2] = LevelState{Present: true} // present without pipe/clf
	if err := Write(&buf, st); err == nil {
		t.Fatal("present level without snapshots accepted")
	}
	st = tinyState()
	st.Group.Pipe.PCA.Components.Rows = 7 // shape no longer matches the data
	if err := Write(&buf, st); err == nil {
		t.Fatal("misshapen section accepted")
	}
	st = tinyState()
	st.Rd.Pipe.Points = nil // not a fitted pipeline: nothing was selected
	if err := Write(&buf, st); err == nil {
		t.Fatal("pipeline without selected points accepted")
	}
}

// TestWriteFileReplacesAtomically pins the replace-while-open contract: a
// handle opened before WriteFile rewrites the same path (here with a
// smaller state) still materializes the file it opened, while a fresh Open
// sees the new one. A failed write leaves the target
// untouched, and no attempt leaves a temporary file behind.
func TestWriteFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "demo.tpl")
	if err := WriteFile(path, tinyState()); err != nil {
		t.Fatal(err)
	}
	old, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if err := WriteFile(path, otherState()); err != nil {
		t.Fatal(err)
	}
	st, err := old.Template()
	if err != nil {
		t.Fatalf("handle opened before the rewrite cannot materialize: %v", err)
	}
	want := tinyState()
	if got := st.Group.Pipe.PCA.Components.Data; !slices.Equal(got, want.Group.Pipe.PCA.Components.Data) {
		t.Fatalf("old handle reads %v, want the original float64 basis", got)
	}
	cur, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if cur.HeaderState().Instr[1].Present {
		t.Fatal("fresh Open does not see the replacement")
	}
	cur.Close()

	bad := tinyState()
	bad.Instr[2] = LevelState{Present: true}
	if err := WriteFile(path, bad); err == nil {
		t.Fatal("defective state written")
	}
	if err := WriteFile(filepath.Join(dir, "missing", "x.tpl"), tinyState()); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	if cur, err = Open(path); err != nil || cur.HeaderState().Instr[1].Present {
		t.Fatalf("failed write disturbed the target: %v", err)
	}
	cur.Close()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "demo.tpl" {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want only demo.tpl", names)
	}
}

// TestWriteDoesNotMutateState guards the aliasing contract: Write strips
// copies, never the caller's live state.
func TestWriteDoesNotMutateState(t *testing.T) {
	st := tinyState()
	writeBytes(t, st)
	if st.Group.Pipe.PCA.Components.Data == nil {
		t.Fatal("Write stripped the caller's pipeline state")
	}
	if st.Group.Clf.LDA.PooledFactor.Data == nil {
		t.Fatal("Write stripped the caller's classifier state")
	}
	if st.Group.Sparse.Re == nil {
		t.Fatal("Write stripped the caller's kernel table")
	}
	if st.Group.Pipe.Points == nil || st.Group.Pipe.Z == nil ||
		st.Group.Pipe.PCA.Mean == nil || st.Group.Pipe.PCA.EigVals == nil {
		t.Fatal("Write stripped the caller's aux-destined selection structure")
	}
	if st.Group.Sparse.Cells == nil || st.Group.Sparse.Lo == nil || st.Group.Sparse.Off == nil {
		t.Fatal("Write stripped the caller's kernel cell structure")
	}
}

// TestClosedFileRefusesLoads pins the close semantics: loads and
// materialization fail cleanly after Close, and Close is idempotent.
func TestClosedFileRefusesLoads(t *testing.T) {
	b := writeBytes(t, tinyState())
	f, err := OpenReaderAt(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.LoadSection("group/pca"); err != nil {
		t.Fatal(err)
	}
	if f.ResidentBytes() == 0 {
		t.Fatal("resident bytes not accounted after a load")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal("second Close not idempotent:", err)
	}
	if _, err := f.LoadSection("group/pca"); err == nil {
		t.Fatal("LoadSection succeeded on a closed file")
	}
	if _, err := f.Template(); err == nil {
		t.Fatal("Template succeeded on a closed file")
	}
}

// TestTruncatedMappingFailsClosed pins what happens when an opened template
// is truncated on disk (an in-place cp over a served file) before its
// sections are read: the section reads come up short, which must surface as
// a SectionError wrapping ErrFormat that names the truncation, not kill the
// process or hand out a partial state. The handle stays usable for shape
// questions, and a later read fails the same way.
func TestTruncatedMappingFailsClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "demo.tpl")
	if err := WriteFile(path, tinyState()); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	before := met.sectionErrors.Value()
	for i := 0; i < 2; i++ {
		_, err := f.Template()
		var se *SectionError
		if !errors.As(err, &se) || !errors.Is(err, ErrFormat) {
			t.Fatalf("materializing a truncated file: error %v, want a SectionError wrapping ErrFormat", err)
		}
		if !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("error %q does not report the truncation", err)
		}
	}
	if _, err := f.LoadSection("group/pca"); !errors.Is(err, ErrFormat) {
		t.Fatalf("LoadSection on a truncated file: %v, want ErrFormat", err)
	}
	if f.HeaderState().Group.Pipe == nil {
		t.Fatal("header state lost after a failed read")
	}
	if got := met.sectionErrors.Value() - before; got != 3 {
		t.Fatalf("store.sections.errors rose by %d over three short reads, want 3", got)
	}
}

// TestRewrittenFileFailsClosed overwrites an opened template in place —
// same path, same inode, as cp does — with a different, smaller valid
// state. The handle still reads at the old directory's offsets, so
// materializing must fail closed with a SectionError wrapping ErrFormat
// (a CRC mismatch or a short read), never return state decoded from the
// new bytes.
func TestRewrittenFileFailsClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "demo.tpl")
	if err := WriteFile(path, tinyState()); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := os.WriteFile(path, writeBytes(t, otherState()), 0o644); err != nil {
		t.Fatal(err)
	}
	before := met.sectionErrors.Value()
	_, err = f.Template()
	var se *SectionError
	if !errors.As(err, &se) || !errors.Is(err, ErrFormat) {
		t.Fatalf("materializing a file rewritten in place: error %v, want a SectionError wrapping ErrFormat", err)
	}
	if got := met.sectionErrors.Value() - before; got != 1 {
		t.Fatalf("store.sections.errors rose by %d, want 1", got)
	}
}

// TestLargeSectionsStreamConcurrently materializes a file whose kernel
// sections span several read chunks and end mid-chunk, from several
// goroutines at once on one opened file. Every load must decode each value
// bitwise, however the chunk boundaries fall.
func TestLargeSectionsStreamConcurrently(t *testing.T) {
	st := tinyState()
	want := make([]float64, 3*chunkLen/4+5) // 6 chunks + 40 bytes
	for i := range want {
		want[i] = float64(i+1) / 3
	}
	st.Group.Sparse.Re = want
	path := filepath.Join(t.TempDir(), "big.tpl")
	if err := WriteFile(path, st); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	check := func(got []float64) error {
		if len(got) != len(want) {
			return fmt.Errorf("decoded %d values, want %d", len(got), len(want))
		}
		for i, v := range want {
			if math.Float64bits(got[i]) != math.Float64bits(v) {
				return fmt.Errorf("value %d = %v, want bitwise %v", i, got[i], v)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mst, err := f.Template()
			if err == nil {
				err = check(mst.Group.Sparse.Re)
			}
			if err == nil {
				var got []float64
				if got, err = f.LoadSection("group/cwt.re"); err == nil {
					err = check(got)
				}
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// eofAtEnd is an io.ReaderAt that returns io.EOF together with a full read
// reaching the end of its data, as the io.ReaderAt contract allows.
type eofAtEnd struct{ *bytes.Reader }

func (r eofAtEnd) ReadAt(p []byte, off int64) (int, error) {
	n, err := r.Reader.ReadAt(p, off)
	if err == nil && off+int64(n) == r.Size() {
		err = io.EOF
	}
	return n, err
}

// TestFullReadAtEOFSucceeds pins that a read which fills its buffer is a
// success even when the reader reports io.EOF with it: the last section of
// a file ends at the end of the input.
func TestFullReadAtEOFSucceeds(t *testing.T) {
	b := writeBytes(t, tinyState())
	f, err := OpenReaderAt(eofAtEnd{bytes.NewReader(b)}, int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Template(); err != nil {
		t.Fatalf("materializing through a reader that reports EOF at the end: %v", err)
	}
}

// LoadSection reads, CRC-checks and decodes one matrix section. Corruption
// is reported as a SectionError naming the section (wrapping ErrFormat);
// other sections of the same file remain loadable. Aux sections hold gob
// blobs, not floats — load those with LoadSectionBytes. The template
// loader reads matrices through loadFloats directly; only these tests load
// a section by name.
func (f *File) LoadSection(name string) ([]float64, error) {
	info, err := f.section(name)
	if err != nil {
		return nil, err
	}
	return f.loadFloats(info, make([]byte, min(chunkLen, info.byteLen())))
}
