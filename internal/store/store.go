// Package store implements the flat, versioned, checksummed template
// container — schema v4, the only template format. Versions 1–3 were
// whole-file gob blobs; they are no longer read.
//
// Layout (all integers little-endian; see DESIGN §12 for the diagram):
//
//	[0:4)    magic "SCT4"
//	[4:8)    uint32 schema version (4)
//	[8:12)   uint32 flags, always 0 (bit 0 marked the retired float32
//	          encoding; any set bit is refused)
//	[12:16)  uint32 header length H
//	[16:20)  uint32 CRC-32C of the header bytes
//	[20:20+H) gob-encoded header: the stripped template state (configs,
//	          class tables, per-class vectors — everything genuinely
//	          small) plus the section directory
//	[20+H:)  section payloads, back to back, one CRC-32C each (recorded in
//	          the directory, checked on load)
//
// The header decodes eagerly at Open — cheap, and enough to answer shape
// questions (trace length, sparse capability) and serve /v1/templates. The
// big matrices (PCA bases, QDA Cholesky factors, SVM support vectors, kNN
// training sets, sparse-CWT kernel tables) are section-addressed and
// materialize lazily on the first decode, read through io.ReaderAt from the
// descriptor Open keeps. The bulky non-matrix structure — selected points,
// z-score moments, PCA mean and eigenvalues, the stripped classifier
// snapshot, kernel cell indices — rides in one raw-encoded "<level>/aux"
// gob section per level (see levelAux): it is reflection-heavy to decode,
// so keeping it out of the header is what makes Open cheap. Directory
// offsets are relative to the payload region start because gob encodes
// integers variable-length: absolute offsets would change the header's own
// length.
package store

import (
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/avr"
	"repro/internal/dsp"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/stats"
)

const (
	// Magic is the four-byte file signature ("SCT4": Side-Channel Template,
	// schema 4). A legacy gob template starts with gob's own type prelude
	// and can never collide with it, so it fails the magic check.
	Magic = "SCT4"
	// Version is the schema this package reads and writes.
	Version = 4

	// preludeLen is the fixed-size region before the gob header.
	preludeLen = 20

	// maxDim bounds a single section dimension. Directory entries come from
	// a file of uncontrolled origin; bounding Rows and Cols keeps the
	// Rows*Cols products far from int64 overflow before the real check
	// against the payload region size.
	maxDim = 1 << 30
)

// ErrFormat is wrapped into every failure caused by the template file
// itself — bad magic, unknown version, truncated or corrupted bytes, CRC
// mismatches, directory entries that cannot be valid. Callers distinguish
// "bad file" from I/O errors with errors.Is; core wraps it into
// core.ErrTemplateFormat.
var ErrFormat = errors.New("store: invalid template file")

// castagnoli is the CRC-32C table (the polynomial with hardware support on
// both amd64 and arm64; the kernel-table sections alone run to megabytes).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SectionError reports a failure pinned to one named section, so operators
// see "section g1/clf/svm.3.sv corrupted", not just "bad file". It wraps
// the underlying cause (which wraps ErrFormat when the file is at fault).
type SectionError struct {
	Section string
	Err     error
}

func (e *SectionError) Error() string { return fmt.Sprintf("store: section %q: %v", e.Section, e.Err) }
func (e *SectionError) Unwrap() error { return e.Err }

// Encoding identifies how a section's payload is packed on disk. Value 1,
// the retired float32 encoding, stays reserved so EncRaw keeps its on-disk
// value.
type Encoding uint8

const (
	// EncFloat64 stores float64 values verbatim: 8 bytes each, bitwise
	// round-trip. Every matrix section uses it.
	EncFloat64 Encoding = 0
	// EncRaw stores an opaque byte blob verbatim (one byte per element,
	// Rows=1). It carries the per-level aux gob (see levelAux).
	EncRaw Encoding = 2
)

func (e Encoding) valueSize() int64 {
	if e == EncRaw {
		return 1
	}
	return 8
}

// SectionInfo is one directory entry: where a named payload lives in the
// payload region and how to check and decode it.
type SectionInfo struct {
	Name       string
	Offset     int64 // relative to the payload region start
	Rows, Cols int
	Encoding   Encoding
	CRC        uint32 // CRC-32C of the on-disk bytes
}

func (s SectionInfo) elems() int64 { return int64(s.Rows) * int64(s.Cols) }

func (s SectionInfo) byteLen() int64 { return s.elems() * s.Encoding.valueSize() }

// LevelState is one hierarchy level of a template in storable form:
// the pipeline and classifier snapshots (stripped of matrix payloads in the
// header, whole once materialized) plus the optional precomputed sparse-CWT
// kernel table.
type LevelState struct {
	Present bool
	Pipe    *features.PipelineState
	Clf     *ml.ClassifierState
	// Sparse is the persisted per-cell kernel table (nil for levels that
	// cannot take the sparse path). Persisting it trades file bytes for
	// skipping the kernel rebuild at materialization time.
	Sparse *dsp.SparseTable
}

// TemplateState is the full template set in storable form — the exported
// mirror of core's serialized state, defined here (with core converting)
// so the store stays import-cycle-free under core's own use of it.
type TemplateState struct {
	HaveRegs   bool
	Group      LevelState
	Instr      [avr.NumGroups]LevelState
	InstrClass [avr.NumGroups][]avr.Class
	Rd, Rr     LevelState
}

// levelRef pairs a level with its stable key — the prefix of its section
// names ("group/pca", "g3/clf/qda.1.factor", "rd/cwt.re").
type levelRef struct {
	key string
	lvl *LevelState
}

func levels(st *TemplateState) []levelRef {
	refs := make([]levelRef, 0, avr.NumGroups+3)
	refs = append(refs, levelRef{"group", &st.Group})
	for i := range st.Instr {
		refs = append(refs, levelRef{fmt.Sprintf("g%d", i+1), &st.Instr[i]})
	}
	refs = append(refs, levelRef{"rd", &st.Rd}, levelRef{"rr", &st.Rr})
	return refs
}

// fileHeader is the gob-encoded eager region: stripped state + directory.
type fileHeader struct {
	Schema   int
	Sections []SectionInfo
	State    *TemplateState
}

// levelAux is the payload of a "<key>/aux" section: the selection and
// normalization structure that is not a float64 matrix but is far too
// expensive for the eager header — gob spends most of a header decode
// reflecting over these many small records (selected points, kernel cell
// indices). Moving them into one lazily loaded, CRC-checked blob per level
// is what keeps Open proportional to the truly small state (configs, class
// tables, per-class vectors) and the registry cold start an order of
// magnitude under full materialization. It holds only what inference
// reads: the per-pair KL tables of the majority-voting variant are not
// persisted, and the aux of a file that still carries them decodes here
// because gob skips fields this type lacks.
type levelAux struct {
	Points  []features.Point
	Z       *stats.ZScoreNormalizer
	PCAMean []float64
	PCAEig  []float64
	// Clf is the stripped classifier snapshot (shapes, labels, per-class
	// vectors — matrices ride in their own sections). It lives here rather
	// than in the header because kNN label sets and class-mean tables grow
	// with the training set; the header keeps only LevelState.Present.
	Clf     *ml.ClassifierState
	Cells   []dsp.Cell
	Lo, Off []int
}

// auxName is the section-name suffix of the per-level aux blob.
const auxName = "aux"
