package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/avr"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/store"
)

// Template persistence. Profiling is by far the most expensive step of the
// flow (the paper uploads 10–19 program files per class and captures
// thousands of traces), so a trained Disassembler is saved once and shipped
// with a monitoring appliance. The one on-disk format is schema v4, the
// flat, checksummed, lazily loadable container of internal/store. This file
// converts between the Disassembler and the store's exported TemplateState,
// and provides the Template handle serving uses for two-phase loading — a
// cheap header-only open followed by section materialization on the first
// decode. Gob files written by older builds (schemas v1–v3) fail the
// store's magic check, and float32-quantized v4 files its flags check; both
// are refused.

// ErrTemplateFormat is wrapped into every load failure caused by the
// template file itself — a gob file or a quantized file from an older
// build, truncated or corrupted bytes, an unknown schema version, or
// decoded state that fails validation. Callers distinguish "bad file" from
// I/O errors with errors.Is.
var ErrTemplateFormat = errors.New("core: invalid template file")

// snapshotLevel converts one trained level into its store form, including
// the precomputed sparse kernel table.
func snapshotLevel(lvl groupLevel) (store.LevelState, error) {
	if !lvl.trained() {
		return store.LevelState{}, nil // untrained level
	}
	ps, err := lvl.pipe.State()
	if err != nil {
		return store.LevelState{}, err
	}
	cs, err := ml.SnapshotClassifier(lvl.clf)
	if err != nil {
		return store.LevelState{}, err
	}
	t, err := lvl.pipe.SparseTable()
	if err != nil {
		return store.LevelState{}, fmt.Errorf("kernel table: %w", err)
	}
	return store.LevelState{Present: true, Pipe: ps, Clf: cs, Sparse: t}, nil
}

// restoreLevel rebuilds one level from materialized store state. A persisted
// kernel table must match the fitted state it rides with.
func restoreLevel(ls store.LevelState) (groupLevel, error) {
	if !ls.Present {
		return groupLevel{}, nil
	}
	pipe, err := features.PipelineFromState(ls.Pipe)
	if err != nil {
		return groupLevel{}, err
	}
	clf, err := ml.RestoreClassifier(ls.Clf)
	if err != nil {
		return groupLevel{}, err
	}
	if err := pipe.InstallSparseTable(ls.Sparse); err != nil {
		return groupLevel{}, err
	}
	return groupLevel{pipe: pipe, clf: clf}, nil
}

// templateState converts the trained set into the store's exported state.
func (d *Disassembler) templateState() (*store.TemplateState, error) {
	if d.group.pipe == nil {
		return nil, errors.New("core: cannot save an untrained disassembler")
	}
	st := &store.TemplateState{HaveRegs: d.haveRegs}
	var err error
	if st.Group, err = snapshotLevel(d.group); err != nil {
		return nil, fmt.Errorf("core: saving group level: %w", err)
	}
	for i := range d.instr {
		if st.Instr[i], err = snapshotLevel(d.instr[i]); err != nil {
			return nil, fmt.Errorf("core: saving group %d level: %w", i+1, err)
		}
		st.InstrClass[i] = d.instrClass[i]
	}
	if d.haveRegs {
		if st.Rd, err = snapshotLevel(d.rd); err != nil {
			return nil, fmt.Errorf("core: saving Rd level: %w", err)
		}
		if st.Rr, err = snapshotLevel(d.rr); err != nil {
			return nil, fmt.Errorf("core: saving Rr level: %w", err)
		}
	}
	return st, nil
}

// SaveStore writes the trained template set as a schema-v4 store file. It
// takes no options: the variadic parameter only accepts, and ignores, the
// empty store.Options that callers of the old two-argument form still pass.
func (d *Disassembler) SaveStore(w io.Writer, _ ...struct{}) error {
	st, err := d.templateState()
	if err != nil {
		return err
	}
	return store.Write(w, st)
}

// SaveStoreFile is SaveStore to a path. The file is replaced atomically
// (store.WriteFile), so a server that has the old file open keeps reading
// it intact, and a failed save leaves neither a partial file nor a changed
// target.
func (d *Disassembler) SaveStoreFile(path string) error {
	st, err := d.templateState()
	if err != nil {
		return err
	}
	return store.WriteFile(path, st)
}

// disassemblerFromTemplateState rebuilds a Disassembler from materialized
// store state. Every failure wraps ErrTemplateFormat and never yields a
// partially initialized Disassembler: class tables index into avr.SpecOf at
// classification time, so they are screened against the ISA first, and each
// level must pass features.PipelineFromState and ml.RestoreClassifier.
func disassemblerFromTemplateState(st *store.TemplateState) (*Disassembler, error) {
	for i, table := range st.InstrClass {
		for _, c := range table {
			if !avr.ValidClass(c) {
				return nil, fmt.Errorf("%w: group %d class table holds undefined class %d", ErrTemplateFormat, i+1, c)
			}
		}
	}
	d := &Disassembler{haveRegs: st.HaveRegs, instrClass: st.InstrClass}
	var err error
	if d.group, err = restoreLevel(st.Group); err != nil {
		return nil, fmt.Errorf("%w: restoring group level: %w", ErrTemplateFormat, err)
	}
	if d.group.pipe == nil {
		return nil, fmt.Errorf("%w: file lacks a group level", ErrTemplateFormat)
	}
	for i := range d.instr {
		if d.instr[i], err = restoreLevel(st.Instr[i]); err != nil {
			return nil, fmt.Errorf("%w: restoring group %d level: %w", ErrTemplateFormat, i+1, err)
		}
	}
	if st.HaveRegs {
		if d.rd, err = restoreLevel(st.Rd); err != nil {
			return nil, fmt.Errorf("%w: restoring Rd level: %w", ErrTemplateFormat, err)
		}
		if d.rr, err = restoreLevel(st.Rr); err != nil {
			return nil, fmt.Errorf("%w: restoring Rr level: %w", ErrTemplateFormat, err)
		}
	}
	return d, nil
}

// screenHeader applies, from the eager header alone, the checks
// disassemblerFromTemplateState makes after materialization, so a template
// that could never decode fails at open rather than on its first request: a
// group level must exist, and every level must use the one normalization
// inference implements (features.PipelineConfig.CheckNorm).
func screenHeader(hs *store.TemplateState) error {
	if !hs.Group.Present || hs.Group.Pipe == nil || hs.Group.Pipe.TraceLen <= 0 {
		return fmt.Errorf("%w: file lacks a group level", ErrTemplateFormat)
	}
	if err := screenNorm(hs.Group, hs.Rd, hs.Rr); err != nil {
		return err
	}
	return screenNorm(hs.Instr[:]...)
}

// screenNorm applies features.PipelineConfig.CheckNorm to every present
// level.
func screenNorm(levels ...store.LevelState) error {
	for _, ls := range levels {
		if ls.Present && ls.Pipe != nil {
			if err := ls.Pipe.Cfg.CheckNorm(); err != nil {
				return fmt.Errorf("%w: %w", ErrTemplateFormat, err)
			}
		}
	}
	return nil
}

// Load reads a template set written by SaveStore and materializes it whole.
// A defective file — a gob file from an older build, a quantized file,
// truncated or bit-flipped bytes, a schema version this build does not
// know, class tables holding undefined instruction classes, a
// plane-normalized level, or section state that fails reconstruction —
// yields a descriptive error wrapping ErrTemplateFormat and never a panic
// or a partially initialized Disassembler.
func Load(r io.Reader) (*Disassembler, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading template: %w", err)
	}
	f, err := store.OpenReaderAt(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrTemplateFormat, err)
	}
	defer f.Close()
	st, err := f.Template()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrTemplateFormat, err)
	}
	return disassemblerFromTemplateState(st)
}

// Template is a two-phase handle on a template file. Open is cheap: only
// the header is decoded (shape questions such as TraceLen answer
// immediately); the matrices materialize on the first Disassembler call and
// the result (or error) is remembered.
type Template struct {
	f *store.File

	mu   sync.Mutex
	done bool
	d    *Disassembler
	err  error
}

// OpenTemplate opens path and decodes and screens its header. Bad files —
// including gob files from older builds, quantized files and
// plane-normalized templates — fail here, wrapping ErrTemplateFormat.
func OpenTemplate(path string) (*Template, error) {
	f, err := store.Open(path)
	if err != nil {
		if errors.Is(err, store.ErrFormat) {
			err = fmt.Errorf("%w: %w", ErrTemplateFormat, err)
		}
		return nil, err
	}
	if err := screenHeader(f.HeaderState()); err != nil {
		f.Close()
		return nil, err
	}
	return &Template{f: f}, nil
}

// TraceLen answers from the header alone — no sections are touched.
func (t *Template) TraceLen() int { return t.f.HeaderState().Group.Pipe.TraceLen }

// ResidentBytes reports the decoded section bytes currently attributed to
// this handle.
func (t *Template) ResidentBytes() int64 { return t.f.ResidentBytes() }

// Disassembler materializes the template on first call: every section is
// loaded, CRC-checked and reattached, and the hierarchy is rebuilt with the
// same validation as Load. The result — or the failure — is remembered;
// a corrupted section yields the same SectionError on every call, never a
// partially initialized Disassembler.
func (t *Template) Disassembler() (*Disassembler, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return t.d, t.err
	}
	t.done = true
	st, err := t.f.Template()
	if err != nil {
		t.err = fmt.Errorf("%w: %w", ErrTemplateFormat, err)
		return nil, t.err
	}
	t.d, t.err = disassemblerFromTemplateState(st)
	return t.d, t.err
}

// Close releases the underlying store file. It waits for a materialization
// in progress: closing the file under it would fail its reads with
// os.ErrClosed, and the handle would remember that as ErrTemplateFormat, so
// a request racing a reload would get an error instead of its decode. A
// materialized Disassembler stays valid — its state lives on the heap — but
// an unmaterialized handle can no longer materialize.
func (t *Template) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.f.Close()
}

// LoadFile loads a template whole — the one-shot CLI path. The two-phase
// Template handle is for servers that want the header now and the matrices
// later.
func LoadFile(path string) (*Disassembler, error) {
	t, err := OpenTemplate(path)
	if err != nil {
		return nil, err
	}
	defer t.Close()
	return t.Disassembler()
}
