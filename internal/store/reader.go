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
	"strings"
	"sync/atomic"

	"repro/internal/avr"
)

// chunkLen is the read buffer a matrix section streams through on its way
// to float64s, so a load costs the decoded values plus one fixed buffer,
// never a staging copy of the section. It is a multiple of every value
// size: no value straddles two chunks.
const chunkLen = 64 << 10

// File is an opened v4 template: header decoded and validated eagerly,
// payload sections read through r only when the template loader asks for
// them. Concurrent loads are safe, and so is Close during one: on a file
// Open opened, the load's reads then fail with os.ErrClosed. core.Template
// serializes the two all the same, so that a request racing a reload is
// not failed by it.
type File struct {
	r          io.ReaderAt
	closer     io.Closer // the file Open opened; nil for OpenReaderAt
	payloadOff int64
	payloadLen int64
	hdr        fileHeader
	hdrBytes   []byte // Template re-decodes fresh state from it
	byName     map[string]int

	resident atomic.Int64 // decoded float64 bytes attributed to this file
	closed   atomic.Bool
}

// Open opens a v4 template file and eagerly decodes its header; sections
// are read from the open descriptor until Close. Defective files — wrong
// magic, unknown version, a set flags bit, truncated regions, a directory
// that cannot be valid — yield an error wrapping ErrFormat and never a
// panic, for arbitrary input bytes (FuzzStoreOpen pins this on
// OpenReaderAt, which runs the same code).
func Open(path string) (*File, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	info, err := fh.Stat()
	if err != nil {
		fh.Close()
		return nil, err
	}
	f, err := OpenReaderAt(fh, info.Size())
	if err != nil {
		fh.Close()
		return nil, err
	}
	f.closer = fh
	return f, nil
}

// OpenReaderAt opens a template of size bytes from any io.ReaderAt. Open
// runs it on the file it opens; fuzzing and tests run it on memory. The
// caller keeps ownership of r's lifetime.
func OpenReaderAt(r io.ReaderAt, size int64) (*File, error) {
	if size < preludeLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the fixed prelude", ErrFormat, size)
	}
	pre := make([]byte, preludeLen)
	if err := readFull(r, pre, 0); err != nil {
		return nil, err
	}
	if string(pre[0:4]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q: not a v4 template store (gob templates from older builds are no longer read: retrain, or convert them with an older build's scdis convert)", ErrFormat, pre[0:4])
	}
	if v := binary.LittleEndian.Uint32(pre[4:8]); v != Version {
		if v > Version {
			return nil, fmt.Errorf("%w: schema version %d is newer than this build supports (%d) — upgrade the tool", ErrFormat, v, Version)
		}
		return nil, fmt.Errorf("%w: schema version %d, want %d", ErrFormat, v, Version)
	}
	switch flags := binary.LittleEndian.Uint32(pre[8:12]); {
	case flags&1 != 0:
		// Bit 0 marked float32-quantized matrix sections.
		return nil, fmt.Errorf("%w: flags %#x mark a quantized (float32) template: quantized templates are no longer read; serve or re-save the float64 template it was converted from, or retrain", ErrFormat, flags)
	case flags != 0:
		return nil, fmt.Errorf("%w: flags %#x: this build defines no flags", ErrFormat, flags)
	}
	hlen := int64(binary.LittleEndian.Uint32(pre[12:16]))
	if hlen == 0 || hlen > size-preludeLen {
		return nil, fmt.Errorf("%w: header of %d bytes does not fit the %d-byte file", ErrFormat, hlen, size)
	}
	hdrBytes := make([]byte, hlen)
	if err := readFull(r, hdrBytes, preludeLen); err != nil {
		return nil, err
	}
	if got, want := crc32.Checksum(hdrBytes, castagnoli), binary.LittleEndian.Uint32(pre[16:20]); got != want {
		return nil, fmt.Errorf("%w: header CRC mismatch (corrupted header)", ErrFormat)
	}
	var hdr fileHeader
	if err := gob.NewDecoder(bytes.NewReader(hdrBytes)).Decode(&hdr); err != nil {
		return nil, fmt.Errorf("%w: decoding header gob: %v", ErrFormat, err)
	}
	if hdr.Schema != Version {
		return nil, fmt.Errorf("%w: header claims schema %d inside a version-%d file", ErrFormat, hdr.Schema, Version)
	}
	if hdr.State == nil {
		return nil, fmt.Errorf("%w: header carries no template state", ErrFormat)
	}
	f := &File{
		r:          r,
		payloadOff: preludeLen + hlen,
		payloadLen: size - preludeLen - hlen,
		hdr:        hdr,
		hdrBytes:   hdrBytes,
		byName:     make(map[string]int, len(hdr.Sections)),
	}
	byKey := make(map[string]*LevelState, avr.NumGroups+3)
	for _, r := range levels(hdr.State) {
		byKey[r.key] = r.lvl
	}
	for i, s := range hdr.Sections {
		if _, dup := f.byName[s.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrFormat, s.Name)
		}
		if err := routeCheck(byKey, s.Name); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrFormat, err)
		}
		if _, rest, _ := splitName(s.Name); rest == auxName {
			if s.Encoding != EncRaw {
				return nil, fmt.Errorf("%w: aux section %q must be raw-encoded, claims %d", ErrFormat, s.Name, s.Encoding)
			}
		} else if s.Encoding != EncFloat64 {
			return nil, fmt.Errorf("%w: matrix section %q must be float64-encoded, claims %d", ErrFormat, s.Name, s.Encoding)
		}
		if s.Rows < 0 || s.Cols < 0 || s.Rows > maxDim || s.Cols > maxDim {
			return nil, fmt.Errorf("%w: section %q claims impossible shape %dx%d", ErrFormat, s.Name, s.Rows, s.Cols)
		}
		if n := s.byteLen(); s.Offset < 0 || n > f.payloadLen || s.Offset > f.payloadLen-n {
			return nil, fmt.Errorf("%w: section %q [%d,%d) lies past the end of the file", ErrFormat, s.Name, s.Offset, s.Offset+n)
		}
		f.byName[s.Name] = i
	}
	met.opens.Inc()
	return f, nil
}

// routeCheck validates that a directory name addresses a payload slot the
// header state actually has, so an unknown or misdirected section is an
// Open-time error rather than a surprise at materialization.
func routeCheck(byKey map[string]*LevelState, name string) error {
	key, rest, ok := splitName(name)
	if !ok {
		return fmt.Errorf("unparseable section name %q", name)
	}
	lvl, ok := byKey[key]
	if !ok {
		return fmt.Errorf("section %q addresses no known level", name)
	}
	if !lvl.Present {
		return fmt.Errorf("section %q addresses an absent level", name)
	}
	switch {
	case rest == "pca", rest == auxName, strings.HasPrefix(rest, "clf/") && len(rest) > len("clf/"):
		return nil
	case rest == "cwt.re", rest == "cwt.im":
		if lvl.Sparse == nil {
			return fmt.Errorf("section %q addresses a level without a kernel table", name)
		}
		return nil
	}
	return fmt.Errorf("unknown section kind %q", name)
}

// Sections returns a copy of the section directory. Only tests walk it —
// internal/core's corruption tests among them, which a store test file
// cannot serve.
func (f *File) Sections() []SectionInfo {
	return append([]SectionInfo(nil), f.hdr.Sections...)
}

// PayloadOffset returns the file offset of the payload region — with
// SectionInfo.Offset, the absolute position of every section's bytes. Only
// tests ask — internal/core's corruption and fuzz tests among them, which a
// store test file cannot serve.
func (f *File) PayloadOffset() int64 { return f.payloadOff }

// HeaderState returns the eagerly decoded, stripped template state — enough
// for shape questions (trace length, sparse capability, class tables)
// without touching a section. Callers must treat it as read-only; Template
// hands out independent copies for materialization.
func (f *File) HeaderState() *TemplateState { return f.hdr.State }

// ResidentBytes returns the decoded float64 bytes currently attributed to
// this file's materialized sections.
func (f *File) ResidentBytes() int64 { return f.resident.Load() }

// readFull fills b from offset off of r. A short read means the file ended
// before the size it had at Open — it shrank, or was rewritten shorter, on
// disk since — and is reported as ErrFormat. A read that fills b and also
// returns io.EOF (the last bytes of the file) is a success. Any other read
// error is passed up unwrapped: it is not the file's format at fault.
func readFull(r io.ReaderAt, b []byte, off int64) error {
	n, err := r.ReadAt(b, off)
	switch {
	case n == len(b):
		return nil
	case err == nil || errors.Is(err, io.EOF):
		return fmt.Errorf("%w: file truncated: read %d of %d bytes at offset %d (changed on disk after Open?)", ErrFormat, n, len(b), off)
	}
	return fmt.Errorf("store: reading %d bytes at %d: %w", len(b), off, err)
}

// section resolves a directory entry for a load on an open file.
func (f *File) section(name string) (SectionInfo, error) {
	if f.closed.Load() {
		return SectionInfo{}, fmt.Errorf("store: file is closed")
	}
	i, ok := f.byName[name]
	if !ok {
		return SectionInfo{}, &SectionError{Section: name, Err: fmt.Errorf("%w: no such section", ErrFormat)}
	}
	return f.hdr.Sections[i], nil
}

// sectionFault pins a read or check failure to its section. Failures of
// the file itself (a short read, a CRC mismatch) count in
// store.sections.errors.
func sectionFault(name string, err error) error {
	if errors.Is(err, ErrFormat) {
		met.sectionErrors.Inc()
	}
	return &SectionError{Section: name, Err: err}
}

func checkCRC(info SectionInfo, crc uint32) error {
	if crc != info.CRC {
		return sectionFault(info.Name, fmt.Errorf("%w: CRC mismatch (corrupted section, or the file changed on disk after Open)", ErrFormat))
	}
	return nil
}

// loadFloats streams one matrix section through buf, whose length is a
// multiple of the section's value size: each chunk is read, folded into the
// CRC and decoded into the section's values, and the CRC is checked after
// the last chunk.
func (f *File) loadFloats(info SectionInfo, buf []byte) ([]float64, error) {
	if info.Encoding == EncRaw {
		return nil, &SectionError{Section: info.Name, Err: errors.New("store: raw section holds no float payload (use LoadSectionBytes)")}
	}
	data := make([]float64, info.elems())
	off, end := f.payloadOff+info.Offset, f.payloadOff+info.Offset+info.byteLen()
	var crc uint32
	for done := 0; off < end; {
		b := buf[:min(int64(len(buf)), end-off)]
		if err := readFull(f.r, b, off); err != nil {
			return nil, sectionFault(info.Name, err)
		}
		crc = crc32.Update(crc, castagnoli, b)
		done += decodeFloats(data[done:], b)
		off += int64(len(b))
	}
	if err := checkCRC(info, crc); err != nil {
		return nil, err
	}
	met.sectionsLoaded.Inc()
	met.bytesResident.Add(float64(8 * len(data)))
	f.resident.Add(int64(8 * len(data)))
	return data, nil
}

// LoadSectionBytes reads and CRC-checks one section, returning its raw
// on-disk bytes — the gob blob for aux sections, the encoded float stream
// for matrix sections.
func (f *File) LoadSectionBytes(name string) ([]byte, error) {
	info, err := f.section(name)
	if err != nil {
		return nil, err
	}
	out := make([]byte, info.byteLen())
	if err := readFull(f.r, out, f.payloadOff+info.Offset); err != nil {
		return nil, sectionFault(name, err)
	}
	if err := checkCRC(info, crc32.Checksum(out, castagnoli)); err != nil {
		return nil, err
	}
	met.sectionsLoaded.Inc()
	met.bytesResident.Add(float64(len(out)))
	f.resident.Add(int64(len(out)))
	return out, nil
}

// decodeFloats unpacks the little-endian float64s in b into dst and
// returns how many it wrote; len(b) is a multiple of 8 by construction.
func decodeFloats(dst []float64, b []byte) int {
	n := len(b) / 8
	for i := range dst[:n] {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return n
}

// Template materializes the full template state: a fresh decode of the
// header gob with every section loaded, checked and reattached. Any
// section failure fails the whole call — a template can classify with all
// of its payloads or with none of them. The returned state is independent
// of the File (callers may mutate it) except that it shares the loaded
// section data.
func (f *File) Template() (*TemplateState, error) {
	if f.closed.Load() {
		return nil, fmt.Errorf("store: file is closed")
	}
	var hdr fileHeader
	if err := gob.NewDecoder(bytes.NewReader(f.hdrBytes)).Decode(&hdr); err != nil {
		// Unreachable for a header that decoded at Open; kept for safety.
		return nil, fmt.Errorf("%w: decoding header gob: %v", ErrFormat, err)
	}
	st := hdr.State
	refs := levels(st)
	byKey := make(map[string]*LevelState, len(refs))
	for _, r := range refs {
		byKey[r.key] = r.lvl
	}
	// Aux blobs graft first regardless of directory order: they carry the
	// classifier snapshots the matrix sections route into.
	for _, info := range f.hdr.Sections {
		key, rest, _ := splitName(info.Name) // validated at Open
		if rest != auxName {
			continue
		}
		blob, err := f.LoadSectionBytes(info.Name)
		if err != nil {
			return nil, err
		}
		if err := graftAux(byKey[key], blob); err != nil {
			return nil, &SectionError{Section: info.Name, Err: fmt.Errorf("%w: %v", ErrFormat, err)}
		}
	}
	buf := make([]byte, chunkLen)
	for _, info := range f.hdr.Sections {
		if _, rest, _ := splitName(info.Name); rest == auxName {
			continue
		}
		data, err := f.loadFloats(info, buf)
		if err != nil {
			return nil, err
		}
		if err := route(byKey, info, data); err != nil {
			return nil, &SectionError{Section: info.Name, Err: fmt.Errorf("%w: %v", ErrFormat, err)}
		}
	}
	for _, r := range refs {
		if err := checkLevelComplete(r.lvl); err != nil {
			return nil, fmt.Errorf("%w: level %q: %v", ErrFormat, r.key, err)
		}
	}
	return st, nil
}

// graftAux decodes a level's aux blob and reattaches the selection and
// normalization structure the writer moved out of the eager header.
func graftAux(lvl *LevelState, blob []byte) error {
	var aux levelAux
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&aux); err != nil {
		return fmt.Errorf("decoding aux gob: %v", err)
	}
	if lvl.Pipe == nil {
		return errors.New("aux for a level without pipeline state")
	}
	if lvl.Pipe.Points != nil || lvl.Clf != nil {
		return errors.New("duplicate aux payload")
	}
	lvl.Pipe.Points = aux.Points
	lvl.Pipe.Z = aux.Z
	lvl.Clf = aux.Clf
	if lvl.Pipe.PCA != nil {
		lvl.Pipe.PCA.Mean, lvl.Pipe.PCA.EigVals = aux.PCAMean, aux.PCAEig
	}
	if lvl.Sparse == nil {
		if aux.Cells != nil || aux.Lo != nil || aux.Off != nil {
			return errors.New("aux carries kernel structure for a level without a table")
		}
		return nil
	}
	lvl.Sparse.Cells, lvl.Sparse.Lo, lvl.Sparse.Off = aux.Cells, aux.Lo, aux.Off
	return nil
}

// route reattaches one loaded payload to its slot in the fresh state copy.
func route(byKey map[string]*LevelState, info SectionInfo, data []float64) error {
	key, rest, _ := splitName(info.Name) // validated at Open
	lvl := byKey[key]
	switch {
	case rest == "pca":
		return lvl.Pipe.SetSection(rest, info.Rows, info.Cols, data)
	case strings.HasPrefix(rest, "clf/"):
		return lvl.Clf.SetSection(strings.TrimPrefix(rest, "clf/"), info.Rows, info.Cols, data)
	case rest == "cwt.re":
		if lvl.Sparse.Re != nil {
			return errors.New("duplicate kernel payload")
		}
		lvl.Sparse.Re = data
		return nil
	default: // "cwt.im", the only name routeCheck lets through
		if lvl.Sparse.Im != nil {
			return errors.New("duplicate kernel payload")
		}
		lvl.Sparse.Im = data
		return nil
	}
}

// checkLevelComplete rejects a level whose header promises payloads the
// directory never delivered — the "no partial-state template can ever
// classify" guarantee.
func checkLevelComplete(lvl *LevelState) error {
	if !lvl.Present {
		return nil
	}
	if err := lvl.Pipe.CheckComplete(); err != nil {
		return err
	}
	if lvl.Pipe != nil && len(lvl.Pipe.Points) == 0 {
		return errors.New("selection structure (aux section) not materialized")
	}
	if err := lvl.Clf.CheckComplete(); err != nil {
		return err
	}
	if lvl.Sparse != nil && (lvl.Sparse.Re == nil || lvl.Sparse.Im == nil) {
		return errors.New("sparse kernel payloads not materialized")
	}
	if lvl.Sparse != nil && (lvl.Sparse.Cells == nil || lvl.Sparse.Lo == nil || lvl.Sparse.Off == nil) {
		return errors.New("sparse kernel structure (aux section) not materialized")
	}
	return nil
}

// Close closes the file Open opened (a file from OpenReaderAt has none)
// and retires the file's resident bytes from the gauge. Materialized
// TemplateStates stay valid — their section data was decoded into ordinary
// heap slices.
func (f *File) Close() error {
	if f.closed.Swap(true) {
		return nil
	}
	met.bytesResident.Add(float64(-f.resident.Swap(0)))
	if f.closer == nil {
		return nil
	}
	return f.closer.Close()
}
