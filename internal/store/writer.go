package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// Options once tuned Write; the one template encoding leaves nothing to
// tune.
//
// Deprecated: it has no fields and nothing reads it. It remains only so
// callers that still pass store.Options{} to core.Disassembler.SaveStore
// compile — scdisbench's fleet set-up does (ROADMAP item 1 retires it).
type Options struct{}

// section is a directory entry still carrying its payload, writer-side.
// Exactly one of data (matrix sections) and raw (aux blobs) is set.
type section struct {
	info SectionInfo
	data []float64
	raw  []byte
}

// testShuffleSections, when set by a test, permutes the collected sections
// before offsets are assigned — the hook behind the "round-trips at any
// section order" property.
var testShuffleSections func([]section)

// collect splits a template state into the stripped header state and the
// big payload sections, without mutating the input (whose slices alias live
// classifier state).
func collect(st *TemplateState) (*TemplateState, []section, error) {
	if st == nil {
		return nil, nil, fmt.Errorf("store: nil template state")
	}
	out := &TemplateState{HaveRegs: st.HaveRegs, InstrClass: st.InstrClass}
	var secs []section
	seen := map[string]bool{}
	add := func(key, name string, rows, cols int, data []float64) error {
		full := key + "/" + name
		if rows < 0 || cols < 0 || int64(len(data)) != int64(rows)*int64(cols) {
			return fmt.Errorf("store: section %q claims %dx%d but holds %d values", full, rows, cols, len(data))
		}
		if seen[full] {
			return fmt.Errorf("store: duplicate section %q", full)
		}
		seen[full] = true
		secs = append(secs, section{info: SectionInfo{Name: full, Rows: rows, Cols: cols}, data: data})
		return nil
	}
	addRaw := func(key, name string, blob []byte) error {
		full := key + "/" + name
		if seen[full] {
			return fmt.Errorf("store: duplicate section %q", full)
		}
		seen[full] = true
		secs = append(secs, section{
			info: SectionInfo{Name: full, Rows: 1, Cols: len(blob), Encoding: EncRaw},
			raw:  blob,
		})
		return nil
	}
	src, dst := levels(st), levels(out)
	for i, r := range src {
		if !r.lvl.Present {
			continue
		}
		if r.lvl.Pipe == nil || r.lvl.Clf == nil {
			return nil, nil, fmt.Errorf("store: level %q is present without pipeline or classifier state", r.key)
		}
		if len(r.lvl.Pipe.Points) == 0 {
			return nil, nil, fmt.Errorf("store: level %q has no selected points — the state is not a fitted pipeline", r.key)
		}
		d := dst[i].lvl
		d.Present = true
		d.Pipe = r.lvl.Pipe.Strip()
		for _, s := range r.lvl.Pipe.Sections() {
			if err := add(r.key, s.Name, s.Rows, s.Cols, s.Data); err != nil {
				return nil, nil, err
			}
		}
		for _, s := range r.lvl.Clf.Sections() {
			if err := add(r.key, "clf/"+s.Name, s.Rows, s.Cols, s.Data); err != nil {
				return nil, nil, err
			}
		}
		aux := levelAux{
			Points: r.lvl.Pipe.Points,
			Z:      r.lvl.Pipe.Z,
			Clf:    r.lvl.Clf.Strip(),
		}
		// The stripped header copy keeps only shape; the bulky structure
		// moves into the aux blob. Strip returned fresh struct copies, so
		// nilling fields here never touches the caller's live state.
		d.Pipe.Points, d.Pipe.Z = nil, nil
		if p := r.lvl.Pipe.PCA; p != nil {
			aux.PCAMean, aux.PCAEig = p.Mean, p.EigVals
			if d.Pipe.PCA != nil {
				d.Pipe.PCA.Mean, d.Pipe.PCA.EigVals = nil, nil
			}
		}
		if t := r.lvl.Sparse; t != nil {
			d.Sparse = t.Strip()
			aux.Cells, aux.Lo, aux.Off = t.Cells, t.Lo, t.Off
			d.Sparse.Cells, d.Sparse.Lo, d.Sparse.Off = nil, nil, nil
			if err := add(r.key, "cwt.re", 1, len(t.Re), t.Re); err != nil {
				return nil, nil, err
			}
			if err := add(r.key, "cwt.im", 1, len(t.Im), t.Im); err != nil {
				return nil, nil, err
			}
		}
		var abuf bytes.Buffer
		if err := gob.NewEncoder(&abuf).Encode(&aux); err != nil {
			return nil, nil, fmt.Errorf("store: encoding level %q aux: %w", r.key, err)
		}
		if err := addRaw(r.key, auxName, abuf.Bytes()); err != nil {
			return nil, nil, err
		}
	}
	return out, secs, nil
}

// encodeFloats packs values as little-endian float64s.
func encodeFloats(data []float64) []byte {
	b := make([]byte, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// Write emits st as a schema-v4 template file. The input state is not
// mutated (its payload slices typically alias a live Disassembler).
func Write(w io.Writer, st *TemplateState) error {
	stripped, secs, err := collect(st)
	if err != nil {
		return err
	}
	if testShuffleSections != nil {
		testShuffleSections(secs)
	}
	hdr := fileHeader{Schema: Version, State: stripped}
	blobs := make([][]byte, len(secs))
	var off int64
	for i := range secs {
		b := secs[i].raw
		if secs[i].info.Encoding != EncRaw {
			b = encodeFloats(secs[i].data)
		}
		secs[i].info.Offset = off
		secs[i].info.CRC = crc32.Checksum(b, castagnoli)
		blobs[i] = b
		off += int64(len(b))
		hdr.Sections = append(hdr.Sections, secs[i].info)
	}
	var hbuf bytes.Buffer
	if err := gob.NewEncoder(&hbuf).Encode(&hdr); err != nil {
		return fmt.Errorf("store: encoding header: %w", err)
	}
	if hbuf.Len() > math.MaxUint32 {
		return fmt.Errorf("store: header of %d bytes exceeds the format bound", hbuf.Len())
	}
	var pre [preludeLen]byte
	copy(pre[0:4], Magic)
	binary.LittleEndian.PutUint32(pre[4:8], Version) // pre[8:12), the flags, stays 0
	binary.LittleEndian.PutUint32(pre[12:16], uint32(hbuf.Len()))
	binary.LittleEndian.PutUint32(pre[16:20], crc32.Checksum(hbuf.Bytes(), castagnoli))
	if _, err := w.Write(pre[:]); err != nil {
		return err
	}
	if _, err := w.Write(hbuf.Bytes()); err != nil {
		return err
	}
	for _, b := range blobs {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile writes st to path atomically. The bytes go to a temporary file
// in the same directory — named so it never ends in a template extension, so
// a registry scan cannot pick it up half-written — which is synced, closed
// and renamed over path. A reader that opened the previous file keeps
// reading its intact inode, where rewriting in place would fail that
// reader's unread sections (a CRC mismatch or a short read). On any error
// the temporary file is removed and path is left as it was.
func WriteFile(path string, st *TemplateState) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = Write(f, st); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// splitName parses a section name into its level key and payload path.
func splitName(name string) (key, rest string, ok bool) {
	i := strings.IndexByte(name, '/')
	if i <= 0 || i == len(name)-1 {
		return "", "", false
	}
	return name[:i], name[i+1:], true
}
