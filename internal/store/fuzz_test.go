package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/testkit"
)

// fuzzSeeds builds the deterministic seed set shared by the committed corpus
// and FuzzStoreOpen's in-process f.Add calls: a valid tiny v4 file, the same
// file with its flags word set to the retired quantized bit, truncations at
// each region boundary, single-byte damage in the header and in a section
// payload, and a hand-crafted directory claiming a section past EOF — the
// cases the format's screens exist for.
func fuzzSeeds(t testing.TB) map[string][]byte {
	valid := writeBytes(t, tinyState())
	flip := func(b []byte, i int) []byte {
		out := append([]byte(nil), b...)
		out[i] ^= 0x20
		return out
	}
	ref, err := OpenReaderAt(bytes.NewReader(valid), int64(len(valid)))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	firstPayload := int(ref.PayloadOffset()) + 1
	return map[string][]byte{
		"valid_v4":          valid,
		"flagged":           withFlags(valid, 1),
		"empty":             {},
		"bad_magic":         flip(valid, 1),
		"truncated_prelude": valid[:preludeLen/2],
		"truncated_header":  valid[:preludeLen+7],
		"truncated_payload": valid[:len(valid)-5],
		"flipped_header":    flip(valid, preludeLen+9),
		"flipped_section":   flip(valid, firstPayload),
		"section_past_eof": rewriteHeader(t, valid, func(h *fileHeader) {
			h.Sections[0].Offset = int64(len(valid)) * 16
		}),
	}
}

// TestStoreFuzzCorpusCommitted regenerates the committed FuzzStoreOpen seed
// corpus under testdata/fuzz when REGEN_FUZZ_CORPUS is set, and otherwise
// asserts it is present — the corpus stays derivable from code.
func TestStoreFuzzCorpusCommitted(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") != "" {
		for name, b := range fuzzSeeds(t) {
			testkit.WriteCorpus(t, "FuzzStoreOpen", name, b)
		}
		return
	}
	ents, err := os.ReadDir(filepath.Join("testdata", "fuzz", "FuzzStoreOpen"))
	if err != nil || len(ents) == 0 {
		t.Errorf("no committed seed corpus for FuzzStoreOpen (REGEN_FUZZ_CORPUS=1 to create): %v", err)
	}
}

// FuzzStoreOpen drives the whole read path with arbitrary bytes. The
// contract: Open never panics, every rejection wraps ErrFormat (a
// bytes.Reader cannot produce I/O errors, so any error is the file's fault),
// and a file whose header passes the screens either materializes fully or
// fails with ErrFormat — never a partial state, never a crash.
func FuzzStoreOpen(f *testing.F) {
	for _, b := range fuzzSeeds(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := OpenReaderAt(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			if sf != nil {
				t.Fatal("OpenReaderAt returned a File together with an error")
			}
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("rejection outside ErrFormat: %v", err)
			}
			return
		}
		defer sf.Close()
		// Shape accessors must be safe on anything that opened.
		_ = sf.Sections()
		if sf.HeaderState() == nil {
			t.Fatal("opened file carries no header state")
		}
		st, err := sf.Template()
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("materialization rejection outside ErrFormat: %v", err)
			}
			return
		}
		if st == nil {
			t.Fatal("Template returned nil, nil")
		}
	})
}
