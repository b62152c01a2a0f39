package store

import (
	"bytes"
	"errors"
	"testing"
)

// TestCorruptionMatrix flips one byte inside every section of a valid file,
// one section at a time, and pins the containment contract: the error is a
// SectionError naming exactly the damaged section (wrapping ErrFormat), every
// other section still loads bit-perfectly, and the file as a whole can never
// materialize into a classifying template.
func TestCorruptionMatrix(t *testing.T) {
	st := tinyState()
	valid := writeBytes(t, st)
	want, wantAux := expectedPayloads(t, st)
	ref := openBytes(t, valid)
	payloadOff := ref.PayloadOffset()
	secs := ref.Sections()
	if len(secs) != len(want)+len(wantAux) {
		t.Fatalf("directory holds %d sections, expected %d", len(secs), len(want)+len(wantAux))
	}
	// Pristine on-disk bytes per section, for sibling-intactness checks that
	// work uniformly across matrix and aux sections.
	pristine := make(map[string][]byte, len(secs))
	for _, s := range secs {
		b, err := ref.LoadSectionBytes(s.Name)
		if err != nil {
			t.Fatal(err)
		}
		pristine[s.Name] = b
	}
	for _, target := range secs {
		t.Run(target.Name, func(t *testing.T) {
			b := append([]byte(nil), valid...)
			// Flip one bit in the middle of the target's payload.
			mid := payloadOff + target.Offset + target.byteLen()/2
			b[mid] ^= 0x10
			f, err := OpenReaderAt(bytes.NewReader(b), int64(len(b)))
			if err != nil {
				t.Fatalf("payload corruption must not fail the header open: %v", err)
			}
			defer f.Close()

			// The damaged section reports itself by name, whichever loader
			// asks for it.
			_, err = f.LoadSectionBytes(target.Name)
			var se *SectionError
			if !errors.As(err, &se) || se.Section != target.Name {
				t.Fatalf("corrupted %q: LoadSectionBytes error %v does not name the section", target.Name, err)
			}
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("corrupted %q: error %v does not wrap ErrFormat", target.Name, err)
			}
			if target.Encoding != EncRaw {
				if _, err := f.LoadSection(target.Name); !errors.As(err, &se) || se.Section != target.Name || !errors.Is(err, ErrFormat) {
					t.Fatalf("corrupted %q: LoadSection error %v does not pin the section", target.Name, err)
				}
			}

			// Every other section is untouched and still reads bit-perfectly.
			for _, other := range secs {
				if other.Name == target.Name {
					continue
				}
				got, err := f.LoadSectionBytes(other.Name)
				if err != nil {
					t.Fatalf("corrupting %q broke sibling %q: %v", target.Name, other.Name, err)
				}
				if !bytes.Equal(got, pristine[other.Name]) {
					t.Fatalf("corrupting %q changed sibling %q's payload", target.Name, other.Name)
				}
			}

			// The whole-template materialization fails closed and names the
			// damaged section — no partial-state template can classify.
			_, err = f.Template()
			if !errors.As(err, &se) || se.Section != target.Name || !errors.Is(err, ErrFormat) {
				t.Fatalf("corrupted %q: Template error %v does not pin the section", target.Name, err)
			}
		})
	}
}
