package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// saveV4 writes the fixture disassembler as a v4 file under t.TempDir.
func saveV4(t *testing.T, d *Disassembler) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fixture.tpl")
	if err := d.SaveStoreFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStoreLazyEqualsEagerDecode is the serving-path property on a real
// trained template: a v4 handle opened header-only and materialized on first
// use must decode the fixture campaign identically to the in-memory
// disassembler it was saved from.
func TestStoreLazyEqualsEagerDecode(t *testing.T) {
	d, traces := sharedFixture(t)
	want, err := d.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}

	tpl, err := OpenTemplate(saveV4(t, d))
	if err != nil {
		t.Fatal(err)
	}
	defer tpl.Close()
	if got := tpl.TraceLen(); got != d.TraceLen() {
		t.Fatalf("header TraceLen = %d, want %d", got, d.TraceLen())
	}
	if tpl.Materialized() {
		t.Fatal("freshly opened v4 handle claims to be materialized")
	}
	if tpl.ResidentBytes() != 0 {
		t.Fatalf("resident bytes %d before materialization", tpl.ResidentBytes())
	}

	back, err := tpl.Disassembler()
	if err != nil {
		t.Fatal(err)
	}
	if !tpl.Materialized() {
		t.Fatal("handle not materialized after Disassembler")
	}
	if tpl.ResidentBytes() == 0 {
		t.Fatal("no resident bytes after materialization")
	}
	got, err := back.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lazy decode %d = %+v, eager %+v", i, got[i], want[i])
		}
	}
	// Materialization is once: the second call returns the same instance.
	again, err := tpl.Disassembler()
	if err != nil || again != back {
		t.Fatalf("second Disassembler call: %p/%v, want the remembered %p", again, err, back)
	}
}

// TestStoreConvertChain covers a load-then-re-save chain: LoadFile of a v4
// file, then SaveStoreFile over the same path. The re-save reproduces the
// file byte for byte, and the re-saved file decodes as the original.
func TestStoreConvertChain(t *testing.T) {
	d, traces := sharedFixture(t)
	want, err := d.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}
	path := saveV4(t, d)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.SaveStoreFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, orig) {
		t.Fatal("a plain re-save changed the file bytes")
	}
	tpl, err := OpenTemplate(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tpl.Close()
	resaved, err := tpl.Disassembler()
	if err != nil {
		t.Fatal(err)
	}
	got, err := resaved.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("re-saved decode %d = %+v, original %+v", i, got[i], want[i])
		}
	}
}

// TestStoreCorruptSectionFailsClosed flips one payload byte in a real
// template file: the header-only open still succeeds, materialization fails
// naming the damaged section under both error taxonomies (core's
// ErrTemplateFormat and store's ErrFormat), the failure is remembered, and
// the handle never yields a partially initialized disassembler.
func TestStoreCorruptSectionFailsClosed(t *testing.T) {
	d, _ := sharedFixture(t)
	path := saveV4(t, d)
	sf, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	secs := sf.Sections()
	payloadOff := sf.PayloadOffset()
	sf.Close()
	if len(secs) == 0 {
		t.Fatal("fixture template has no sections")
	}
	// First, an interior, and the last section — the full per-section matrix
	// runs on the tiny synthetic state in internal/store.
	for _, idx := range []int{0, len(secs) / 2, len(secs) - 1} {
		target := secs[idx]
		t.Run(target.Name, func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[payloadOff+target.Offset] ^= 0x08
			bad := filepath.Join(t.TempDir(), "corrupt.tpl")
			if err := os.WriteFile(bad, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			tpl, err := OpenTemplate(bad)
			if err != nil {
				t.Fatalf("payload corruption must not fail the header open: %v", err)
			}
			defer tpl.Close()
			bd, err := tpl.Disassembler()
			if bd != nil || err == nil {
				t.Fatal("corrupted template materialized")
			}
			if !errors.Is(err, ErrTemplateFormat) || !errors.Is(err, store.ErrFormat) {
				t.Fatalf("error %v outside the format taxonomies", err)
			}
			var se *store.SectionError
			if !errors.As(err, &se) || se.Section != target.Name {
				t.Fatalf("error %v does not name section %q", err, target.Name)
			}
			if tpl.Materialized() {
				t.Fatal("handle claims materialized after a failed materialization")
			}
			if _, err2 := tpl.Disassembler(); err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("second materialization gave %v, want the remembered %v", err2, err)
			}
		})
	}
}

// TestOpenTemplateRejectsDefectiveFiles covers the header-open edge cases.
func TestOpenTemplateRejectsDefectiveFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := OpenTemplate(filepath.Join(dir, "missing.tpl")); err == nil {
		t.Fatal("missing file accepted")
	}
	// Garbage without the v4 magic fails the magic check.
	if _, err := OpenTemplate(write("junk.tpl", []byte("junk template bytes"))); !errors.Is(err, ErrTemplateFormat) {
		t.Fatalf("junk without the magic: %v, want ErrTemplateFormat", err)
	}
	// The v4 magic followed by garbage fails the store's screens.
	if _, err := OpenTemplate(write("sct4.tpl", append([]byte(store.Magic), bytes.Repeat([]byte{0xAB}, 64)...))); !errors.Is(err, ErrTemplateFormat) {
		t.Fatalf("junk behind the magic: %v, want ErrTemplateFormat", err)
	}
	// A well-formed file without a group level fails the header screen.
	if _, err := OpenTemplate(write("bare.tpl", stateBytes(t, &store.TemplateState{}))); !errors.Is(err, ErrTemplateFormat) {
		t.Fatalf("file without a group level: %v, want ErrTemplateFormat", err)
	}
}

// TestTemplateCloseBeforeMaterialize pins the handle lifecycle: a closed,
// never-materialized v4 handle refuses to materialize instead of crashing.
func TestTemplateCloseBeforeMaterialize(t *testing.T) {
	d, _ := sharedFixture(t)
	tpl, err := OpenTemplate(saveV4(t, d))
	if err != nil {
		t.Fatal(err)
	}
	if err := tpl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tpl.Disassembler(); err == nil {
		t.Fatal("closed handle materialized")
	}
	if !strings.Contains(strings.ToLower(headErr(tpl)), "closed") {
		t.Fatalf("materialization-after-close error %q does not mention the close", headErr(tpl))
	}
}

// TestTemplateCloseWaitsForMaterialize pins that Close is serialized with
// materialization, which reads the open file: closing it mid-read would
// fail the materialization with os.ErrClosed, and the handle would keep
// that failure. Holding the handle's lock stands in for a materialization
// in progress; Close must not return until it is released. Then Close races
// real materializations. Either order is legal — the handle materializes
// fully and decodes, or it refuses because it was closed first.
func TestTemplateCloseWaitsForMaterialize(t *testing.T) {
	d, traces := sharedFixture(t)
	want, err := d.Disassemble(traces[:2])
	if err != nil {
		t.Fatal(err)
	}
	path := saveV4(t, d)

	tpl, err := OpenTemplate(path)
	if err != nil {
		t.Fatal(err)
	}
	tpl.mu.Lock()
	closed := make(chan error, 1)
	go func() { closed <- tpl.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while a materialization held the handle")
	case <-time.After(100 * time.Millisecond):
	}
	tpl.mu.Unlock()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 8; i++ {
		tpl, err := OpenTemplate(path)
		if err != nil {
			t.Fatal(err)
		}
		started := make(chan struct{})
		type result struct {
			d   *Disassembler
			err error
		}
		done := make(chan result)
		go func() {
			close(started)
			back, err := tpl.Disassembler()
			done <- result{back, err}
		}()
		<-started
		if err := tpl.Close(); err != nil {
			t.Fatal(err)
		}
		res := <-done
		if res.err != nil {
			if !strings.Contains(res.err.Error(), "closed") {
				t.Fatalf("round %d: materialization racing Close failed with %v", i, res.err)
			}
			continue
		}
		got, err := res.d.Disassemble(traces[:2])
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("round %d: decode %d = %+v, want %+v", i, j, got[j], want[j])
			}
		}
	}
}

func headErr(tpl *Template) string {
	_, err := tpl.Disassembler()
	if err == nil {
		return ""
	}
	return err.Error()
}

// Materialized reports whether the Disassembler has been built. Only the
// lazy-residency tests ask.
func (t *Template) Materialized() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done && t.err == nil && t.d != nil
}
