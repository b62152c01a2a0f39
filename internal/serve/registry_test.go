package serve

import (
	"bytes"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
)

// TestRegistryLazyLoadAndStatuses pins the lazy-loading contract: scanning
// registers names without reading files, the first Get loads, and Statuses
// reflects the entry lifecycle.
func TestRegistryLazyLoadAndStatuses(t *testing.T) {
	reg, _ := newTestRegistry(t, RegistryConfig{})
	if got := reg.Names(); len(got) != 1 || got[0] != "demo" {
		t.Fatalf("Names = %v, want [demo]", got)
	}
	sts := reg.Statuses()
	if len(sts) != 1 || sts[0].Loaded {
		t.Fatalf("template loaded before first Get: %+v", sts)
	}
	tpl, err := reg.Get("demo")
	if err != nil {
		t.Fatal(err)
	}
	if tpl.traceLen != fx.traceLen {
		t.Fatalf("loaded traceLen %d, want %d", tpl.traceLen, fx.traceLen)
	}
	sts = reg.Statuses()
	if !sts[0].Loaded || sts[0].Resident || sts[0].TraceLen != fx.traceLen {
		t.Fatalf("post-load status %+v, want loaded from the header alone", sts[0])
	}
	// Materialization (the first decode) wires the template's drift
	// baseline: the per-template drift state is exposed in its status.
	if _, err := tpl.disassembler(); err != nil {
		t.Fatal(err)
	}
	sts = reg.Statuses()
	if !sts[0].Resident || sts[0].Drift == nil {
		t.Fatalf("materialized status %+v, want resident with drift state", sts[0])
	}
	if _, err := reg.Get("nope"); !errors.Is(err, ErrUnknownTemplate) {
		t.Fatalf("unknown template error = %v, want ErrUnknownTemplate", err)
	}
}

// TestRegistryBadFileIsolated pins per-template defect isolation: a corrupt
// file yields a load error on its own Gets and an Error status, while the
// healthy template keeps serving.
func TestRegistryBadFileIsolated(t *testing.T) {
	reg, dir := newTestRegistry(t, RegistryConfig{})
	writeTemplate(t, dir, "corrupt", []byte("not a gob stream"))
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get("corrupt"); err == nil {
		t.Fatal("corrupt template loaded successfully")
	}
	if _, err := reg.Get("demo"); err != nil {
		t.Fatalf("healthy template failed next to a corrupt one: %v", err)
	}
	var corruptStatus, demoStatus *TemplateStatus
	for i := range reg.Statuses() {
		st := reg.Statuses()[i]
		switch st.Name {
		case "corrupt":
			s := st
			corruptStatus = &s
		case "demo":
			s := st
			demoStatus = &s
		}
	}
	if corruptStatus == nil || corruptStatus.Error == "" || corruptStatus.Loaded {
		t.Fatalf("corrupt status = %+v, want an error", corruptStatus)
	}
	if demoStatus == nil || !demoStatus.Loaded {
		t.Fatalf("demo status = %+v, want loaded", demoStatus)
	}
}

// TestRegistryReloadPicksUpChanges pins hot reload: new files appear,
// removed files disappear, and a rewritten file is re-read on the next Get.
func TestRegistryReloadPicksUpChanges(t *testing.T) {
	reg, dir := newTestRegistry(t, RegistryConfig{})
	if _, err := reg.Get("demo"); err != nil {
		t.Fatal(err)
	}

	// New file appears on reload (and not before).
	writeTemplate(t, dir, "second", fx.tpl)
	if _, err := reg.Get("second"); !errors.Is(err, ErrUnknownTemplate) {
		t.Fatalf("unscanned file visible before reload: %v", err)
	}
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get("second"); err != nil {
		t.Fatalf("new template after reload: %v", err)
	}

	// A rewritten file is marked stale and re-read. Rewrite demo as a corrupt
	// file with a distinct mtime so the change is observable.
	path := filepath.Join(dir, "demo"+TemplateExt)
	if err := os.WriteFile(path, []byte("now corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get("demo"); err == nil {
		t.Fatal("rewritten (corrupt) template still served from the stale load")
	}

	// Removed files disappear on reload.
	if err := os.Remove(filepath.Join(dir, "second"+TemplateExt)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get("second"); !errors.Is(err, ErrUnknownTemplate) {
		t.Fatalf("removed template still resolves: %v", err)
	}
}

// TestRegistryReloadNotBlockedBySlowLoad pins the lock decoupling: a slow
// lazy load (the entry mutex held, as Get holds it for the file read) must
// not stall Reload — and with it the registry lock every lookup, Statuses
// and /healthz need — nor Statuses itself. The reload's staleness mark must
// still take effect on the next Get.
func TestRegistryReloadNotBlockedBySlowLoad(t *testing.T) {
	reg, dir := newTestRegistry(t, RegistryConfig{})
	if _, err := reg.Get("demo"); err != nil {
		t.Fatal(err)
	}
	e, err := reg.lookup("demo")
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock() // stand-in for a Get stuck reading a slow file

	// Rewrite the file (corrupt, future mtime) so Reload wants to mark the
	// entry stale — the path that used to take e.mu under the registry lock.
	path := filepath.Join(dir, "demo"+TemplateExt)
	if err := os.WriteFile(path, []byte("now corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- reg.Reload() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Reload blocked behind a held entry lock")
	}
	stses := make(chan []TemplateStatus, 1)
	go func() { stses <- reg.Statuses() }()
	select {
	case sts := <-stses:
		// The busy entry reports not-yet-loaded rather than its held state.
		if len(sts) != 1 || sts[0].Loaded || sts[0].Error != "" {
			t.Fatalf("mid-load status = %+v, want a bare pending entry", sts)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Statuses blocked behind a held entry lock")
	}
	e.mu.Unlock()

	// The staleness mark set by the non-blocking Reload forces a re-read:
	// the rewritten (corrupt) file now fails instead of serving stale state.
	if _, err := reg.Get("demo"); err == nil {
		t.Fatal("stale entry not re-read after a reload that raced a load")
	}
}

// TestRegistryRefusesLegacyTemplates pins the fail-closed registry
// contract: a gob file from an older build, a v4 file marked quantized and
// a plane-normalized v4 file each fail their own Get with
// core.ErrTemplateFormat and an Error status, while the current template in
// the same directory keeps serving.
func TestRegistryRefusesLegacyTemplates(t *testing.T) {
	fixture(t)
	dir := t.TempDir()
	writeTemplate(t, dir, "demo", fx.tpl)
	writeTemplate(t, dir, "gob", legacyGobTemplate(t))
	writeTemplate(t, dir, "quantized", quantizedTemplate(t))
	writeTemplate(t, dir, "plane", planeNormalizedTemplate(t))
	reg, err := NewRegistry(dir, RegistryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gob", "quantized", "plane"} {
		if _, err := reg.Get(name); !errors.Is(err, core.ErrTemplateFormat) {
			t.Fatalf("Get(%q) err = %v, want core.ErrTemplateFormat", name, err)
		}
	}
	tpl, err := reg.Get("demo")
	if err != nil {
		t.Fatal(err)
	}
	d, err := tpl.disassembler()
	if err != nil {
		t.Fatal(err)
	}
	decs, err := d.Disassemble(fx.traces)
	if err != nil {
		t.Fatal(err)
	}
	for i, dec := range decs {
		if dec.String() != fx.want[i] {
			t.Fatalf("demo decode %d = %q next to refused templates, want %q", i, dec, fx.want[i])
		}
	}
	for _, st := range reg.Statuses() {
		if failed := st.Error != ""; failed != (st.Name != "demo") {
			t.Fatalf("status %+v: only the legacy templates should report an error", st)
		}
	}
}

// TestRegistryTruncatedTemplateFailsClosed truncates a template on disk
// after the registry opened it but before its first decode, as an
// operator's in-place cp does. Materializing it comes up short reading the
// open file; that must fail the template with 503 while the others keep
// serving their exact labels.
func TestRegistryTruncatedTemplateFailsClosed(t *testing.T) {
	s, url := newTestServer(t, RegistryConfig{}, Config{})
	dir := s.reg.dir
	victim := writeTemplate(t, dir, "victim", fx.tpl)
	if err := s.reg.Reload(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.reg.Get("victim"); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(victim, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		resp, data := postJSON(t, url+"/v1/disassemble/victim", jsonBody(fx.traces))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("truncated template answered %d, want 503: %s", resp.StatusCode, data)
		}
	}
	resp, data := postJSON(t, url+"/v1/disassemble/demo", jsonBody(fx.traces))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy template answered %d next to a truncated one: %s", resp.StatusCode, data)
	}
	texts, _ := decodeTexts(t, data)
	for i := range texts {
		if texts[i] != fx.want[i] {
			t.Fatalf("demo decode %d = %q next to a truncated template, want %q", i, texts[i], fx.want[i])
		}
	}
}

// TestRegistryRewrittenTemplateFailsClosed overwrites a template in place —
// same path, same inode, as cp does — after a header-only Get, with a
// different valid state of another size (the same template without its
// drift baselines). The open handle still reads at the
// old directory's offsets, so the template must answer 503 (a CRC mismatch
// or a short read) while the others keep serving their exact labels. Once a
// reload sees the changed size, the template serves what the new bytes
// decode to.
func TestRegistryRewrittenTemplateFailsClosed(t *testing.T) {
	s, url := newTestServer(t, RegistryConfig{}, Config{})
	victim := writeTemplate(t, s.reg.dir, "victim", fx.tpl)
	if err := s.reg.Reload(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.reg.Get("victim"); err != nil {
		t.Fatal(err)
	}
	rewritten := baselineFreeTemplate(t)
	if len(rewritten) == len(fx.tpl) {
		t.Fatal("the rewritten template has the old size; a reload could miss the change")
	}
	if err := os.WriteFile(victim, rewritten, 0o644); err != nil {
		t.Fatal(err)
	}
	serves := func(name string, want []string) {
		t.Helper()
		resp, data := postJSON(t, url+"/v1/disassemble/"+name, jsonBody(fx.traces))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("template %q answered %d: %s", name, resp.StatusCode, data)
		}
		texts, _ := decodeTexts(t, data)
		if !slices.Equal(texts, want) {
			t.Fatalf("template %q decodes %q, want %q", name, texts, want)
		}
	}
	for i := 0; i < 2; i++ {
		resp, data := postJSON(t, url+"/v1/disassemble/victim", jsonBody(fx.traces))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("template rewritten in place answered %d, want 503: %s", resp.StatusCode, data)
		}
	}
	serves("demo", fx.want)

	d, err := core.Load(bytes.NewReader(rewritten))
	if err != nil {
		t.Fatal(err)
	}
	decs, err := d.Disassemble(fx.traces)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(decs))
	for i, dec := range decs {
		want[i] = dec.String()
	}
	if err := s.reg.Reload(); err != nil {
		t.Fatal(err)
	}
	serves("victim", want)
}
