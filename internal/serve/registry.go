// Package serve turns the batch disassembler into a long-running service:
// a versioned registry of trained template files behind an HTTP API, with
// admission control, per-template drift monitoring and hot reload.
//
// The obs scoping rules a server needs differ from a CLI run: the metrics
// registry is installed once at startup (obs.SetDefault is safe to call
// while work runs since the atomic handle-swap rework, but the server never
// needs to), tracers are per-request (created only when a request asks for
// one and discarded with the response, so no process-lifetime span buffer
// fills up), and decision/drift sinks hang off each template entry rather
// than off process globals.
package serve

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// TemplateExt is the file extension the registry scans for. The basename
// without the extension is the template's name — version it by naming
// convention ("demo@2.tpl" serves as template "demo@2").
const TemplateExt = ".tpl"

// ErrUnknownTemplate is returned by Registry.Get for names no scanned file
// provides — the HTTP layer maps it to 404.
var ErrUnknownTemplate = errors.New("serve: unknown template")

// RegistryConfig tunes how templates are loaded.
type RegistryConfig struct {
	// Sparse once chose the inference path per template.
	//
	// Deprecated: sparse per-cell extraction is the only inference path;
	// the field is ignored.
	Sparse int
	// Drift configures each template's covariate-shift monitor. Templates
	// without a baseline serve without one.
	Drift obs.DriftConfig
	// Decisions, when non-nil, receives every decision of every template
	// (sampled inside the log). The log keeps its own sequence numbering.
	Decisions *obs.DecisionLog
	// Logger receives load/reload notices; nil uses slog.Default().
	Logger *slog.Logger
}

// loaded is the live state of one template once its file has been opened.
// Loading is two-phase: Get opens the file and decodes only its header
// (cheap — the trace length answers immediately, and a file that could
// never decode is refused here), and the matrix sections materialize into a
// wired Disassembler on the first decode via disassembler().
type loaded struct {
	reg      *Registry
	name     string
	tpl      *core.Template
	traceLen int
	openedAt time.Time

	mu             sync.Mutex
	d              *core.Disassembler
	drift          *obs.DriftMonitor
	matErr         error
	materializedAt time.Time
}

// disassembler returns the wired Disassembler, materializing sections on
// the first call. A failure is remembered and returned on every subsequent
// call — a corrupted section cannot turn into a disk-thrash loop.
func (st *loaded) disassembler() (*core.Disassembler, error) {
	return st.reg.materialize(st)
}

// close releases the template's file descriptor, waiting for a
// materialization in progress to finish reading it. A Disassembler already
// materialized stays valid (its state lives on the heap); an unmaterialized
// handle can no longer materialize — an in-flight request racing a reload
// sees one clean 503 and retries onto the fresh file.
func (st *loaded) close() {
	st.tpl.Close()
}

// entry is one template file the registry knows about. Loading is lazy: the
// file is read on the first Get, under the entry's own mutex so a slow load
// of one template never blocks requests for the others. Reload never takes
// that mutex — it flips the stale flag, checked by the next Get under mu —
// so a slow in-flight load cannot stall a reload (and, via the registry
// lock a reload would otherwise hold, every lookup and health probe).
type entry struct {
	name  string
	path  string
	size  int64 // written only under Registry.mu (scan state, not load state)
	mtime time.Time

	stale atomic.Bool // file changed since the last load; re-read on next Get

	mu      sync.Mutex
	state   *loaded
	loadErr error
}

// Registry maps template names to lazily loaded, hot-reloadable template
// files in one directory. All methods are safe for concurrent use.
type Registry struct {
	dir string
	cfg RegistryConfig
	log *slog.Logger

	mu      sync.RWMutex
	entries map[string]*entry
}

// NewRegistry scans dir for *.tpl files and returns a registry serving them.
// Files are not read yet — loading is lazy — so a directory full of
// defective files still constructs; the defects surface per template on
// first use. The scan itself failing (unreadable directory) is an error.
func NewRegistry(dir string, cfg RegistryConfig) (*Registry, error) {
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	r := &Registry{
		dir:     dir,
		cfg:     cfg,
		log:     cfg.Logger,
		entries: map[string]*entry{},
	}
	if err := r.Reload(); err != nil {
		return nil, err
	}
	return r, nil
}

// Reload rescans the directory: new files appear, removed files disappear,
// and files whose size or mtime changed are marked stale so the next Get
// re-reads them. In-flight requests keep the Disassembler they already
// resolved — a reload never invalidates work mid-request. Returns the scan
// error, if any; individual file defects are per-template, not scan errors.
func (r *Registry) Reload() error {
	names, err := os.ReadDir(r.dir)
	if err != nil {
		return fmt.Errorf("serve: scanning template dir: %w", err)
	}
	seen := map[string]bool{}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, de := range names {
		if de.IsDir() || !strings.HasSuffix(de.Name(), TemplateExt) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // raced with a delete; next reload sees the truth
		}
		name := strings.TrimSuffix(de.Name(), TemplateExt)
		seen[name] = true
		path := filepath.Join(r.dir, de.Name())
		if e, ok := r.entries[name]; ok {
			if e.size != info.Size() || !e.mtime.Equal(info.ModTime()) {
				e.size, e.mtime = info.Size(), info.ModTime()
				e.stale.Store(true) // next Get drops the old state and re-reads
				r.log.Info("template changed, will reload", "template", name)
			}
			continue
		}
		r.entries[name] = &entry{name: name, path: path, size: info.Size(), mtime: info.ModTime()}
		r.log.Info("template registered", "template", name, "path", path)
	}
	for name := range r.entries {
		if !seen[name] {
			delete(r.entries, name)
			r.log.Info("template removed", "template", name)
		}
	}
	return nil
}

// Names returns the sorted names of every registered template.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for name := range r.entries {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// lookup resolves a name to its entry under the read lock.
func (r *Registry) lookup(name string) (*entry, error) {
	r.mu.RLock()
	e := r.entries[name]
	r.mu.RUnlock()
	if e == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTemplate, name)
	}
	return e, nil
}

// Get resolves a template by name, loading its file on first use (and after
// a reload marked it stale). A defective file yields its load error on every
// Get until a reload observes a changed file — the error is remembered, not
// retried per request, so a bad file cannot turn into a disk-thrash loop.
func (r *Registry) Get(name string) (*loaded, error) {
	e, err := r.lookup(name)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stale.Swap(false) {
		if e.state != nil {
			e.state.close() // release the old descriptor; live Disassemblers are unaffected
		}
		e.state, e.loadErr = nil, nil
	}
	if e.state == nil && e.loadErr == nil {
		e.state, e.loadErr = r.load(e)
	}
	return e.state, e.loadErr
}

// load opens one template file, stopping at the header — the cold-start
// path a registry of N devices × M firmware revisions needs. Called with the
// entry lock held. A gob file or a quantized file from an older build, or a
// plane-normalized template, fails here as a per-template load error.
func (r *Registry) load(e *entry) (*loaded, error) {
	tpl, err := core.OpenTemplate(e.path)
	if err != nil {
		return nil, fmt.Errorf("serve: loading template %q: %w", e.name, err)
	}
	st := &loaded{reg: r, name: e.name, tpl: tpl, traceLen: tpl.TraceLen(), openedAt: time.Now()}
	r.log.Info("template opened", "template", e.name, "trace_len", st.traceLen)
	return st, nil
}

// materialize builds and wires the Disassembler on first use: sections are
// loaded and CRC-checked, and the drift monitor and decision observer
// attached. Both the result and a failure are remembered for the handle's
// lifetime.
func (r *Registry) materialize(st *loaded) (*core.Disassembler, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.d != nil || st.matErr != nil {
		return st.d, st.matErr
	}
	d, err := st.tpl.Disassembler()
	if err != nil {
		st.matErr = fmt.Errorf("serve: materializing template %q: %w", st.name, err)
		r.log.Warn("template failed to materialize", "template", st.name, "error", err)
		return nil, st.matErr
	}
	// Per-template drift monitor; templates without a baseline serve without
	// one.
	mon, err := d.NewDriftMonitor(r.cfg.Drift)
	switch {
	case err == nil:
		st.drift = mon
	case errors.Is(err, core.ErrNoDriftBaseline):
		r.log.Info("template predates drift baselines; drift monitoring disabled", "template", st.name)
	default:
		st.matErr = fmt.Errorf("serve: drift monitor for %q: %w", st.name, err)
		return nil, st.matErr
	}
	if st.drift != nil || r.cfg.Decisions != nil {
		d.SetObserver(&core.InferenceObserver{Log: r.cfg.Decisions, Drift: st.drift})
	}
	st.d = d
	st.materializedAt = time.Now()
	r.log.Info("template loaded", "template", st.name, "trace_len", st.traceLen,
		"drift", st.drift != nil, "resident_bytes", st.tpl.ResidentBytes())
	return d, nil
}

// TemplateStatus is the externally visible state of one registry entry, as
// reported by /v1/templates.
type TemplateStatus struct {
	Name   string `json:"name"`
	Loaded bool   `json:"loaded"`
	// Resident is true once the matrix sections have materialized into a
	// servable Disassembler. A template is Loaded (header decoded) from the
	// first Get but Resident only after its first decode.
	Resident bool `json:"resident,omitempty"`
	// ResidentBytes counts decoded section bytes held for this template.
	ResidentBytes int64              `json:"resident_bytes,omitempty"`
	Error         string             `json:"error,omitempty"`
	TraceLen      int                `json:"trace_len,omitempty"`
	LoadedAt      time.Time          `json:"loaded_at,omitempty"`
	Drift         *obs.DriftSnapshot `json:"drift,omitempty"`
}

// PublishMetrics exports every template's load and drift state as labeled
// gauges on the default obs registry, so /metrics alone says a template went
// critical or failed reload — without a request in between. Wired as a
// RuntimeCollector sampler by cmd/scdisd; the decode path refreshes the
// drift gauges per batch in addition. scdisd.template.loaded encodes 1
// loaded, 0 registered-but-not-yet-loaded (lazy), -1 load failed.
func (r *Registry) PublishMetrics() {
	reg := obs.Default()
	if reg == nil {
		return
	}
	loadedVec := reg.GaugeVec("scdisd.template.loaded", "template")
	m := srvMet()
	for _, st := range r.Statuses() {
		v := 0.0
		switch {
		case st.Error != "":
			v = -1 // load or materialize failure — either way, unservable
		case st.Loaded:
			v = 1
		}
		loadedVec.With(st.Name).Set(v)
		if st.Drift != nil {
			m.driftState.With(st.Name).Set(driftStateValue(st.Drift.State))
			m.driftScore.With(st.Name).Set(st.Drift.Score)
		}
	}
}

// Close drops every cached template handle, releasing their file
// descriptors. Disassemblers already handed to in-flight requests stay
// valid — their state lives on the heap. The registry remains usable: a
// later Get re-opens the file, so Close is safe at daemon shutdown and
// between benchmark iterations alike.
func (r *Registry) Close() {
	r.mu.RLock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	for _, e := range entries {
		e.mu.Lock()
		if e.state != nil {
			e.state.close()
		}
		e.state, e.loadErr = nil, nil
		e.mu.Unlock()
	}
}

// Statuses reports every template's current state without forcing loads:
// an entry never requested yet shows Loaded=false with no error.
func (r *Registry) Statuses() []TemplateStatus {
	names := r.Names()
	out := make([]TemplateStatus, 0, len(names))
	for _, name := range names {
		e, err := r.lookup(name)
		if err != nil {
			continue // removed between Names and lookup
		}
		st := TemplateStatus{Name: name}
		// TryLock: an entry mid-load (mutex held by a Get reading the file)
		// reports as not-yet-loaded instead of stalling the status snapshot
		// — and /healthz, which is built on it — behind the file read.
		if !e.mu.TryLock() {
			out = append(out, st)
			continue
		}
		switch {
		case e.loadErr != nil:
			st.Error = e.loadErr.Error()
		case e.state != nil:
			ls := e.state
			st.Loaded = true
			st.TraceLen = ls.traceLen
			st.LoadedAt = ls.openedAt
			// The materialization state lives behind its own lock; TryLock
			// again so a template mid-materialize reports header-only state
			// instead of stalling the snapshot behind the section loads.
			if ls.mu.TryLock() {
				switch {
				case ls.matErr != nil:
					st.Error = ls.matErr.Error()
				case ls.d != nil:
					st.Resident = true
					st.ResidentBytes = ls.tpl.ResidentBytes()
					if ls.drift != nil {
						snap := ls.drift.Snapshot()
						st.Drift = &snap
					}
				}
				ls.mu.Unlock()
			}
		}
		e.mu.Unlock()
		out = append(out, st)
	}
	return out
}
