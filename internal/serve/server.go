package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// Config tunes the HTTP front end.
type Config struct {
	// MaxInFlight caps concurrently decoded batches; <1 defaults to 2. Each
	// batch already fans out over the parallel worker pool, so a small number
	// of in-flight batches saturates the CPUs — more just grows the heap.
	MaxInFlight int
	// MaxQueue is how many batches may wait for a decode slot before the
	// server starts shedding with 429; <0 defaults to 8.
	MaxQueue int
	// RetryAfter is the hint sent with 429 responses; <=0 defaults to 1s.
	RetryAfter time.Duration
	// MaxBodyBytes bounds request bodies; <=0 defaults to 256 MiB.
	MaxBodyBytes int64
	// Logger receives request-path warnings; nil uses slog.Default().
	Logger *slog.Logger
	// AccessLog, when non-nil, receives one structured JSON line per request
	// (id, route, template, status, sizes, timings). Nil disables access
	// logging; metrics are recorded either way.
	AccessLog io.Writer
	// TraceExporter, when non-nil, receives tail-sampled request traces as
	// JSONL. The caller owns its lifecycle (Close after the server drains).
	// Nil disables export; the debug ring still works.
	TraceExporter *obs.TraceExporter
	// TraceSampleRate is the probability of keeping a healthy request's
	// trace, in [0, 1]. Error, shed (429) and slow-percentile traces are
	// always kept regardless of the rate.
	TraceSampleRate float64
	// TraceSampler overrides the tail sampler built from TraceSampleRate —
	// tests inject one with a controlled latency histogram. Nil builds the
	// default.
	TraceSampler *obs.TailSampler
	// DebugRequests sizes the /debug/requests ring of recent sampled
	// requests: 0 defaults to 128, negative disables the ring.
	DebugRequests int
}

// Server is the HTTP front end over a template Registry: decode requests,
// registry introspection, health, metrics and admin reload. Build with
// NewServer, mount via Handler.
type Server struct {
	reg      *Registry
	adm      *parallel.Admission
	cfg      Config
	log      *slog.Logger
	access   *slog.Logger // nil when access logging is disabled
	mux      *http.ServeMux
	http     *http.Server
	sampler  *obs.TailSampler   // tail-sampling policy; never nil
	exporter *obs.TraceExporter // nil when trace export is disabled
	ring     *requestRing       // nil when the debug ring is disabled
}

// NewServer wires a server around reg. The admission gate is created here:
// one gate for the whole server, shared by every template, because the
// resource it protects (the worker pool and the heap) is process-wide.
func NewServer(reg *Registry, cfg Config) *Server {
	if cfg.MaxInFlight < 1 {
		cfg.MaxInFlight = 2
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 8
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 256 << 20
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	ringSize := cfg.DebugRequests
	if ringSize == 0 {
		ringSize = 128
	}
	s := &Server{
		reg:      reg,
		adm:      parallel.NewAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		cfg:      cfg,
		log:      cfg.Logger,
		mux:      http.NewServeMux(),
		sampler:  cfg.TraceSampler,
		exporter: cfg.TraceExporter,
		ring:     newRequestRing(ringSize),
	}
	if s.sampler == nil {
		// The sampler's slow rule reads a private live latency histogram fed
		// by decode requests (middleware), not a registry instrument — the
		// registry handle can be swapped by SetDefault mid-flight.
		s.sampler = obs.NewTailSampler(cfg.TraceSampleRate, obs.NewHistogram(obs.DurationBuckets()))
	}
	if cfg.AccessLog != nil {
		s.access = slog.New(slog.NewJSONHandler(cfg.AccessLog, nil))
	}
	// Every route goes through instrument(): labeled request metrics, request
	// ID, access log. The route label is the pattern name, never the raw path.
	s.mux.HandleFunc("POST /v1/disassemble/{template}", s.instrument("disassemble", s.handleDisassemble))
	s.mux.HandleFunc("GET /v1/templates", s.instrument("templates", s.handleTemplates))
	s.mux.HandleFunc("GET /livez", s.instrument("livez", s.handleLivez))
	s.mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReadyz))
	// /healthz predates the liveness/readiness split; it stays as a readiness
	// alias so existing probes keep their semantics (load balancers must stop
	// sending traffic when the server cannot answer anything but 503s).
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleReadyz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /metrics.json", s.instrument("metrics.json", s.handleMetricsJSON))
	s.mux.HandleFunc("POST /admin/reload", s.instrument("reload", s.handleReload))
	s.mux.HandleFunc("GET /debug/requests", s.instrument("debug.requests", s.handleDebugRequests))
	s.mux.HandleFunc("GET /debug/buildinfo", s.instrument("debug.buildinfo", s.handleDebugBuildInfo))
	// Built here, not in Serve, so Shutdown from another goroutine never
	// races the assignment.
	s.http = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// bodyReadTimeout bounds how long an admitted decode request may take to
// deliver its body. The request holds a decode slot from admission on, so a
// client that trickles or stalls its body would otherwise pin the slot until
// it disconnects; past the deadline it is answered 408 and the slot freed.
// A variable so tests can shorten it.
var bodyReadTimeout = 30 * time.Second

// Handler returns the route tree, for mounting under an http.Server or a
// test server. scdisbench's load generator mounts it; ListenAndServe here
// serves s.mux directly.
func (s *Server) Handler() http.Handler { return s.mux }

// sampleLatency returns the live latency histogram the tail sampler's slow
// rule reads; the middleware feeds it with decode-request durations. May be
// nil (Observe on a nil histogram is a no-op).
func (s *Server) sampleLatency() *obs.Histogram {
	if s.sampler == nil {
		return nil
	}
	return s.sampler.Latency
}

// ListenAndServe serves on addr until Shutdown. Returns http.ErrServerClosed
// after a clean shutdown, like the underlying http.Server.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Serve serves on an existing listener until Shutdown — the ":0" path for
// tests and supervisors that pick the port themselves.
func (s *Server) Serve(l net.Listener) error {
	return s.http.Serve(l)
}

// Shutdown drains the server: the listener closes immediately, in-flight
// requests run to completion (bounded by ctx), then Shutdown returns. New
// decode work is not accepted during the drain because the listener is gone.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.http.Shutdown(ctx)
}

// apiError is the uniform JSON error body.
type apiError struct {
	Error string `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	// Once any handler has started a response body, an error can no longer be
	// expressed in-band: appending error JSON to a partial success would hand
	// the client a 200 with a corrupt body that parses as neither. Abort the
	// connection instead — the client sees a transport error, which is honest.
	if sw, ok := w.(*statusWriter); ok && sw.wrote {
		s.log.Error("error after response started; aborting connection",
			"status", status, "error", msg)
		panic(http.ErrAbortHandler)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(apiError{Error: msg})
}

// DecodedInstr is one decoded instruction of a response, with its
// per-decision confidence record.
type DecodedInstr struct {
	Index      int     `json:"index"`
	Text       string  `json:"text"`
	Confidence float64 `json:"confidence"`
	// Levels is the per-hierarchy-level breakdown (group, instr, rd, rr).
	Levels []obs.DecisionLevel `json:"levels,omitempty"`
}

// DisassembleResponse is the body of a successful decode.
type DisassembleResponse struct {
	Template string `json:"template"`
	Count    int    `json:"count"`
	// Sparse reports the sparse per-cell inference path.
	//
	// Deprecated: it is the only path; the field is always true.
	Sparse  bool           `json:"sparse"`
	Decoded []DecodedInstr `json:"decoded"`
	// Drift is the template's covariate-shift state after this batch, when
	// the template carries a drift baseline.
	Drift *obs.DriftSnapshot `json:"drift,omitempty"`
	// Spans is the request's stage tree, present only with ?trace=1.
	Spans []*obs.SpanNode `json:"spans,omitempty"`
}

// handleDisassemble decodes one batch of traces against the named template,
// parsing the body into a pooled batch. The batch goes back to its pool
// after the response is written, and not at all when the decode panics:
// the put is not deferred, so a panic unwinding past it leaves the batch to
// the GC.
func (s *Server) handleDisassemble(w http.ResponseWriter, r *http.Request) {
	b := batches.get()
	s.disassemble(w, r, b)
	batches.put(b)
}

// disassemble serves one decode request, with b holding the parsed body.
//
// The body is JSON {"traces": [[...], ...]} or a packed little-endian
// frame, which skips JSON float formatting for large batches (see
// traceBatch.read). A body past MaxBodyBytes is 413, a body not received
// within bodyReadTimeout of admission 408, any other malformed body 400.
func (s *Server) disassemble(w http.ResponseWriter, r *http.Request, b *traceBatch) {
	name := r.PathValue("template")
	tpl, err := s.reg.Get(name)
	if err != nil {
		if errors.Is(err, ErrUnknownTemplate) {
			s.writeError(w, http.StatusNotFound, "unknown template %q", name)
			return
		}
		// The file exists but cannot be served (corrupt, wrong version...):
		// the template is unavailable, not the request malformed.
		s.writeError(w, http.StatusServiceUnavailable, "template %q unavailable: %v", name, err)
		return
	}

	// Admission before the body is touched: the gate exists to keep the heap
	// flat under a burst, and a body can be up to MaxBodyBytes — parsing
	// outside the gate would let an unbounded number of parsed batches pile
	// up waiting for decode slots. The trade is that a malformed body holds a
	// slot for the (brief) parse; under overload it is shed unread with 429.
	// The request context bounds the queue wait, so a client that gives up
	// frees its queue slot immediately.
	admStart := time.Now()
	release, err := s.adm.Acquire(r.Context())
	if st := statsFrom(r.Context()); st != nil {
		st.admWaitSecs = time.Since(admStart).Seconds()
		st.sawAdmission = true
	}
	if err != nil {
		if errors.Is(err, parallel.ErrOverloaded) {
			w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds()+0.5)))
			s.writeError(w, http.StatusTooManyRequests, "server overloaded: %d decoding, %d queued",
				s.adm.MaxInFlight(), s.adm.MaxQueue())
			return
		}
		s.writeError(w, http.StatusServiceUnavailable, "canceled while queued: %v", err)
		return
	}
	defer release()
	// The body deadline starts with the slot. A connection that cannot take
	// a deadline (ErrNotSupported) keeps the server's own timeouts.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(bodyReadTimeout))

	ctx := r.Context()
	root := obs.ContextSpan(ctx)

	// Materialize inside the admission gate: a template's first decode
	// faults its matrix sections in here, and section memory is exactly the
	// kind of burst the gate exists to bound.
	loadSpan := root.FineChild("serve.template.load")
	d, err := tpl.disassembler()
	loadSpan.End()
	if err != nil {
		s.writeError(w, http.StatusServiceUnavailable, "template %q unavailable: %v", name, err)
		return
	}

	decodeBodySpan := root.FineChild("serve.decode.body")
	traces, err := b.read(r, s.cfg.MaxBodyBytes, tpl.traceLen)
	// Clear the deadline once the body is in, so it cannot reach the decode:
	// net/http reads the connection in the background after the body's EOF,
	// and a failed read of the connection cancels the request context.
	_ = rc.SetReadDeadline(time.Time{})
	decodeBodySpan.SetAttr("traces", float64(len(traces)))
	decodeBodySpan.End()
	if err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			s.writeError(w, http.StatusRequestTimeout, "request body not received within %v", bodyReadTimeout)
			return
		}
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte limit", tooLarge.Limit)
			return
		}
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	decodeStart := time.Now()
	decs, err := d.DisassembleScoredCtx(ctx, traces)
	if st := statsFrom(r.Context()); st != nil {
		st.decodeSecs = time.Since(decodeStart).Seconds()
		st.traces = len(traces)
	}
	if err != nil {
		if ctx.Err() != nil {
			// Client went away or the server is draining; nobody is reading.
			s.writeError(w, http.StatusServiceUnavailable, "decode canceled: %v", ctx.Err())
			return
		}
		s.writeError(w, http.StatusInternalServerError, "decode failed after %d instructions: %v", len(decs), err)
		return
	}

	resp := DisassembleResponse{
		Template: name,
		Count:    len(decs),
		Sparse:   true,
		Decoded:  make([]DecodedInstr, len(decs)),
	}
	for i, dec := range decs {
		resp.Decoded[i] = DecodedInstr{
			Index:      i,
			Text:       dec.Decoded.String(),
			Confidence: dec.Confidence,
			Levels:     dec.Levels,
		}
	}
	if tpl.drift != nil {
		snap := tpl.drift.Snapshot()
		resp.Drift = &snap
		// Refresh the scrapeable drift gauges with every batch, so /metrics
		// reflects the state this response reported, not the last ticker pass.
		m := srvMet()
		m.driftState.With(name).Set(driftStateValue(snap.State))
		m.driftScore.With(name).Set(snap.Score)
	}
	if r.URL.Query().Get("trace") == "1" {
		// The in-band span tree shows the stages recorded so far; the root
		// middleware span is still open (it ends after this body is written)
		// so handler-stage spans render at the top level.
		resp.Spans = obs.TracerFrom(ctx).Tree()
	}
	// Encode before writing: a marshal failure mid-stream would leave the
	// client a partial 200 no error can follow (writeError refuses to append
	// one). Buffering makes encode errors a clean 500 instead. The encoder
	// writes json.Marshal's bytes and a newline, and nothing on error.
	out := responses.get()
	out.buf.Reset()
	if err := out.enc.Encode(&resp); err != nil {
		responses.put(out)
		s.writeError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(out.buf.Bytes())
	responses.put(out)
}

// driftStateValue maps a drift state name to its gauge encoding (the
// DriftState enum values: 0 ok, 1 warn, 2 critical).
func driftStateValue(state string) float64 {
	switch state {
	case "warn":
		return 1
	case "critical":
		return 2
	default:
		return 0
	}
}

// handleTemplates reports every registered template's status, including each
// loaded template's drift state — the per-template drift endpoint.
func (s *Server) handleTemplates(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Templates []TemplateStatus `json:"templates"`
	}{s.reg.Statuses()})
}

// handleLivez is the liveness probe: 200 whenever the process can run a
// handler at all. Liveness deliberately knows nothing about templates or
// load — an orchestrator restarts on liveness failure, and restarting does
// not fix a bad template directory or a saturated gate.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		OK bool `json:"ok"`
	}{true})
}

// handleReadyz is the readiness probe (also served at /healthz for
// compatibility): 200 while at least one registered template could plausibly
// serve AND the admission gate would still admit a request. 503 for an empty
// registry, one where every registered file has already failed to load, or a
// saturated gate — readiness must not stay green when the server can answer
// nothing but 503s and 429s. Entries never requested yet (lazy, no load
// attempted) count as plausibly healthy.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	sts := s.reg.Statuses()
	failed := 0
	for _, st := range sts {
		if st.Error != "" {
			failed++
		}
	}
	saturated := s.adm.Saturated()
	status := http.StatusOK
	if len(sts) == 0 || failed == len(sts) || saturated {
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		OK        bool `json:"ok"`
		Templates int  `json:"templates"`
		Failed    int  `json:"failed"`
		Saturated bool `json:"saturated"`
		InFlight  int  `json:"in_flight"`
		Queued    int  `json:"queued"`
	}{status == http.StatusOK, len(sts), failed, saturated, s.adm.InFlight(), s.adm.Queued()})
}

// handleMetrics renders the process obs registry in Prometheus exposition
// format. The serving instruments (admission gauges, spans dropped,
// decision counters) all live there via the OnDefault hooks.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := obs.Default()
	if reg == nil {
		s.writeError(w, http.StatusServiceUnavailable, "no metrics registry installed")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	reg.WritePrometheus(w)
}

// handleMetricsJSON is the same snapshot as /metrics in JSON.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	reg := obs.Default()
	if reg == nil {
		s.writeError(w, http.StatusServiceUnavailable, "no metrics registry installed")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	reg.WriteJSON(w)
}

// handleReload rescans the template directory — the admin twin of SIGHUP.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Reload(); err != nil {
		s.writeError(w, http.StatusInternalServerError, "reload failed: %v", err)
		return
	}
	s.handleTemplates(w, r)
}
