package serve

// HTTP request telemetry: every route is wrapped in instrument(), which
// assigns a request ID, counts the request into the labeled serving metrics
// (route/template/status), times it, sizes both directions, and emits one
// structured JSON access-log line. The handler contributes request-scoped
// detail (traces decoded, admission wait, decode duration) through the
// reqStats carried in the context.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// srvMetrics holds the serving instrument handles, swapped atomically by the
// OnDefault hook like every instrumented package.
type srvMetrics struct {
	requests   *obs.CounterVec   // scdisd.http.requests.total{route,template,code}
	latency    *obs.HistogramVec // scdisd.http.request.seconds{route,template}
	reqBytes   *obs.HistogramVec // scdisd.http.request.bytes{route}
	respBytes  *obs.HistogramVec // scdisd.http.response.bytes{route}
	admWait    *obs.HistogramVec // scdisd.http.admission.wait.seconds{template}
	inflight   *obs.Gauge        // scdisd.http.inflight — requests currently in a handler
	driftState *obs.GaugeVec     // scdisd.template.drift.state{template} (0 ok, 1 warn, 2 critical)
	driftScore *obs.GaugeVec     // scdisd.template.drift.score{template}
}

var srvMetPtr atomic.Pointer[srvMetrics]

func srvMet() *srvMetrics {
	if m := srvMetPtr.Load(); m != nil {
		return m
	}
	return &srvMetrics{}
}

func init() {
	obs.OnDefault(func(r *obs.Registry) {
		srvMetPtr.Store(&srvMetrics{
			requests:   r.CounterVec("scdisd.http.requests.total", "route", "template", "code"),
			latency:    r.HistogramVec("scdisd.http.request.seconds", obs.DurationBuckets(), "route", "template"),
			reqBytes:   r.HistogramVec("scdisd.http.request.bytes", obs.ByteBuckets(), "route"),
			respBytes:  r.HistogramVec("scdisd.http.response.bytes", obs.ByteBuckets(), "route"),
			admWait:    r.HistogramVec("scdisd.http.admission.wait.seconds", obs.DurationBuckets(), "template"),
			inflight:   r.Gauge("scdisd.http.inflight"),
			driftState: r.GaugeVec("scdisd.template.drift.state", "template"),
			driftScore: r.GaugeVec("scdisd.template.drift.score", "template"),
		})
	})
}

// Request IDs are a per-process random nonce plus a sequence number — unique
// across restarts without coordination, cheap to mint, and greppable from an
// access-log line back to a client's X-Request-Id header.
var (
	reqIDNonce = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "00000000"
		}
		return hex.EncodeToString(b[:])
	}()
	reqIDSeq atomic.Uint64
)

func nextRequestID() string {
	return fmt.Sprintf("%s-%06d", reqIDNonce, reqIDSeq.Add(1))
}

// maxRequestIDLen bounds an honored client request ID — long enough for a
// UUID plus prefix, short enough that a hostile header cannot bloat logs.
const maxRequestIDLen = 64

// requestID returns the ID for this request and its source: a client-supplied
// X-Request-Id is honored verbatim when it is 1..maxRequestIDLen bytes of
// printable non-space ASCII — anything else (empty, over-long, control bytes,
// non-ASCII) falls back to a generated ID so logs stay single-line and
// grep-safe. Over-long IDs are rejected rather than truncated: a truncated
// echo would no longer match the ID the client logged, and two distinct long
// IDs could silently collide in the access log.
func requestID(r *http.Request) (id, source string) {
	c := r.Header.Get("X-Request-Id")
	if c != "" && len(c) <= maxRequestIDLen && validRequestID(c) {
		return c, "client"
	}
	return nextRequestID(), "generated"
}

func validRequestID(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] <= ' ' || s[i] > '~' {
			return false
		}
	}
	return true
}

// reqStats is the request-scoped record the handler fills in for the
// middleware to log and label: which template was addressed, how long
// admission and decode took, how many traces were decoded.
type reqStats struct {
	template     string
	traces       int
	admWaitSecs  float64
	decodeSecs   float64
	sawAdmission bool
}

type reqStatsKey struct{}

func withReqStats(ctx context.Context, st *reqStats) context.Context {
	return context.WithValue(ctx, reqStatsKey{}, st)
}

func statsFrom(ctx context.Context) *reqStats {
	st, _ := ctx.Value(reqStatsKey{}).(*reqStats)
	return st
}

// statusWriter records the status code and body bytes of a response, and —
// critically for writeError's append-after-partial-success guard — whether
// the header has already gone out.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (w *statusWriter) WriteHeader(status int) {
	if !w.wrote {
		w.status = status
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.status = http.StatusOK
		w.wrote = true
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// countingReader counts request-body bytes actually read by the handler.
type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

// traceMaxSpans caps one request's retained spans. A 512-span tree is
// already far past human-readable; the cap exists so a giant batch cannot
// hold tens of thousands of span structs per in-flight request. Exported
// traces over the cap carry the truncated marker instead of silently
// missing children.
const traceMaxSpans = 512

// instrument wraps a route handler with request telemetry, per-request
// tracing and access logging. route is the stable low-cardinality label for
// the route (the pattern, not the raw path — raw paths would blow the label
// budget).
//
// Tracing: every request gets its own fine-grained Tracer, taken from a
// pool and carried in the context — W3C trace identity comes from an
// incoming traceparent header when present (and its sampled flag forces the
// tail sampler's keep), a fresh random trace ID otherwise; the response
// echoes a traceparent naming our root span so callers can stitch trees.
// The keep/drop decision is tail-based: it runs in the deferred recorder
// when status and duration are known, and a kept trace goes to the debug
// ring and the async exporter — never blocking the response path. The
// tracer goes back to its pool after that, on a normal return only.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		m := srvMet()
		id, idSource := requestID(r)
		w.Header().Set("X-Request-Id", id)

		// Per-request tracer, from the pool: trace identity first, so the
		// echoed traceparent (headers must precede the body) can name the
		// root span.
		tracer := requestTracers.get()
		tracer.Reset()
		forced := r.URL.Query().Get("trace") == "1"
		traceID, remoteParent := obs.TraceID{}, obs.SpanID{}
		if tid, pid, sampled, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
			traceID, remoteParent = tid, pid
			forced = forced || sampled
		}
		if traceID.IsZero() {
			traceID = obs.NewTraceID()
		}
		tracer.SetTraceContext(traceID, remoteParent)

		st := &reqStats{template: r.PathValue("template")}
		if st.template == "" {
			st.template = "-"
		}
		sw := &statusWriter{ResponseWriter: w}
		cr := &countingReader{r: r.Body}
		r.Body = cr
		ctx := withReqStats(obs.WithTracer(r.Context(), tracer), st)
		ctx, root := obs.Span(ctx, "serve.request")
		w.Header().Set("traceparent", obs.FormatTraceparent(traceID, root.ExportID(), true))
		r = r.WithContext(ctx)

		m.inflight.Add(1)
		start := time.Now()
		// The deferred recorder runs on panics too (including the deliberate
		// http.ErrAbortHandler from writeError's partial-response guard), so
		// even an aborted request leaves a metric sample and a log line.
		defer func() {
			rec := recover()
			elapsed := time.Since(start)
			status := sw.status
			if !sw.wrote {
				status = http.StatusOK // implicit 200 on a bodyless return
				if rec != nil {
					status = http.StatusInternalServerError
				}
			}
			code := strconv.Itoa(status)

			root.SetAttr("status", float64(status))
			root.End()
			// Tail sampling: the slow rule reads the live decode-latency
			// histogram, which only decode requests feed — health probes and
			// metric scrapes would otherwise drag the quantile to microseconds
			// and mark every decode "slow". The decision runs before the
			// metric observations so the latency exemplar can name only kept
			// traces: a dropped trace is exported nowhere and absent from the
			// debug ring, so an exemplar pointing at it would dead-end.
			sampleDur := elapsed
			if route == "disassemble" {
				s.sampleLatency().Observe(elapsed.Seconds())
			} else {
				sampleDur = 0
			}
			keep, reason := s.sampler.Decide(status, sampleDur, forced)

			// The trace ID's hex is built only for a kept trace or a log line.
			traceHex := ""
			if keep || s.access != nil {
				traceHex = traceID.String()
			}
			m.requests.With(route, st.template, code).Inc()
			exemplarID := ""
			if keep {
				exemplarID = traceHex
			}
			m.latency.With(route, st.template).ObserveWithExemplar(elapsed.Seconds(), exemplarID)
			m.reqBytes.With(route).Observe(float64(cr.n))
			m.respBytes.With(route).Observe(float64(sw.bytes))
			if st.sawAdmission {
				m.admWait.With(st.template).Observe(st.admWaitSecs)
			}
			m.inflight.Add(-1)

			if keep {
				tr := tracer.Export()
				tr.Route, tr.Template, tr.Status = route, st.template, status
				tr.RequestID, tr.Reason = id, reason
				exported := s.exporter.Export(tr)
				s.ring.push(requestRecord{
					Time:      start.UTC(),
					TraceID:   traceHex,
					RequestID: id,
					Route:     route,
					Template:  st.template,
					Status:    status,
					DurMS:     float64(elapsed) / float64(time.Millisecond),
					Reason:    reason,
					Spans:     len(tr.Spans),
					Truncated: tr.Truncated,
					Exported:  exported,
				})
			}
			if s.access != nil {
				attrs := []slog.Attr{
					slog.String("id", id),
					slog.String("id_source", idSource),
					slog.String("trace", traceHex),
					slog.String("route", route),
					slog.String("method", r.Method),
					slog.String("path", r.URL.Path),
					slog.String("template", st.template),
					slog.Int("status", status),
					slog.Int64("bytes_in", cr.n),
					slog.Int64("bytes_out", sw.bytes),
					slog.Float64("duration_ms", float64(elapsed)/float64(time.Millisecond)),
					slog.String("remote", r.RemoteAddr),
				}
				if st.traces > 0 {
					attrs = append(attrs, slog.Int("traces", st.traces))
				}
				if st.sawAdmission {
					attrs = append(attrs, slog.Float64("admission_wait_ms", st.admWaitSecs*1e3))
				}
				if st.decodeSecs > 0 {
					attrs = append(attrs, slog.Float64("decode_ms", st.decodeSecs*1e3))
				}
				if keep {
					attrs = append(attrs, slog.String("sampled", reason))
				}
				if rec != nil {
					attrs = append(attrs, slog.Bool("aborted", true))
				}
				s.access.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
			}
			if rec != nil {
				panic(rec)
			}
			// Export, the ring record and the ?trace=1 tree copied what they
			// hold, and the handler has returned: no span of the tracer is in
			// use any more.
			requestTracers.put(tracer)
		}()
		h(sw, r)
	}
}
