// Command scdisd serves trained disassembler templates over HTTP — the
// disassembly-as-a-service front end over the same core the scdis CLI uses.
//
//	scdisd -templates dir/ -addr :8080
//
// Every *.tpl file in the directory becomes a template named after its
// basename ("demo.tpl" serves as "demo"; version by naming, e.g.
// "demo@2.tpl"). Template files are v4 template stores (scdis demo -save);
// a gob or quantized file from an older build is refused per template
// while the others keep serving. Files are opened lazily on first request —
// header only, the matrices materialize on the first decode — and
// hot-reloaded: SIGHUP or POST /admin/reload rescans the directory, picking
// up new, changed and removed files without dropping in-flight requests.
//
// Endpoints:
//
//	POST /v1/disassemble/{template}   decode a trace batch; JSON
//	                                  {"traces": [[...], ...]} or
//	                                  application/octet-stream (uint32 LE
//	                                  count, uint32 LE traceLen, float64 LE
//	                                  samples); add ?trace=1 for a stage tree
//	GET  /v1/templates                per-template status incl. drift state
//	GET  /livez                       liveness (200 while the process runs)
//	GET  /readyz                      readiness (503 with no loadable
//	                                  templates or a saturated gate)
//	GET  /healthz                     readiness alias (compatibility)
//	GET  /metrics, /metrics.json      process metrics (Prometheus / JSON)
//	POST /admin/reload                rescan the template directory
//	GET  /debug/requests              recent tail-sampled requests (JSON, or
//	                                  ?format=text for a table)
//	GET  /debug/buildinfo             module version, VCS revision, go version
//
// Observability: every request is counted into labeled metrics
// (route/template/status), and -access-log writes one JSON line per request.
// A runtime collector samples goroutines, heap, GC pauses and per-template
// load/drift state every -runtime-interval.
//
// Tracing: every request runs under its own span tree (middleware →
// admission wait → body decode → template load → per-level classification).
// W3C traceparent headers are ingested and echoed, so callers can correlate
// across services. A tail sampler keeps every error/429/slow trace and a
// -trace-sample fraction of the rest; kept traces land in /debug/requests
// and, with -trace-export, as JSONL readable by 'scdis trace'. Latency
// histograms carry the most recent kept trace's ID as an exemplar in
// /metrics.json (the classic /metrics text format cannot carry exemplars).
//
// Backpressure: at most -max-inflight batches decode concurrently and at
// most -max-queue wait; beyond that the server sheds with 429 and a
// Retry-After hint. SIGINT/SIGTERM drains: the listener closes, in-flight
// requests finish (bounded by -drain-timeout), then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "scdisd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("scdisd", flag.ExitOnError)
	templates := fs.String("templates", "", "directory of trained template files (*.tpl); required")
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "worker goroutines per decode batch (0 = all CPUs)")
	maxInFlight := fs.Int("max-inflight", 2, "concurrently decoded batches before requests queue")
	maxQueue := fs.Int("max-queue", 8, "queued batches before requests are shed with 429")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	accessLog := fs.String("access-log", "", "write one JSON access-log line per request to this file (\"-\" = stdout)")
	traceExport := fs.String("trace-export", "", "write tail-sampled request traces as JSONL to this file (\"-\" = stdout); readable with 'scdis trace'")
	traceSample := fs.Float64("trace-sample", 0.01, "probability of keeping a healthy request's trace; error/429/slow traces are always kept")
	traceQueue := fs.Int("trace-queue", 256, "traces buffered between the request path and the export writer; overflow is dropped, never blocking requests")
	debugRequests := fs.Int("debug-requests", 128, "recent sampled requests kept for /debug/requests (0 = default, negative disables)")
	runtimeInterval := fs.Duration("runtime-interval", obs.DefaultRuntimeInterval, "runtime health sampling period (goroutines, heap, GC, per-template state); 0 disables")
	decisionLog := fs.String("decision-log", "", "write sampled per-classification decision records as JSONL to this file (\"-\" = stdout)")
	decisionSample := fs.Int("decision-sample", 1, "log 1 in N decisions to -decision-log")
	driftWindow := fs.Int("drift-window", obs.DefaultDriftWindow, "covariate-shift monitor: sliding window size in traces")
	driftWarn := fs.Float64("drift-warn", obs.DefaultDriftWarn, "covariate-shift monitor: symmetric-KL warn threshold")
	driftCritical := fs.Float64("drift-critical", obs.DefaultDriftCritical, "covariate-shift monitor: symmetric-KL critical threshold")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *templates == "" {
		return errors.New("-templates is required (a directory of *.tpl files)")
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = all CPUs), got %d", *workers)
	}
	if err := obs.SetupLogging(*logFormat, os.Stderr, false); err != nil {
		return err
	}
	parallel.SetWorkers(*workers)

	// One metrics registry for the process lifetime, installed before any
	// request runs. Rebinding mid-serve is safe since the atomic handle-swap
	// rework, but a server has no reason to: every instrument accumulates
	// here and /metrics snapshots it.
	obs.SetDefault(obs.NewRegistry())

	var decisions *obs.DecisionLog
	if *decisionLog != "" {
		var err error
		if decisions, err = obs.OpenDecisionLog(*decisionLog, *decisionSample); err != nil {
			return err
		}
		defer decisions.Close()
	}

	reg, err := serve.NewRegistry(*templates, serve.RegistryConfig{
		Drift:     obs.DriftConfig{Window: *driftWindow, Warn: *driftWarn, Critical: *driftCritical},
		Decisions: decisions,
	})
	if err != nil {
		return err
	}
	if names := reg.Names(); len(names) == 0 {
		slog.Warn("template directory holds no *.tpl files yet; serving 503 until a reload finds some", "dir", *templates)
	} else {
		slog.Info("templates registered", "count", len(names), "names", names)
	}

	var accessW io.Writer
	switch *accessLog {
	case "":
	case "-":
		accessW = os.Stdout
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("opening access log: %w", err)
		}
		defer f.Close()
		accessW = f
	}

	if *traceSample < 0 || *traceSample > 1 {
		return fmt.Errorf("-trace-sample must be in [0, 1], got %g", *traceSample)
	}
	// The exporter outlives the server: it closes after the drain below, so
	// traces of the final in-flight requests still reach the file.
	var exporter *obs.TraceExporter
	switch *traceExport {
	case "":
	case "-":
		// Writer-only wrapper: the exporter closes an io.Closer on Close, and
		// stdout should survive the exporter shutting down.
		exporter = obs.NewTraceExporter(struct{ io.Writer }{os.Stdout}, *traceQueue)
	default:
		f, err := os.OpenFile(*traceExport, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("opening trace export: %w", err)
		}
		exporter = obs.NewTraceExporter(f, *traceQueue)
	}
	if exporter != nil {
		defer func() {
			if err := exporter.Close(); err != nil {
				slog.Error("closing trace export", "err", err)
			}
		}()
	}

	srv := serve.NewServer(reg, serve.Config{
		MaxInFlight:     *maxInFlight,
		MaxQueue:        *maxQueue,
		RetryAfter:      *retryAfter,
		AccessLog:       accessW,
		TraceExporter:   exporter,
		TraceSampleRate: *traceSample,
		DebugRequests:   *debugRequests,
	})

	// Runtime health sampling, with per-template load/drift state riding the
	// same tick so /metrics reflects registry state without a request.
	if *runtimeInterval > 0 {
		collector := obs.NewRuntimeCollector(obs.Default(), *runtimeInterval)
		collector.AddSampler(reg.PublishMetrics)
		collector.Start()
		defer collector.Stop()
	}

	// SIGHUP rescans the template directory; SIGINT/SIGTERM drains and exits.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	slog.Info("scdisd listening", "addr", *addr, "templates", *templates,
		"max_inflight", *maxInFlight, "max_queue", *maxQueue)
	slog.Info("health endpoints: /livez is liveness (process up), /readyz is readiness (templates loadable, gate not saturated); /healthz aliases /readyz")

	for {
		select {
		case <-hup:
			slog.Info("SIGHUP: rescanning template directory")
			if err := reg.Reload(); err != nil {
				slog.Error("reload failed", "err", err)
			}
		case sig := <-stop:
			slog.Info("shutting down: draining in-flight requests", "signal", sig.String(), "timeout", *drainTimeout)
			ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			err := srv.Shutdown(ctx)
			cancel()
			if err != nil {
				return fmt.Errorf("drain: %w", err)
			}
			if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
				return err
			}
			reg.Close()
			slog.Info("scdisd stopped cleanly")
			return nil
		case err := <-errc:
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				return err
			}
			return nil
		}
	}
}
