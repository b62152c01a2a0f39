package sidechannel

// Observability overhead guard: the same FitPipelineCtx workload with the
// metrics registry + tracer installed versus the nil-registry fast path.
// The instruments are atomic counters and stage-granularity spans, so the
// delta must stay inside the noise floor. Run the comparison gate with
//
//	make bench-compare
//
// which fails when the obs-on path is more than 3% slower than obs-off.

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"

	"repro/internal/features"
	"repro/internal/obs"
)

// benchFitObs runs one FitPipelineCtx fit per iteration, with or without the
// full observability stack (default registry + context tracer) installed.
func benchFitObs(b *testing.B, enabled bool) {
	traces := benchTraces(40, benchTraceLen)
	labels := make([]int, len(traces))
	programs := make([]int, len(traces))
	for i := range traces {
		labels[i] = i % 2
		programs[i] = (i / 2) % 3
	}
	cfg := features.CSAPipelineConfig()
	cfg.NumComponents = 8
	ctx := context.Background()
	if enabled {
		obs.SetDefault(obs.NewRegistry())
		ctx = obs.WithTracer(ctx, obs.NewTracer())
	}
	defer obs.SetDefault(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := features.FitPipelineCtx(ctx, traces, labels, programs, 2, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineFitObsOff(b *testing.B) { benchFitObs(b, false) }
func BenchmarkPipelineFitObsOn(b *testing.B)  { benchFitObs(b, true) }

// BenchmarkLabeledRequestAccounting times the full per-request labeled
// instrument bundle the serving middleware performs — one CounterVec Inc,
// two HistogramVec observes, two byte-size observes, and the in-flight
// gauge swing — against a live registry with the serving label schema. This
// is the hot path the cardinality-bounded vec design must keep cheap: every
// child resolution is an atomic map load (no locks after first use).
func BenchmarkLabeledRequestAccounting(b *testing.B) {
	r := obs.NewRegistry()
	requests := r.CounterVec("scdisd.http.requests.total", "route", "template", "code")
	latency := r.HistogramVec("scdisd.http.request.seconds", obs.DurationBuckets(), "route", "template")
	reqBytes := r.HistogramVec("scdisd.http.request.bytes", obs.ByteBuckets(), "route")
	respBytes := r.HistogramVec("scdisd.http.response.bytes", obs.ByteBuckets(), "route")
	admWait := r.HistogramVec("scdisd.http.admission.wait.seconds", obs.DurationBuckets(), "template")
	inflight := r.Gauge("scdisd.http.inflight")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inflight.Add(1)
		requests.With("disassemble", "demo", "200").Inc()
		latency.With("disassemble", "demo").Observe(0.0042)
		reqBytes.With("disassemble").Observe(65536)
		respBytes.With("disassemble").Observe(2048)
		admWait.With("demo").Observe(0)
		inflight.Add(-1)
	}
}

// BenchmarkRequestTracingBundle times everything request tracing adds to an
// UNSAMPLED request — the common case a 1% sample rate leaves: mint a trace
// ID, take the fine per-request tracer from its pool and reset it, open the
// root plus the handler's fine stage spans with their attrs, format the
// traceparent echo, run the tail-sampling decision to a drop and return the
// tracer. Export and ring push are excluded on purpose: they only run for
// kept traces, off the common path.
func BenchmarkRequestTracingBundle(b *testing.B) {
	sampler := obs.NewTailSampler(0, obs.NewHistogram(obs.DurationBuckets()))
	tracers := sync.Pool{New: func() any {
		t := obs.NewTracer()
		t.Fine = true
		t.MaxSpans = 512
		return t
	}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tracer := tracers.Get().(*obs.Tracer)
		tracer.Reset()
		traceID := obs.NewTraceID()
		tracer.SetTraceContext(traceID, obs.SpanID{})
		sctx, root := obs.Span(obs.WithTracer(ctx, tracer), "serve.request")
		_ = obs.FormatTraceparent(traceID, root.ExportID(), true)
		load := root.FineChild("serve.template.load")
		load.End()
		body := root.FineChild("serve.decode.body")
		body.SetAttr("traces", 1)
		body.End()
		classify := root.FineChild("core.classify")
		classify.SetAttr("confidence", 0.99)
		classify.End()
		root.SetAttr("status", 200)
		root.End()
		if keep, _ := sampler.Decide(200, 0, false); keep {
			b.Fatal("rate-0 sampler kept a healthy trace")
		}
		tracers.Put(tracer)
		_ = sctx
	}
}

// minNsPerOp runs fn `rounds` times via testing.Benchmark and returns the
// fastest ns/op — the minimum is the standard noise-rejecting statistic for
// a throughput comparison on a shared machine.
func minNsPerOp(rounds int, fn func(b *testing.B)) float64 {
	best := 0.0
	for i := 0; i < rounds; i++ {
		r := testing.Benchmark(fn)
		ns := float64(r.NsPerOp())
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// TestMetricsOverheadBudget is the bench-compare gate: with BENCH_COMPARE=1
// it measures obs-on vs obs-off FitPipelineCtx and fails when the instrumented
// path costs more than 3%. Env-gated because a timing assertion on a loaded
// machine is a flake, not a signal; `make bench-compare` opts in.
func TestMetricsOverheadBudget(t *testing.T) {
	if os.Getenv("BENCH_COMPARE") == "" {
		t.Skip("set BENCH_COMPARE=1 (or run `make bench-compare`) to enable the overhead gate")
	}
	// Pair the variants within each round and take the median per-round
	// overhead: a load spike (CPU steal on a shared box) then skews one
	// round's ratio, not the whole comparison — unpaired minimums can be
	// biased by a sustained spike that happens to cover one variant's runs.
	const rounds = 5
	overheads := make([]float64, 0, rounds)
	lastOff, lastOn := 0.0, 0.0
	for i := 0; i < rounds; i++ {
		lastOff = minNsPerOp(1, BenchmarkPipelineFitObsOff)
		lastOn = minNsPerOp(1, BenchmarkPipelineFitObsOn)
		overheads = append(overheads, (lastOn-lastOff)/lastOff)
	}
	sort.Float64s(overheads)
	overhead := overheads[rounds/2]
	fmt.Printf("bench-compare: obs off %.0f ns/op, on %.0f ns/op, median overhead %+.2f%% (rounds %+.1f%%..%+.1f%%)\n",
		lastOff, lastOn, overhead*100, overheads[0]*100, overheads[rounds-1]*100)
	if overhead > 0.03 {
		t.Fatalf("observability overhead %.2f%% exceeds the 3%% budget", overhead*100)
	}
}

// TestLabeledOverheadBudget is the labeled-metric bench-compare gate: the
// whole per-request accounting bundle must cost no more than 3% of one
// per-trace sparse decode (the smallest unit of billable request work — a
// real request decodes a batch, so per-request accounting amortizes further)
// — or, as with TestDecisionOverheadBudget, stay under an absolute 1.5 µs
// bundle cost, far below what the 3% budget was calibrated to permit on the
// full-CWT path. Either bound passing means labeling has not regressed the
// hot path. Env-gated like the other timing gates.
func TestLabeledOverheadBudget(t *testing.T) {
	if os.Getenv("BENCH_COMPARE") == "" {
		t.Skip("set BENCH_COMPARE=1 (or run `make bench-compare`) to enable the overhead gate")
	}
	const rounds = 3
	const bundleBudgetNs = 1500.0
	bundle := minNsPerOp(rounds, BenchmarkLabeledRequestAccounting)
	decode := minNsPerOp(rounds, BenchmarkPipelineClassifyOneSparse)
	frac := bundle / decode
	fmt.Printf("bench-compare: labeled request bundle %.0f ns, sparse decode %.0f ns/trace, ratio %.2f%% (budget 3%% or %.0f ns absolute)\n",
		bundle, decode, frac*100, bundleBudgetNs)
	if frac > 0.03 && bundle > bundleBudgetNs {
		t.Fatalf("labeled request accounting costs %.0f ns (%.2f%% of a decode); budget is 3%% or %.0f ns",
			bundle, frac*100, bundleBudgetNs)
	}
}

// TestTracingOverheadBudget is the request-tracing bench-compare gate: the
// whole unsampled-request tracing bundle (trace ID mint, fine tracer, root +
// stage spans, traceparent echo, tail-sample drop) must cost no more than 3%
// of one per-trace sparse decode, or stay under an absolute 5 µs — a real
// request decodes a whole batch and pays the bundle once, so either bound
// keeps tracing far below measurement noise on the serving path. Env-gated
// like the other timing gates; `make bench-compare` opts in.
func TestTracingOverheadBudget(t *testing.T) {
	if os.Getenv("BENCH_COMPARE") == "" {
		t.Skip("set BENCH_COMPARE=1 (or run `make bench-compare`) to enable the overhead gate")
	}
	const rounds = 3
	const bundleBudgetNs = 5000.0
	bundle := minNsPerOp(rounds, BenchmarkRequestTracingBundle)
	decode := minNsPerOp(rounds, BenchmarkPipelineClassifyOneSparse)
	frac := bundle / decode
	fmt.Printf("bench-compare: request tracing bundle %.0f ns, sparse decode %.0f ns/trace, ratio %.2f%% (budget 3%% or %.0f ns absolute)\n",
		bundle, decode, frac*100, bundleBudgetNs)
	if frac > 0.03 && bundle > bundleBudgetNs {
		t.Fatalf("request tracing costs %.0f ns (%.2f%% of a decode); budget is 3%% or %.0f ns",
			bundle, frac*100, bundleBudgetNs)
	}
}
