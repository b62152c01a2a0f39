package sidechannel

// Allocation and throughput benchmarks for the concurrency + redundancy work:
// the CWT hot path, the feature pipeline, and serial-vs-parallel fits. Run
//
//	go test -bench=Pipeline -benchmem -run=^$
//
// and compare against BENCH_pipeline.json (allocs/op must not regress; on a
// multi-core machine the *Parallel variants should scale with the cores).

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/avr"
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/features"
	"repro/internal/parallel"
	"repro/internal/power"
)

const benchTraceLen = 315 // the paper's fetch+execute window

func benchTraces(n, length int) [][]float64 {
	rng := rand.New(rand.NewSource(99))
	out := make([][]float64, n)
	for i := range out {
		tr := make([]float64, length)
		for t := range tr {
			tr[t] = math.Sin(0.12*float64(t)) + rng.NormFloat64()*0.1
		}
		out[i] = tr
	}
	return out
}

func benchCWT(b *testing.B) *dsp.CWT {
	c, err := dsp.NewCWTBank(dsp.DefaultBank())
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkPipelineCWTTransform(b *testing.B) {
	c := benchCWT(b)
	tr := benchTraces(1, benchTraceLen)[0]
	c.TransformFlat(tr) // warm the plan cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.TransformFlat(tr)
	}
}

func BenchmarkPipelineCWTTransformBatch(b *testing.B) {
	c := benchCWT(b)
	traces := benchTraces(32, benchTraceLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.TransformFlatBatchCtx(context.Background(), traces); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(traces))*float64(b.N)/b.Elapsed().Seconds(), "traces/s")
}

// benchPipeline fits a small 2-class pipeline once for the Extract benchmarks.
func benchPipeline(b *testing.B) (*features.Pipeline, [][]float64) {
	traces := benchTraces(48, benchTraceLen)
	labels := make([]int, len(traces))
	programs := make([]int, len(traces))
	for i := range traces {
		labels[i] = i % 2
		programs[i] = (i / 2) % 3
		if labels[i] == 1 {
			for t := range traces[i] {
				traces[i][t] += math.Sin(0.31 * float64(t))
			}
		}
	}
	cfg := features.CSAPipelineConfig()
	cfg.NumComponents = 8
	pl, _, err := features.FitPipelineCtx(context.Background(), traces, labels, programs, 2, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return pl, traces
}

func BenchmarkPipelineExtract(b *testing.B) {
	pl, traces := benchPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.Extract(traces[i%len(traces)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineExtractSparse(b *testing.B) {
	pl, traces := benchPipeline(b)
	// First call builds the per-cell kernel table (cached for the pipeline's
	// lifetime); keep that one-time cost out of the measurement.
	if _, err := pl.ExtractSparse(traces[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.ExtractSparse(traces[i%len(traces)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineClassifyOneSparse measures single-trace end-to-end decode
// latency — trace in, instruction out, the paper's real-time monitoring unit
// of work — through the sparse per-cell inference path.
func BenchmarkPipelineClassifyOneSparse(b *testing.B) {
	d, traces := classifyFixture(b)
	if _, err := d.Classify(traces[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Classify(traces[i%len(traces)]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFit runs a full FitPipelineCtx at the given worker count; the
// Serial/Parallel pair quantifies the multi-core speedup (identical results
// by construction — see the equivalence tests).
func benchFit(b *testing.B, workers int) {
	traces := benchTraces(40, benchTraceLen)
	labels := make([]int, len(traces))
	programs := make([]int, len(traces))
	for i := range traces {
		labels[i] = i % 2
		programs[i] = (i / 2) % 3
	}
	cfg := features.CSAPipelineConfig()
	cfg.NumComponents = 8
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := features.FitPipelineCtx(context.Background(), traces, labels, programs, 2, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(traces))*float64(b.N)/b.Elapsed().Seconds(), "traces/s")
}

func BenchmarkPipelineFitSerial(b *testing.B)   { benchFit(b, 1) }
func BenchmarkPipelineFitParallel(b *testing.B) { benchFit(b, 0) }

// BenchmarkPipelineTrainSubset trains the register template scdisbench's
// bulk-binary workload serves, at that workload's campaign sizes: ADD, ADC,
// EOR and MOV with 4 programs × 12 traces per class for the group and
// instruction levels and 3 × 6 for Rd and Rr. It is the profiling stage's
// whole cost — acquisition, one CWT per training trace, KL selection, PCA
// and classifier fits for every level.
func BenchmarkPipelineTrainSubset(b *testing.B) {
	cfg := core.DefaultTrainerConfig()
	cfg.Programs, cfg.TracesPerProgram = 4, 12
	cfg.RegisterPrograms, cfg.RegisterTracesPerProgram = 3, 6
	classes := []avr.Class{avr.OpADD, avr.OpADC, avr.OpEOR, avr.OpMOV}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TrainSubset(cfg, classes, true); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDisassemble measures end-to-end trace→instruction throughput.
func benchDisassemble(b *testing.B, workers int) {
	cfg := core.DefaultTrainerConfig()
	cfg.Programs = 3
	cfg.TracesPerProgram = 10
	cfg.RegisterPrograms = 0
	cfg.RegisterTracesPerProgram = 0
	d, err := core.TrainSubset(cfg, AllClasses()[:2], false)
	if err != nil {
		b.Fatal(err)
	}
	camp, err := power.NewCampaign(cfg.Power, 0, 77)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	prog := power.NewProgramEnv(cfg.Power, 77, 1)
	stream := make([]Instruction, 24)
	for i := range stream {
		stream[i] = RandomInstruction(rng, AllClasses()[i%2])
	}
	traces, err := camp.AcquireSegments(rng, prog, stream)
	if err != nil {
		b.Fatal(err)
	}
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Disassemble(traces); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(traces))*float64(b.N)/b.Elapsed().Seconds(), "traces/s")
}

func BenchmarkPipelineDisassembleSerial(b *testing.B)   { benchDisassemble(b, 1) }
func BenchmarkPipelineDisassembleParallel(b *testing.B) { benchDisassemble(b, 0) }

// TestSparseSpeedupBudget is the sparse-inference bench-compare gate: with
// BENCH_COMPARE=1 it requires ExtractSparse to run at most 1/8 the time of
// the full-FFT Extract on the same fitted pipeline (measured ~400x on the
// recording machine — the 8x floor leaves room for noisy CI hardware), and
// bounds its allocations so the dot-product path cannot silently grow a
// per-call buffer habit. Env-gated like the other timing gates: a timing
// assertion on a loaded machine is a flake, not a signal.
func TestSparseSpeedupBudget(t *testing.T) {
	if os.Getenv("BENCH_COMPARE") == "" {
		t.Skip("set BENCH_COMPARE=1 (or run `make bench-compare`) to enable the sparse speedup gate")
	}
	const rounds = 3
	full, sparse := 0.0, 0.0
	var allocs int64
	for i := 0; i < rounds; i++ {
		if v := minNsPerOp(1, BenchmarkPipelineExtract); full == 0 || v < full {
			full = v
		}
		r := testing.Benchmark(BenchmarkPipelineExtractSparse)
		if v := float64(r.NsPerOp()); sparse == 0 || v < sparse {
			sparse = v
		}
		allocs = r.AllocsPerOp()
	}
	fmt.Printf("bench-compare: extract full %.0f ns/op, sparse %.0f ns/op (%.0fx), %d allocs/op\n",
		full, sparse, full/sparse, allocs)
	if sparse > full/8 {
		t.Fatalf("sparse extract %.0f ns/op is slower than 1/8 of the full path (%.0f ns/op)", sparse, full)
	}
	if allocs > 8 {
		t.Fatalf("sparse extract costs %d allocs/op, budget is 8", allocs)
	}
}
