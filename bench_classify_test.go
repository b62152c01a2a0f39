package sidechannel

// Inference hot-path benchmarks: the scored classification path (per-level
// confidence + decision recording + drift feeding) against the plain decode
// path on the same trained templates. Run
//
//	go test -bench=DisassembleScored -benchmem -run=^$
//
// and compare against BENCH_classify.json. Both run the one hierarchy walk
// over pooled scratch. The comparison gate (TestDecisionOverheadBudget, part
// of `make bench-compare`) fails when decision recording at default sampling
// costs more than 3% over the plain path and more than 5 µs/trace absolute —
// the two differ only in the sinks fed, so the delta is each decision's own
// Levels, the drift vector, and one JSON encode per sampled decision.

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/power"
)

// classifyBench shares one trained subset and its evaluation traces across
// the scored benchmarks and the overhead gate, so training cost is paid once.
var classifyBench struct {
	once   sync.Once
	d      *core.Disassembler
	traces [][]float64
	err    error
}

func classifyFixture(b *testing.B) (*core.Disassembler, [][]float64) {
	b.Helper()
	classifyBench.once.Do(func() {
		cfg := core.DefaultTrainerConfig()
		cfg.Programs = 3
		cfg.TracesPerProgram = 10
		cfg.RegisterPrograms = 0
		cfg.RegisterTracesPerProgram = 0
		d, err := core.TrainSubset(cfg, AllClasses()[:2], false)
		if err != nil {
			classifyBench.err = err
			return
		}
		camp, err := power.NewCampaign(cfg.Power, 0, 77)
		if err != nil {
			classifyBench.err = err
			return
		}
		rng := rand.New(rand.NewSource(8))
		prog := power.NewProgramEnv(cfg.Power, 77, 1)
		stream := make([]Instruction, 24)
		for i := range stream {
			stream[i] = RandomInstruction(rng, AllClasses()[i%2])
		}
		classifyBench.traces, classifyBench.err = camp.AcquireSegments(rng, prog, stream)
		classifyBench.d = d
	})
	if classifyBench.err != nil {
		b.Fatal(classifyBench.err)
	}
	return classifyBench.d, classifyBench.traces
}

// benchClassify runs one batch decode per iteration at a single worker,
// either plain (no observer) or scored with the full recording stack —
// decision log at default sampling, drift monitor, confidence histogram.
func benchClassify(b *testing.B, scored bool) {
	d, traces := classifyFixture(b)
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(1)
	if scored {
		mon, err := d.NewDriftMonitor(obs.DriftConfig{})
		if err != nil {
			b.Fatal(err)
		}
		d.SetObserver(&core.InferenceObserver{
			Log:   obs.NewDecisionLog(io.Discard, 1),
			Drift: mon,
		})
	}
	defer d.SetObserver(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if scored {
			if _, err := d.DisassembleScored(traces); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := d.Disassemble(traces); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(traces))*float64(b.N)/b.Elapsed().Seconds(), "traces/s")
}

func BenchmarkDisassembleScored(b *testing.B)    { benchClassify(b, true) }
func BenchmarkDisassembleScoredOff(b *testing.B) { benchClassify(b, false) }

// TestDecisionOverheadBudget is the second bench-compare gate: with
// BENCH_COMPARE=1 it measures scored-with-recording vs plain decoding and
// fails when decision recording costs more than 3% — or, now that sparse
// inference has shrunk the decode itself ~80x, more than an absolute
// 5 µs/trace. The 3% budget was calibrated against the full-CWT decode
// (~1 ms/trace, so an implicit ~30 µs/trace allowance); measured recording
// cost is ~2 µs/trace (softmaxes, drift vector, one JSON encode per sampled
// decision), which is a large *fraction* of a ~13 µs sparse decode but far
// under the cost the budget was ever meant to permit. Either bound passing
// means recording has not regressed. Env-gated for the same reason as
// TestMetricsOverheadBudget — a timing assertion on a loaded machine is a
// flake, not a signal.
func TestDecisionOverheadBudget(t *testing.T) {
	if os.Getenv("BENCH_COMPARE") == "" {
		t.Skip("set BENCH_COMPARE=1 (or run `make bench-compare`) to enable the overhead gate")
	}
	const rounds = 5
	const tracesPerOp = 24 // the classifyFixture stream length
	const perTraceBudgetNs = 5000.0
	off, on := 0.0, 0.0
	for i := 0; i < rounds; i++ {
		if v := minNsPerOp(1, BenchmarkDisassembleScoredOff); off == 0 || v < off {
			off = v
		}
		if v := minNsPerOp(1, BenchmarkDisassembleScored); on == 0 || v < on {
			on = v
		}
	}
	overhead := (on - off) / off
	perTrace := (on - off) / tracesPerOp
	fmt.Printf("bench-compare: decode plain %.0f ns/op, scored %.0f ns/op, overhead %+.2f%% (%.0f ns/trace)\n",
		off, on, overhead*100, perTrace)
	if overhead > 0.03 && perTrace > perTraceBudgetNs {
		t.Fatalf("decision recording overhead %.2f%% (%.0f ns/trace) exceeds both the 3%% and the %.0f ns/trace budgets",
			overhead*100, perTrace, perTraceBudgetNs)
	}
}
