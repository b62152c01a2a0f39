package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// cycleTraces returns n traces that cycle through traces, so adjacent
// traces keep the fixture's alternation of classes.
func cycleTraces(traces [][]float64, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = traces[i%len(traces)]
	}
	return out
}

// walkCounts are the counter deltas a decode must leave: the cells the
// sparse path evaluated and the traces counted as classified and rejected.
type walkCounts struct {
	cells, classified, rejected int64
}

// countWalk runs f against a fresh default registry and returns its
// walkCounts, and how many worker-pool loop bodies it ran (parallel.tasks).
func countWalk(t *testing.T, f func()) (walkCounts, int64) {
	t.Helper()
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	cells := reg.Counter("dsp.cwt.sparse_cells").Value()
	f()
	return walkCounts{
		cells:      reg.Counter("dsp.cwt.sparse_cells").Value() - cells,
		classified: reg.Counter("core.traces.classified").Value(),
		rejected:   reg.Counter("core.traces.rejected").Value(),
	}, reg.Counter("parallel.tasks").Value()
}

// perTraceDecode decodes every trace alone with ClassifyScored and returns
// what a batch decode must return: the decisions before the lowest failing
// index and that trace's error, wrapped with its index.
func perTraceDecode(d *Disassembler, traces [][]float64) ([]Decision, error) {
	out := make([]Decision, 0, len(traces))
	var first error
	for i, tr := range traces {
		dec, err := d.ClassifyScored(tr)
		if err != nil && first == nil {
			first = fmt.Errorf("core: trace %d: %w", i, err)
		}
		if first == nil {
			out = append(out, dec)
		}
	}
	return out, first
}

// checkBatch requires both batch decodes of traces to return, bitwise, what
// per-trace ClassifyScored returns (the decoded prefix plus the lowest-index
// error on a failure), and to move the walk's counters exactly as much.
// Each must run one loop body per pair of adjacent traces, and one for the
// last trace of an odd batch.
func checkBatch(t *testing.T, who string, d *Disassembler, traces [][]float64) {
	t.Helper()
	var want []Decision
	var wantErr error
	wantCounts, _ := countWalk(t, func() { want, wantErr = perTraceDecode(d, traces) })
	wantBodies := int64(len(traces)+1) / 2

	var got []Decision
	var err error
	counts, bodies := countWalk(t, func() { got, err = d.DisassembleScoredCtx(context.Background(), traces) })
	if counts != wantCounts {
		t.Errorf("%s: DisassembleScoredCtx counted %+v, per-trace decode %+v", who, counts, wantCounts)
	}
	if bodies != wantBodies {
		t.Errorf("%s: DisassembleScoredCtx ran %d loop bodies, want %d", who, bodies, wantBodies)
	}
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Errorf("%s: DisassembleScoredCtx error %v, per-trace decode %v", who, err, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: DisassembleScoredCtx decoded %d traces, per-trace decode %d", who, len(got), len(want))
	}
	for i := range got {
		if !sameDecision(got[i], want[i]) {
			t.Errorf("%s trace %d: DisassembleScoredCtx %+v, ClassifyScored %+v", who, i, got[i], want[i])
		}
	}

	var plain []Decoded
	counts, bodies = countWalk(t, func() { plain, err = d.DisassembleCtx(context.Background(), traces) })
	if counts != wantCounts {
		t.Errorf("%s: DisassembleCtx counted %+v, per-trace decode %+v", who, counts, wantCounts)
	}
	if bodies != wantBodies {
		t.Errorf("%s: DisassembleCtx ran %d loop bodies, want %d", who, bodies, wantBodies)
	}
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Errorf("%s: DisassembleCtx error %v, per-trace decode %v", who, err, wantErr)
	}
	if len(plain) != len(want) {
		t.Fatalf("%s: DisassembleCtx decoded %d traces, per-trace decode %d", who, len(plain), len(want))
	}
	for i := range plain {
		if plain[i] != want[i].Decoded {
			t.Errorf("%s trace %d: DisassembleCtx %+v, ClassifyScored %+v", who, i, plain[i], want[i].Decoded)
		}
	}
}

// TestPairedBatchMatchesPerTrace runs both batch decodes at batch sizes that
// pair every trace, leave the last trace alone, or hold a single trace, at
// one and four workers, on two templates. On registerFixture a pair shares all four
// levels. On rdOnlyFixture adjacent traces also take different instruction
// levels, and an INC lane skips Rr while its partner runs it alone. Every
// decision must equal the per-trace decode bit for bit.
func TestPairedBatchMatchesPerTrace(t *testing.T) {
	defer parallel.SetWorkers(0)
	for _, fx := range []struct {
		name    string
		fixture func(testing.TB) (*Disassembler, [][]float64)
	}{
		{"EOR+MOV", registerFixture},
		{"EOR+MOV+INC", rdOnlyFixture},
	} {
		d, traces := fx.fixture(t)
		for _, workers := range []int{1, 4} {
			parallel.SetWorkers(workers)
			for _, n := range []int{1, 2, 3, 5, 64} {
				checkBatch(t, fmt.Sprintf("%s, %d workers, %d traces", fx.name, workers, n), d, cycleTraces(traces, n))
			}
		}
	}
}

// TestPairedBatchRejectedLane puts a NaN trace into the first lane, the
// second lane, and both lanes of a pair, and into the last trace of an odd
// batch, which walks alone: the
// batch decodes must return the decoded prefix plus the lowest-index error,
// as the per-trace decode does, while the valid partner still decodes.
func TestPairedBatchRejectedLane(t *testing.T) {
	d, traces := rdOnlyFixture(t)
	nan := append([]float64(nil), traces[0]...)
	nan[len(nan)/2] = math.NaN()
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(1)
	for _, bad := range [][]int{{2}, {3}, {2, 3}, {4}, {1, 4}} {
		batch := cycleTraces(traces, 5)
		for _, i := range bad {
			batch[i] = nan
		}
		checkBatch(t, fmt.Sprintf("NaN at %v", bad), d, batch)
	}
}

// TestUntrainedRegisterLevelFails decodes register classes on templates
// that claim register levels but lack the Rd or the Rr one, as a template
// file may: every trace must fail with ErrNotTrained, alone and paired,
// instead of decoding without its operand.
func TestUntrainedRegisterLevelFails(t *testing.T) {
	d, traces := registerFixture(t)
	for _, missing := range []string{"rd", "rr"} {
		bad := &Disassembler{group: d.group, instr: d.instr, instrClass: d.instrClass, rd: d.rd, rr: d.rr, haveRegs: true}
		if missing == "rd" {
			bad.rd = groupLevel{}
		} else {
			bad.rr = groupLevel{}
		}
		if _, err := bad.ClassifyScored(traces[0]); !errors.Is(err, ErrNotTrained) {
			t.Errorf("no %s level: ClassifyScored error %v, want ErrNotTrained", missing, err)
		}
		decs, err := bad.DisassembleScored(traces[:2])
		if !errors.Is(err, ErrNotTrained) || len(decs) != 0 {
			t.Errorf("no %s level: DisassembleScored decoded %d traces with error %v, want none and ErrNotTrained", missing, len(decs), err)
		}
	}
}
