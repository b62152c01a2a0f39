package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/avr"
	"repro/internal/parallel"
	"repro/internal/power"
	"repro/internal/testkit"
)

// fixtureClasses and the sync.Once below share one trained subset
// disassembler (plus matched evaluation traces) across the agreement and
// malware-path tests, so the expensive TrainSubset runs once regardless of
// test order (-shuffle).
var fixtureClasses = []avr.Class{avr.OpADD, avr.OpAND, avr.OpLDI, avr.OpSEC}

var fixture struct {
	once   sync.Once
	d      *Disassembler
	traces [][]float64
	err    error
}

func sharedFixture(t *testing.T) (*Disassembler, [][]float64) {
	t.Helper()
	fixture.once.Do(func() {
		cfg := smallConfig()
		d, err := TrainSubset(cfg, fixtureClasses, false)
		if err != nil {
			fixture.err = err
			return
		}
		camp, err := power.NewCampaign(cfg.Power, 0, 31337)
		if err != nil {
			fixture.err = err
			return
		}
		rng := rand.New(rand.NewSource(23))
		prog := power.NewProgramEnv(cfg.Power, 31337, 3)
		var stream []avr.Instruction
		for _, cl := range fixtureClasses {
			for i := 0; i < 4; i++ {
				stream = append(stream, avr.RandomOperands(rng, cl))
			}
		}
		fixture.traces, fixture.err = camp.AcquireSegments(rng, prog, stream)
		fixture.d = d
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.d, fixture.traces
}

// TestDisassembleAgreesSerialParallelCancelled pins the top-level agreement
// invariant: per-trace Classify, Disassemble at one worker, Disassemble at
// several workers, and DisassembleCtx retried after a cancellation must
// return identical decodes.
func TestDisassembleAgreesSerialParallelCancelled(t *testing.T) {
	d, traces := sharedFixture(t)
	defer parallel.SetWorkers(0)

	serial := make([]Decoded, len(traces))
	for i, tr := range traces {
		dec, err := d.Classify(tr)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = dec
	}

	for _, workers := range []int{1, 4} {
		parallel.SetWorkers(workers)
		got, err := d.Disassemble(traces)
		if err != nil {
			t.Fatalf("Disassemble with %d workers: %v", workers, err)
		}
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("worker count %d changed decode %d: %+v vs serial %+v", workers, i, got[i], serial[i])
			}
		}
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.DisassembleCtx(cancelled, traces); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled DisassembleCtx returned %v, want context.Canceled", err)
	}
	got, err := d.DisassembleCtx(context.Background(), traces)
	if err != nil {
		t.Fatalf("retry after cancel: %v", err)
	}
	for i := range got {
		if got[i] != serial[i] {
			t.Fatalf("cancelled-then-retried decode %d: %+v vs serial %+v", i, got[i], serial[i])
		}
	}
}

// TestCheckProgramEndToEnd covers a program check on the shared fixture —
// decode the traces, then CompareFlow against the golden flow, as the
// malware evaluation does: the true golden flow checks clean at the class
// level, a tampered golden flow is flagged, a length mismatch is reported,
// and defective traces propagate an error.
func TestCheckProgramEndToEnd(t *testing.T) {
	d, traces := sharedFixture(t)
	decs, err := d.Disassemble(traces)
	if err != nil {
		t.Fatal(err)
	}
	// A golden flow matching the (possibly imperfect) decodes exactly:
	// CompareFlow against it must be clean — this isolates the comparison
	// logic from classifier noise.
	golden := make([]avr.Instruction, len(decs))
	for i, dec := range decs {
		golden[i] = avr.Instruction{Class: dec.Class, Rd: dec.Rd, Rr: dec.Rr}
	}
	if mm := CompareFlow(golden, decs); len(mm) != 0 {
		t.Fatalf("self-consistent golden flow flagged: %v", mm)
	}

	// Tamper: replace one instruction's class with one from another group.
	tampered := append([]avr.Instruction(nil), golden...)
	if tampered[0].Class == avr.OpSEC {
		tampered[0] = avr.Instruction{Class: avr.OpADD, Rd: 1, Rr: 2}
	} else {
		tampered[0] = avr.Instruction{Class: avr.OpSEC}
	}
	if mm := CompareFlow(tampered, decs); len(mm) == 0 {
		t.Fatal("tampered golden flow not flagged")
	}

	// Length mismatch is reported as such.
	mm := CompareFlow(golden[:len(golden)-1], decs)
	foundLen := false
	for _, m := range mm {
		if m.Field == "length" {
			foundLen = true
		}
	}
	if !foundLen {
		t.Fatalf("missing length mismatch: %v", mm)
	}

	// Defective traces surface as an error, not a silent misdetection.
	bad := [][]float64{append([]float64(nil), traces[0]...)}
	bad[0][3] = math.NaN()
	if _, err := d.Disassemble(bad); err == nil {
		t.Fatal("Disassemble accepted a NaN trace")
	}
}

// TestMajorityDecodeConsensus covers the run-level vote: clear majorities
// win per position, error paths reject empty and ragged inputs.
func TestMajorityDecodeConsensus(t *testing.T) {
	a := Decoded{Class: avr.OpADD, Group: avr.OpADD.Group()}
	b := Decoded{Class: avr.OpAND, Group: avr.OpAND.Group()}
	c := Decoded{Class: avr.OpLDI, Group: avr.OpLDI.Group()}

	runs := [][]Decoded{
		{a, b, c},
		{a, b, b},
		{a, c, c},
	}
	got, err := MajorityDecode(runs)
	if err != nil {
		t.Fatal(err)
	}
	want := []Decoded{a, b, c}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("consensus[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}

	if _, err := MajorityDecode(nil); err == nil {
		t.Fatal("empty run list accepted")
	}
	if _, err := MajorityDecode([][]Decoded{{a}, {a, b}}); err == nil {
		t.Fatal("ragged runs accepted")
	}

	// A single run is its own consensus.
	got, err = MajorityDecode([][]Decoded{{b, c}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != b || got[1] != c {
		t.Fatalf("single-run consensus = %v", got)
	}
}

// TestMajorityDecodeTieBreak pins the tie rule: on a split vote the winner
// is the candidate that appears first in run order, never a map-iteration
// accident — repeated fusions of the same runs must agree exactly.
func TestMajorityDecodeTieBreak(t *testing.T) {
	a := Decoded{Class: avr.OpADD, Group: avr.OpADD.Group()}
	b := Decoded{Class: avr.OpAND, Group: avr.OpAND.Group()}
	c := Decoded{Class: avr.OpLDI, Group: avr.OpLDI.Group()}

	// Position 0 ties b-vs-a 2:2 (c splits off), position 1 ties c-vs-b 2:2.
	runs := [][]Decoded{{b, c}, {a, b}, {b, b}, {a, c}, {c, a}}
	first, err := MajorityDecode(runs)
	if err != nil {
		t.Fatal(err)
	}
	if first[0] != b {
		t.Fatalf("tie at position 0 fused to %+v, want first-seen %+v", first[0], b)
	}
	if first[1] != c {
		t.Fatalf("tie at position 1 fused to %+v, want first-seen %+v", first[1], c)
	}
	for trial := 0; trial < 50; trial++ {
		got, err := MajorityDecode(runs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("trial %d position %d: %+v, first fusion gave %+v", trial, i, got[i], first[i])
			}
		}
	}
}

// TestMajorityDecodeSuppressesMisreads is the property form: with 2f+1 runs
// of which at most f disagree at any position, the consensus equals the
// majority run exactly.
func TestMajorityDecodeSuppressesMisreads(t *testing.T) {
	testkit.Check(t, testkit.CheckConfig{Runs: 20}, func(g *testkit.G) error {
		classes := avr.AllClasses()
		n := g.Size(1, 30)
		truth := make([]Decoded, n)
		for i := range truth {
			cl := classes[g.IntBetween(0, len(classes)-1)]
			truth[i] = Decoded{Class: cl, Group: cl.Group()}
		}
		f := g.IntBetween(1, 3)
		runs := make([][]Decoded, 2*f+1)
		for r := range runs {
			run := append([]Decoded(nil), truth...)
			if r < f { // at most f corrupted runs
				pos := g.IntBetween(0, n-1)
				cl := classes[g.IntBetween(0, len(classes)-1)]
				run[pos] = Decoded{Class: cl, Group: cl.Group(), HasRd: true, Rd: 1}
			}
			runs[r] = run
		}
		got, err := MajorityDecode(runs)
		if err != nil {
			return err
		}
		for i := range truth {
			if got[i] != truth[i] {
				return fmt.Errorf("position %d: consensus %+v, truth %+v (f=%d, n=%d)", i, got[i], truth[i], f, n)
			}
		}
		return nil
	})
}

// TestFlowMismatchString pins the report formatting the monitor logs.
func TestFlowMismatchString(t *testing.T) {
	m := FlowMismatch{Index: 3, Field: "Rd", Expected: "r7", Observed: "r0"}
	s := m.String()
	for _, frag := range []string{"instruction 3", "Rd", "r7", "r0"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("mismatch string %q missing %q", s, frag)
		}
	}
}
