package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/avr"
	"repro/internal/ml"
)

func TestNewClassifierKinds(t *testing.T) {
	for _, k := range []ClassifierKind{ClassifierLDA, ClassifierQDA, ClassifierSVM, ClassifierNB, ClassifierKNN} {
		clf, err := NewClassifier(k)
		if err != nil || clf == nil {
			t.Fatalf("NewClassifier(%q): %v", k, err)
		}
	}
	if _, err := NewClassifier("bogus"); err == nil {
		t.Fatal("unknown kind should fail")
	}
}

func TestDecodedString(t *testing.T) {
	cases := []struct {
		d    Decoded
		want string
	}{
		{Decoded{Class: avr.OpADD, Rd: 16, Rr: 17, HasRd: true, HasRr: true}, "ADD r16, r17"},
		{Decoded{Class: avr.OpADD}, "ADD r?, r?"},
		{Decoded{Class: avr.OpLDI, Rd: 20, HasRd: true}, "LDI r20, K?"},
		{Decoded{Class: avr.OpCOM, Rd: 3, HasRd: true}, "COM r3"},
		{Decoded{Class: avr.OpBREQ}, "BREQ k?"},
		{Decoded{Class: avr.OpLDS, Rd: 4, HasRd: true}, "LDS r4, k?"},
		{Decoded{Class: avr.OpSTS, Rr: 9, HasRr: true}, "STS k?, r9"},
		{Decoded{Class: avr.OpLDXInc, Rd: 6, HasRd: true}, "LD r6, X+"},
		{Decoded{Class: avr.OpSTZ, Rr: 2, HasRr: true}, "ST Z, r2"},
		{Decoded{Class: avr.OpSEC}, "SEC"},
		{Decoded{Class: avr.OpSBI}, "SBI A?, b?"},
		{Decoded{Class: avr.OpBRBS}, "BRBS s?, k?"},
		{Decoded{Class: avr.OpBSET}, "BSET s?"},
		{Decoded{Class: avr.OpSBRC, Rr: 10, HasRr: true}, "SBRC r10, b?"},
	}
	for _, tc := range cases {
		if got := tc.d.String(); got != tc.want {
			t.Fatalf("Decoded.String() = %q, want %q", got, tc.want)
		}
	}
}

func TestOperandRegisters(t *testing.T) {
	cases := []struct {
		c      avr.Class
		rd, rr bool
	}{
		{avr.OpADD, true, true},
		{avr.OpLDI, true, false},
		{avr.OpCOM, true, false},
		{avr.OpBREQ, false, false},
		{avr.OpLDS, true, false},
		{avr.OpSTS, false, true},
		{avr.OpSTX, false, true},
		{avr.OpLDDZ, true, false},
		{avr.OpSEC, false, false},
		{avr.OpSBRC, false, true},
		{avr.OpBST, true, false},
		{avr.OpBLD, true, false},
		{avr.OpLPM, true, false},
		{avr.OpSBI, false, false},
	}
	for _, tc := range cases {
		rd, rr := operandRegisters(avr.SpecOf(tc.c).Operands, tc.c)
		if rd != tc.rd || rr != tc.rr {
			t.Fatalf("%v: operandRegisters = (%v,%v), want (%v,%v)", tc.c, rd, rr, tc.rd, tc.rr)
		}
	}
}

func TestTrainerConfigValidate(t *testing.T) {
	cfg := DefaultTrainerConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Programs = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("1 program should fail")
	}
	bad = cfg
	bad.TracesPerProgram = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("1 trace per program should fail")
	}
	bad = cfg
	bad.Power.TraceLen = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("bad power config should fail")
	}
}

func TestUntrainedDisassembler(t *testing.T) {
	var d Disassembler
	if _, err := d.Classify(make([]float64, 315)); err == nil {
		t.Fatal("untrained disassembler should fail")
	}
}

func TestCompareFlow(t *testing.T) {
	golden := []avr.Instruction{
		{Class: avr.OpLDI, Rd: 16, K: 0x5A},
		{Class: avr.OpEOR, Rd: 16, Rr: 17},
	}
	clean := []Decoded{
		{Class: avr.OpLDI, Rd: 16, HasRd: true},
		{Class: avr.OpEOR, Rd: 16, Rr: 17, HasRd: true, HasRr: true},
	}
	if mm := CompareFlow(golden, clean); len(mm) != 0 {
		t.Fatalf("clean flow flagged: %v", mm)
	}
	// The §5.7 malware: EOR r16, r17 → EOR r16, r0.
	evil := []Decoded{
		{Class: avr.OpLDI, Rd: 16, HasRd: true},
		{Class: avr.OpEOR, Rd: 16, Rr: 0, HasRd: true, HasRr: true},
	}
	mm := CompareFlow(golden, evil)
	if len(mm) != 1 || mm[0].Field != "Rr" || mm[0].Index != 1 {
		t.Fatalf("register swap not detected: %v", mm)
	}
	if !strings.Contains(mm[0].String(), "Rr mismatch") {
		t.Fatalf("mismatch text %q", mm[0].String())
	}
	// Wrong class.
	wrongClass := []Decoded{
		{Class: avr.OpLDI, Rd: 16, HasRd: true},
		{Class: avr.OpAND, Rd: 16, Rr: 17, HasRd: true, HasRr: true},
	}
	mm = CompareFlow(golden, wrongClass)
	if len(mm) != 1 || mm[0].Field != "class" {
		t.Fatalf("class change not detected: %v", mm)
	}
	// Length mismatch.
	mm = CompareFlow(golden, clean[:1])
	if len(mm) != 1 || mm[0].Field != "length" {
		t.Fatalf("length change not detected: %v", mm)
	}
	// Unknown registers are not compared.
	vague := []Decoded{
		{Class: avr.OpLDI},
		{Class: avr.OpEOR},
	}
	if mm := CompareFlow(golden, vague); len(mm) != 0 {
		t.Fatalf("unknown operands should not raise mismatches: %v", mm)
	}
	// Alias classes compare canonically: golden TST r9 vs observed AND r9,r9.
	aliasGolden := []avr.Instruction{{Class: avr.OpTST, Rd: 9}}
	aliasObs := []Decoded{{Class: avr.OpAND, Rd: 9, Rr: 9, HasRd: true, HasRr: true}}
	if mm := CompareFlow(aliasGolden, aliasObs); len(mm) != 0 {
		t.Fatalf("alias comparison should be canonical: %v", mm)
	}
}

func TestListingRendering(t *testing.T) {
	decs := []Decoded{
		{Class: avr.OpLDI, Rd: 16, HasRd: true},
		{Class: avr.OpSEC},
	}
	got := Listing(decs)
	want := "LDI r16, K?\nSEC\n"
	if got != want {
		t.Fatalf("Listing = %q, want %q", got, want)
	}
}

// noScores hides the ml.Scorer method set of the wrapped classifier, modeling
// an externally supplied Classifier without raw per-class scores.
type noScores struct{ ml.Classifier }

// TestUntrainedGroupRouting pins the subset-disassembler routing contract: a
// trace whose group decision lands on a group without instruction templates
// is redirected onto the best-scoring trained group (ml.Scorer classifiers),
// identically on the plain and scored paths; without scores the typed
// untrained error is preserved.
func TestUntrainedGroupRouting(t *testing.T) {
	cfg := smallConfig()
	classes := []avr.Class{avr.OpADD, avr.OpLDI}
	if avr.OpADD.Group() == avr.OpLDI.Group() {
		t.Fatal("test needs classes from two different groups")
	}
	d, err := TrainSubset(cfg, classes, false)
	if err != nil {
		t.Fatal(err)
	}
	traces := acquireTestTraces(t, cfg, []avr.Class{avr.OpLDI}, 4)

	// Forget LDI's group level: every LDI trace now routes to an untrained
	// group and must be remapped onto ADD's group instead of failing.
	gone := int(avr.OpLDI.Group()) - 1
	kept := avr.OpADD.Group()
	d.instr[gone] = groupLevel{}
	d.instrClass[gone] = nil
	for i, tr := range traces {
		dec, err := d.Classify(tr)
		if err != nil {
			t.Fatalf("trace %d: remapped classify failed: %v", i, err)
		}
		if dec.Group != kept {
			t.Fatalf("trace %d: remapped to group %d, want %d", i, dec.Group, kept)
		}
		scored, err := d.ClassifyScored(tr)
		if err != nil {
			t.Fatalf("trace %d: scored remapped classify failed: %v", i, err)
		}
		if scored.Decoded != dec {
			t.Fatalf("trace %d: scored path decoded %+v, plain path %+v", i, scored.Decoded, dec)
		}
	}

	// Without raw scores there is nothing to remap with: the typed untrained
	// error must surface as before.
	d.group.clf = noScores{d.group.clf}
	if _, err := d.Classify(traces[0]); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("scoreless classify error = %v, want ErrNotTrained", err)
	}
}
