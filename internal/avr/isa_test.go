package avr

import (
	"errors"
	"strings"
	"testing"
)

func TestNumClassesIs112(t *testing.T) {
	if NumClasses != 112 {
		t.Fatalf("NumClasses = %d, want 112 (paper Table 2)", NumClasses)
	}
}

func TestGroupSizesMatchTable2(t *testing.T) {
	want := [NumGroups]int{12, 10, 13, 20, 24, 15, 12, 6}
	got := GroupSizes()
	if got != want {
		t.Fatalf("group sizes = %v, want %v", got, want)
	}
}

func TestEveryClassHasSpec(t *testing.T) {
	for _, c := range AllClasses() {
		sp := SpecOf(c)
		if sp.Name == "" {
			t.Fatalf("class %d has no name", c)
		}
		if sp.Group < Group1 || sp.Group > Group8 {
			t.Fatalf("class %v has invalid group %v", c, sp.Group)
		}
		if sp.Words != 1 && sp.Words != 2 {
			t.Fatalf("class %v has invalid word count %d", c, sp.Words)
		}
		if sp.Cycles < 1 || sp.Cycles > 3 {
			t.Fatalf("class %v has implausible cycle count %d", c, sp.Cycles)
		}
	}
	if SpecOf(OpNOP).Group != GroupNone {
		t.Fatal("NOP must be unclassified")
	}
}

func TestClassesInGroupPartition(t *testing.T) {
	seen := map[Class]bool{}
	total := 0
	for g := Group1; g <= Group8; g++ {
		for _, c := range ClassesInGroup(g) {
			if seen[c] {
				t.Fatalf("class %v appears in two groups", c)
			}
			seen[c] = true
			if c.Group() != g {
				t.Fatalf("class %v reports group %v, listed under %v", c, c.Group(), g)
			}
			total++
		}
	}
	if total != NumClasses {
		t.Fatalf("groups cover %d classes, want %d", total, NumClasses)
	}
}

func TestTwoWordClasses(t *testing.T) {
	for _, c := range AllClasses() {
		want := 1
		if c == OpJMP || c == OpLDS || c == OpSTS {
			want = 2
		}
		if SpecOf(c).Words != want {
			t.Fatalf("class %v: words = %d, want %d", c, SpecOf(c).Words, want)
		}
	}
}

func TestGroupDescriptions(t *testing.T) {
	for g := Group1; g <= Group8; g++ {
		if g.Description() == "unclassified" {
			t.Fatalf("group %v lacks a description", g)
		}
		if !strings.HasPrefix(g.String(), "group") {
			t.Fatalf("group string %q", g.String())
		}
	}
	if GroupNone.String() != "none" {
		t.Fatalf("GroupNone string %q", GroupNone.String())
	}
}

func TestGroup1Membership(t *testing.T) {
	want := []Class{OpADD, OpADC, OpSUB, OpSBC, OpAND, OpOR, OpEOR, OpCPSE, OpCP, OpCPC, OpMOV, OpMOVW}
	got := ClassesInGroup(Group1)
	if len(got) != len(want) {
		t.Fatalf("group1 has %d classes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("group1[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestClassStringIncludesSyntax(t *testing.T) {
	if s := OpADD.String(); s != "ADD Rd, Rr" {
		t.Fatalf("OpADD.String() = %q", s)
	}
	if s := OpSEC.String(); s != "SEC" {
		t.Fatalf("OpSEC.String() = %q", s)
	}
	if s := OpLDXInc.String(); s != "LD Rd, X+" {
		t.Fatalf("OpLDXInc.String() = %q", s)
	}
}

// Classified reports whether c is one of the 112 profiled classes. No
// non-test code asks; the predicate lives here with the test that pins it.
func (c Class) Classified() bool { return int(c) < NumClasses }

func TestClassifiedPredicate(t *testing.T) {
	for _, c := range AllClasses() {
		if !c.Classified() {
			t.Fatalf("class %v should be classified", c)
		}
	}
	if OpNOP.Classified() {
		t.Fatal("NOP should not be classified")
	}
}

func TestValidateTypedSentinels(t *testing.T) {
	if err := (Instruction{Class: Class(250)}).Validate(); !errors.Is(err, ErrBadClass) {
		t.Fatalf("invalid class err = %v, want ErrBadClass", err)
	}
	bad := []Instruction{
		{Class: OpADD, Rd: 40},         // register out of range
		{Class: OpLDI, Rd: 3},          // LDI needs r16..r31
		{Class: OpADIW, Rd: 25},        // pair register must be even
		{Class: OpRJMP, Off: 5000},     // offset out of range
		{Class: OpLDDY, Rd: 1, Q: 99},  // displacement exceeds 6 bits
		{Class: OpSBI, Addr: 40, B: 1}, // I/O address exceeds 5 bits
		{Class: OpBRBS, S: 9},          // SREG bit out of range
	}
	for _, in := range bad {
		if err := in.Validate(); !errors.Is(err, ErrBadOperand) {
			t.Fatalf("Validate(%+v) err = %v, want ErrBadOperand", in, err)
		}
	}
	if !ValidClass(OpADD) || ValidClass(Class(255)) {
		t.Fatal("ValidClass misclassifies")
	}
}
