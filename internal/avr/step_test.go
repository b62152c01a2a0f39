package avr

import (
	"fmt"
	"testing"
)

func mustWords(t *testing.T, prog []Instruction) []uint16 {
	t.Helper()
	var words []uint16
	for _, in := range prog {
		w, err := in.Encode()
		if err != nil {
			t.Fatal(err)
		}
		words = append(words, w...)
	}
	return words
}

func TestStepRJMPTarget(t *testing.T) {
	// 0: RJMP +2 ; 1: LDI r16,1 (skipped) ; 2: LDI r17,2 (skipped) ; 3: LDI r18,3
	prog := []Instruction{
		{Class: OpRJMP, Off: 2},
		{Class: OpLDI, Rd: 16, K: 1},
		{Class: OpLDI, Rd: 17, K: 2},
		{Class: OpLDI, Rd: 18, K: 3},
	}
	m := NewMachine(mustWords(t, prog))
	if _, _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if m.PC != 3 {
		t.Fatalf("PC = %d after RJMP +2, want 3", m.PC)
	}
	if _, _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if m.R[18] != 3 || m.R[16] != 0 || m.R[17] != 0 {
		t.Fatalf("jump target executed wrong instruction: r16=%d r17=%d r18=%d", m.R[16], m.R[17], m.R[18])
	}
}

func TestStepJMPAbsolute(t *testing.T) {
	prog := []Instruction{
		{Class: OpJMP, Addr: 3},         // words 0-1
		{Class: OpLDI, Rd: 16, K: 0xEE}, // word 2 (skipped)
		{Class: OpLDI, Rd: 17, K: 0x77}, // word 3 (target)
	}
	m := NewMachine(mustWords(t, prog))
	if _, _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if m.PC != 3 {
		t.Fatalf("PC = %d after JMP 3", m.PC)
	}
	if _, _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if m.R[17] != 0x77 || m.R[16] != 0 {
		t.Fatalf("JMP landed wrong: r16=%#x r17=%#x", m.R[16], m.R[17])
	}
}

// Step fetches, decodes and executes the instruction at PC, advancing PC
// (including branch targets and skips). It returns the executed instruction
// and its activity. An empty flash image is an error. The power model
// executes instructions one by one with Exec and never fetches from flash,
// so only these tests run a program through its control flow.
func (m *Machine) Step() (Instruction, Activity, error) {
	if len(m.Flash) == 0 {
		return Instruction{}, Activity{}, fmt.Errorf("avr: Step with empty flash")
	}
	pc := int(m.PC) % len(m.Flash)
	window := m.Flash[pc:]
	if len(window) < 2 && pc+1 < len(m.Flash) {
		window = m.Flash[pc : pc+2]
	}
	in, n, err := Decode(window)
	if err != nil {
		return Instruction{}, Activity{}, fmt.Errorf("avr: Step at PC=%d: %w", pc, err)
	}
	act, err := m.Exec(in)
	if err != nil {
		return in, act, err
	}
	next := uint32(pc + n)
	if act.Taken {
		switch in.Class {
		case OpJMP:
			next = uint32(in.Addr)
		case OpRJMP:
			next = uint32(int(pc) + n + int(in.Off))
		case OpBREQ, OpBRNE, OpBRCS, OpBRCC, OpBRSH, OpBRLO, OpBRMI, OpBRPL,
			OpBRGE, OpBRLT, OpBRHS, OpBRHC, OpBRTS, OpBRTC, OpBRVS, OpBRVC,
			OpBRIE, OpBRID, OpBRBS, OpBRBC:
			next = uint32(int(pc) + n + int(in.Off))
		default:
			// Skip instructions: skip over the next instruction, which may
			// be 1 or 2 words.
			skipAt := int(next) % len(m.Flash)
			_, sn, derr := Decode(m.Flash[skipAt:])
			if derr != nil {
				sn = 1
			}
			next += uint32(sn)
		}
	}
	m.PC = next % uint32(len(m.Flash))
	return in, act, nil
}

// Run executes up to maxSteps instructions with Step, returning the
// executed listing.
func (m *Machine) Run(maxSteps int) ([]Instruction, error) {
	var out []Instruction
	for i := 0; i < maxSteps; i++ {
		in, _, err := m.Step()
		if err != nil {
			return out, err
		}
		out = append(out, in)
	}
	return out, nil
}

func TestRunExecutesSequence(t *testing.T) {
	prog := []Instruction{
		{Class: OpLDI, Rd: 16, K: 10},
		{Class: OpLDI, Rd: 17, K: 20},
		{Class: OpADD, Rd: 16, Rr: 17},
		{Class: OpNOP},
	}
	m := NewMachine(mustWords(t, prog))
	executed, err := m.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(executed) != 4 {
		t.Fatalf("executed %d instructions", len(executed))
	}
	if m.R[16] != 30 {
		t.Fatalf("r16 = %d, want 30", m.R[16])
	}
}

func TestStepBranchNotTakenFallsThrough(t *testing.T) {
	prog := []Instruction{
		{Class: OpBREQ, Off: 2}, // Z clear → not taken
		{Class: OpLDI, Rd: 16, K: 1},
		{Class: OpNOP},
		{Class: OpNOP},
	}
	m := NewMachine(mustWords(t, prog))
	if _, _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if m.PC != 1 {
		t.Fatalf("PC = %d, want fall-through to 1", m.PC)
	}
}
