package avr

import (
	"fmt"
	"math/rand"
)

// TriggerIOAddr is the I/O register used by the acquisition trigger
// (SBI/CBI on PORTB bit 5, matching the Arduino LED pin convention).
const (
	TriggerIOAddr = 0x05
	TriggerBit    = 5
)

// RandomOperands returns an instruction of class c with uniformly random,
// valid operand values drawn from rng.
func RandomOperands(rng *rand.Rand, c Class) Instruction {
	sp := SpecOf(c)
	in := Instruction{Class: c}
	randReg := func() uint8 {
		lo, hi := int(sp.RdMin), int(sp.RdMax)
		if hi == 0 {
			hi = 31
		}
		r := uint8(lo + rng.Intn(hi-lo+1))
		if sp.RdEven {
			r &^= 1
			if r < sp.RdMin {
				r = sp.RdMin
			}
		}
		return r
	}
	switch sp.Operands {
	case OperandRdRr:
		in.Rd = randReg()
		in.Rr = uint8(rng.Intn(32))
		if c == OpMOVW {
			in.Rr &^= 1
		}
	case OperandRdK:
		in.Rd = randReg()
		in.K = uint8(rng.Intn(256))
	case OperandRdPairK:
		in.Rd = uint8(24 + 2*rng.Intn(4))
		in.K = uint8(rng.Intn(64))
	case OperandRd:
		in.Rd = randReg()
	case OperandOff:
		lim := 63
		if c == OpRJMP {
			lim = 2047
		}
		in.Off = int16(rng.Intn(2*lim+2) - lim - 1)
	case OperandAddr:
		in.Addr = uint16(rng.Intn(0x10000))
	case OperandRdAddr:
		in.Rd = randReg()
		in.Addr = uint16(0x0100 + rng.Intn(0x0700)) // SRAM data space
	case OperandAddrRr:
		in.Rr = uint8(rng.Intn(32))
		in.Addr = uint16(0x0100 + rng.Intn(0x0700))
	case OperandRdPtr, OperandRdZ:
		in.Rd = randReg()
	case OperandPtrRr:
		in.Rr = uint8(rng.Intn(32))
	case OperandRdQ:
		in.Rd = randReg()
		in.Q = uint8(rng.Intn(64))
	case OperandQRr:
		in.Rr = uint8(rng.Intn(32))
		in.Q = uint8(rng.Intn(64))
	case OperandRrB:
		if c == OpBST || c == OpBLD {
			in.Rd = randReg()
		} else {
			in.Rr = uint8(rng.Intn(32))
		}
		in.B = uint8(rng.Intn(8))
	case OperandAB:
		in.Addr = uint16(rng.Intn(32))
		in.B = uint8(rng.Intn(8))
	case OperandSOff:
		in.S = uint8(rng.Intn(8))
		in.Off = int16(rng.Intn(128) - 64)
	case OperandS:
		in.S = uint8(rng.Intn(8))
	}
	return in
}

// safeNeighborClasses are the classes used for the random neighbor slots of
// a segment template. Branches and skips are excluded so the template's
// straight-line timing is preserved, mirroring the paper's profiling setup.
var safeNeighborClasses = func() []Class {
	var out []Class
	for _, c := range AllClasses() {
		switch c.Group() {
		case Group4:
			continue // branches would disturb sequencing
		}
		switch c {
		case OpCPSE, OpSBRC, OpSBRS, OpSBIC, OpSBIS, OpBRBS, OpBRBC:
			continue
		}
		out = append(out, c)
	}
	return out
}()

// RandomNeighbor returns a random non-control-flow instruction for the
// filler slots of a segment template.
func RandomNeighbor(rng *rand.Rand) Instruction {
	c := safeNeighborClasses[rng.Intn(len(safeNeighborClasses))]
	return RandomOperands(rng, c)
}

// Segment is one acquisition unit: the 7-instruction program segment
// template of the paper (Fig. 4) around a single profiled target.
//
//	SBI, NOP, prev, TARGET, next, NOP, CBI
//
// SBI/CBI raise and lower the trigger line; prev/next are random
// instructions so the 2-stage pipeline overlap seen by the target varies
// trace to trace.
type Segment struct {
	Target Instruction
	Prev   Instruction
	Next   Instruction
}

// NewSegment builds a segment for target with random neighbor instructions.
func NewSegment(rng *rand.Rand, target Instruction) Segment {
	return Segment{
		Target: target,
		Prev:   RandomNeighbor(rng),
		Next:   RandomNeighbor(rng),
	}
}

// Instructions returns the full 7-instruction sequence of the segment.
func (s Segment) Instructions() []Instruction {
	return []Instruction{
		{Class: OpSBI, Addr: TriggerIOAddr, B: TriggerBit},
		{Class: OpNOP},
		s.Prev,
		s.Target,
		s.Next,
		{Class: OpNOP},
		{Class: OpCBI, Addr: TriggerIOAddr, B: TriggerBit},
	}
}

// ReferenceSequence is the SBI, 5×NOP, CBI sequence whose trace is
// subtracted from each measurement to remove the trigger's own power
// consumption and static noise.
func ReferenceSequence() []Instruction {
	return []Instruction{
		{Class: OpSBI, Addr: TriggerIOAddr, B: TriggerBit},
		{Class: OpNOP},
		{Class: OpNOP},
		{Class: OpNOP},
		{Class: OpNOP},
		{Class: OpNOP},
		{Class: OpCBI, Addr: TriggerIOAddr, B: TriggerBit},
	}
}

// ProgramFile models one uploaded .ino image: a batch of segment templates
// for a single class. The paper stores 300 segments per file and uses 10
// (later 19) files per class; files are the unit across which the
// program-level covariate shift occurs.
type ProgramFile struct {
	ID       int
	Segments []Segment
}

// NewProgramFile builds a program file of n segments whose targets all have
// class c but freshly randomized operands.
func NewProgramFile(rng *rand.Rand, id int, c Class, n int) ProgramFile {
	if n <= 0 {
		panic(fmt.Sprintf("avr: NewProgramFile needs positive segment count, got %d", n))
	}
	segs := make([]Segment, n)
	for i := range segs {
		segs[i] = NewSegment(rng, RandomOperands(rng, c))
	}
	return ProgramFile{ID: id, Segments: segs}
}

// NewRegisterProgramFile builds a program file whose targets all use a fixed
// destination (fixDst) or source register value reg, with the opcode and the
// other register randomized — the paper's register-profiling workload. Only
// group 1 classes are used because they exercise both Rd and Rr.
func NewRegisterProgramFile(rng *rand.Rand, id int, reg uint8, fixDst bool, n int) ProgramFile {
	group1 := ClassesInGroup(Group1)
	segs := make([]Segment, n)
	for i := range segs {
		// MOVW constrains registers to even pairs; skip it so every reg
		// value 0–31 is reachable.
		var c Class
		for {
			c = group1[rng.Intn(len(group1))]
			if c != OpMOVW {
				break
			}
		}
		in := RandomOperands(rng, c)
		if fixDst {
			in.Rd = reg
		} else {
			in.Rr = reg
		}
		segs[i] = NewSegment(rng, in)
	}
	return ProgramFile{ID: id, Segments: segs}
}
