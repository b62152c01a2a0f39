// Package avr models the AVR (ATMega328P) instruction set that the
// side-channel disassembler profiles: the 112 instruction classes of the
// paper's Table 2, with real 16/32-bit encodings, a text assembler, a binary
// disassembler, and a cycle-annotated functional simulator. The simulator
// supplies the micro-architectural state (operand values, results, memory
// activity) that the synthetic power model leaks.
package avr

import "fmt"

// Group is the paper's Table 2 partition of the instruction set. Groups are
// keyed by operand shape, which correlates with which micro-architectural
// units are active — that is why group-level power signatures separate well.
type Group uint8

const (
	// GroupNone marks instructions outside the 8 classified groups (NOP).
	GroupNone Group = iota
	// Group1: two-register arithmetic/logic (Rd, Rr). 12 instructions.
	Group1
	// Group2: register-immediate arithmetic/data (Rd, K). 10 instructions.
	Group2
	// Group3: single-register bit/arithmetic (Rd). 13 instructions.
	Group3
	// Group4: relative/absolute branches and jumps (k). 20 instructions.
	Group4
	// Group5: data transfer loads/stores (Rd with X/Y/Z modes). 24 instructions.
	Group5
	// Group6: SREG flag set/clear, no operands. 15 instructions.
	Group6
	// Group7: bit/branch on bit (register or I/O bit operands). 12 instructions.
	Group7
	// Group8: program-memory loads LPM/ELPM. 6 instructions.
	Group8
)

// NumGroups is the number of classified groups.
const NumGroups = 8

func (g Group) String() string {
	if g == GroupNone {
		return "none"
	}
	return fmt.Sprintf("group%d", int(g))
}

// Description returns the paper's category label for the group.
func (g Group) Description() string {
	switch g {
	case Group1:
		return "arithmetic and logic (Rd, Rr)"
	case Group2:
		return "arithmetic and data, immediate (Rd, K)"
	case Group3:
		return "bit and arithmetic, single register (Rd)"
	case Group4:
		return "branch (k)"
	case Group5:
		return "data transfer (Rd, memory)"
	case Group6:
		return "SREG bit set/clear"
	case Group7:
		return "branch and bit-test (bit operands)"
	case Group8:
		return "program memory load"
	default:
		return "unclassified"
	}
}

// Class identifies one of the profiled instruction classes. Load/store
// addressing-mode variants are distinct classes (the paper counts them
// separately to reach 24 in group 5 and 6 in group 8).
type Class uint8

// Group 1 — two-register arithmetic and logic.
const (
	OpADD Class = iota
	OpADC
	OpSUB
	OpSBC
	OpAND
	OpOR
	OpEOR
	OpCPSE
	OpCP
	OpCPC
	OpMOV
	OpMOVW

	// Group 2 — register-immediate.
	OpADIW
	OpSUBI
	OpSBCI
	OpSBIW
	OpANDI
	OpORI
	OpSBR
	OpCBR
	OpCPI
	OpLDI

	// Group 3 — single register.
	OpCOM
	OpNEG
	OpINC
	OpDEC
	OpTST
	OpCLR
	OpSER
	OpLSL
	OpLSR
	OpROL
	OpROR
	OpASR
	OpSWAP

	// Group 4 — branches and jumps.
	OpRJMP
	OpJMP
	OpBREQ
	OpBRNE
	OpBRCS
	OpBRCC
	OpBRSH
	OpBRLO
	OpBRMI
	OpBRPL
	OpBRGE
	OpBRLT
	OpBRHS
	OpBRHC
	OpBRTS
	OpBRTC
	OpBRVS
	OpBRVC
	OpBRIE
	OpBRID

	// Group 5 — data loads and stores.
	OpLDS
	OpLDX
	OpLDXInc
	OpLDXDec
	OpLDY
	OpLDYInc
	OpLDYDec
	OpLDZ
	OpLDZInc
	OpLDZDec
	OpLDDY
	OpLDDZ
	OpSTS
	OpSTX
	OpSTXInc
	OpSTXDec
	OpSTY
	OpSTYInc
	OpSTYDec
	OpSTZ
	OpSTZInc
	OpSTZDec
	OpSTDY
	OpSTDZ

	// Group 6 — SREG flag operations.
	OpSEC
	OpCLC
	OpSEN
	OpCLN
	OpSEZ
	OpCLZ
	OpSEI
	OpSES
	OpCLS
	OpSEV
	OpCLV
	OpSET
	OpCLT
	OpSEH
	OpCLH

	// Group 7 — bit and branch-on-bit.
	OpSBRC
	OpSBRS
	OpSBIC
	OpSBIS
	OpBRBS
	OpBRBC
	OpSBI
	OpCBI
	OpBST
	OpBLD
	OpBSET
	OpBCLR

	// Group 8 — program memory loads.
	OpLPM0 // LPM (implied R0 ← flash[Z])
	OpLPM  // LPM Rd, Z
	OpLPMInc
	OpELPM0
	OpELPM
	OpELPMInc

	// OpNOP is used by the acquisition templates (SBI, NOP, …, NOP, CBI)
	// but is excluded from the 112 classified instructions.
	OpNOP

	numClasses
)

// NumClasses is the number of classified instruction classes (112).
const NumClasses = int(OpNOP)

// OperandKind describes which operand fields an instruction class uses.
type OperandKind uint8

const (
	OperandNone    OperandKind = iota
	OperandRdRr                // Rd, Rr
	OperandRdK                 // Rd, K (8-bit immediate)
	OperandRdPairK             // Rd∈{24,26,28,30} pair, K (6-bit) — ADIW/SBIW
	OperandRd                  // Rd only
	OperandOff                 // signed relative offset k
	OperandAddr                // absolute address k
	OperandRdAddr              // Rd, 16-bit data address (LDS)
	OperandAddrRr              // 16-bit data address, Rr (STS)
	OperandRdPtr               // Rd with pointer mode (LD)
	OperandPtrRr               // pointer mode with Rr (ST)
	OperandRdQ                 // Rd, q displacement (LDD)
	OperandQRr                 // q displacement, Rr (STD)
	OperandRrB                 // Rr, bit (SBRC/SBRS/BST/BLD)
	OperandAB                  // I/O address, bit (SBI/CBI/SBIC/SBIS)
	OperandSOff                // SREG bit s, offset k (BRBS/BRBC)
	OperandS                   // SREG bit s (BSET/BCLR)
	OperandRdZ                 // Rd, Z (LPM forms)
	OperandImplied             // no encoded operands (LPM0, group 6 aliases, NOP)
)

// Spec is the static description of one instruction class.
type Spec struct {
	Name     string // canonical mnemonic, upper case
	Syntax   string // operand syntax for display, e.g. "Rd, Rr"
	Group    Group
	Operands OperandKind
	Words    int // encoded length in 16-bit words (1 or 2)
	Cycles   int // nominal execution cycles on ATMega328P (branch not taken)
	// RdMin/RdMax constrain the destination register for classes with
	// restricted register files (immediate ops use r16–r31, ADIW pairs, …).
	RdMin, RdMax uint8
	// RdEven marks classes whose Rd must be even (MOVW, ADIW, SBIW).
	RdEven bool
}

// specs is indexed by Class.
var specs = [numClasses]Spec{
	OpADD:  {Name: "ADD", Syntax: "Rd, Rr", Group: Group1, Operands: OperandRdRr, Words: 1, Cycles: 1, RdMax: 31},
	OpADC:  {Name: "ADC", Syntax: "Rd, Rr", Group: Group1, Operands: OperandRdRr, Words: 1, Cycles: 1, RdMax: 31},
	OpSUB:  {Name: "SUB", Syntax: "Rd, Rr", Group: Group1, Operands: OperandRdRr, Words: 1, Cycles: 1, RdMax: 31},
	OpSBC:  {Name: "SBC", Syntax: "Rd, Rr", Group: Group1, Operands: OperandRdRr, Words: 1, Cycles: 1, RdMax: 31},
	OpAND:  {Name: "AND", Syntax: "Rd, Rr", Group: Group1, Operands: OperandRdRr, Words: 1, Cycles: 1, RdMax: 31},
	OpOR:   {Name: "OR", Syntax: "Rd, Rr", Group: Group1, Operands: OperandRdRr, Words: 1, Cycles: 1, RdMax: 31},
	OpEOR:  {Name: "EOR", Syntax: "Rd, Rr", Group: Group1, Operands: OperandRdRr, Words: 1, Cycles: 1, RdMax: 31},
	OpCPSE: {Name: "CPSE", Syntax: "Rd, Rr", Group: Group1, Operands: OperandRdRr, Words: 1, Cycles: 1, RdMax: 31},
	OpCP:   {Name: "CP", Syntax: "Rd, Rr", Group: Group1, Operands: OperandRdRr, Words: 1, Cycles: 1, RdMax: 31},
	OpCPC:  {Name: "CPC", Syntax: "Rd, Rr", Group: Group1, Operands: OperandRdRr, Words: 1, Cycles: 1, RdMax: 31},
	OpMOV:  {Name: "MOV", Syntax: "Rd, Rr", Group: Group1, Operands: OperandRdRr, Words: 1, Cycles: 1, RdMax: 31},
	OpMOVW: {Name: "MOVW", Syntax: "Rd, Rr", Group: Group1, Operands: OperandRdRr, Words: 1, Cycles: 1, RdMax: 30, RdEven: true},

	OpADIW: {Name: "ADIW", Syntax: "Rd, K", Group: Group2, Operands: OperandRdPairK, Words: 1, Cycles: 2, RdMin: 24, RdMax: 30, RdEven: true},
	OpSUBI: {Name: "SUBI", Syntax: "Rd, K", Group: Group2, Operands: OperandRdK, Words: 1, Cycles: 1, RdMin: 16, RdMax: 31},
	OpSBCI: {Name: "SBCI", Syntax: "Rd, K", Group: Group2, Operands: OperandRdK, Words: 1, Cycles: 1, RdMin: 16, RdMax: 31},
	OpSBIW: {Name: "SBIW", Syntax: "Rd, K", Group: Group2, Operands: OperandRdPairK, Words: 1, Cycles: 2, RdMin: 24, RdMax: 30, RdEven: true},
	OpANDI: {Name: "ANDI", Syntax: "Rd, K", Group: Group2, Operands: OperandRdK, Words: 1, Cycles: 1, RdMin: 16, RdMax: 31},
	OpORI:  {Name: "ORI", Syntax: "Rd, K", Group: Group2, Operands: OperandRdK, Words: 1, Cycles: 1, RdMin: 16, RdMax: 31},
	OpSBR:  {Name: "SBR", Syntax: "Rd, K", Group: Group2, Operands: OperandRdK, Words: 1, Cycles: 1, RdMin: 16, RdMax: 31},
	OpCBR:  {Name: "CBR", Syntax: "Rd, K", Group: Group2, Operands: OperandRdK, Words: 1, Cycles: 1, RdMin: 16, RdMax: 31},
	OpCPI:  {Name: "CPI", Syntax: "Rd, K", Group: Group2, Operands: OperandRdK, Words: 1, Cycles: 1, RdMin: 16, RdMax: 31},
	OpLDI:  {Name: "LDI", Syntax: "Rd, K", Group: Group2, Operands: OperandRdK, Words: 1, Cycles: 1, RdMin: 16, RdMax: 31},

	OpCOM:  {Name: "COM", Syntax: "Rd", Group: Group3, Operands: OperandRd, Words: 1, Cycles: 1, RdMax: 31},
	OpNEG:  {Name: "NEG", Syntax: "Rd", Group: Group3, Operands: OperandRd, Words: 1, Cycles: 1, RdMax: 31},
	OpINC:  {Name: "INC", Syntax: "Rd", Group: Group3, Operands: OperandRd, Words: 1, Cycles: 1, RdMax: 31},
	OpDEC:  {Name: "DEC", Syntax: "Rd", Group: Group3, Operands: OperandRd, Words: 1, Cycles: 1, RdMax: 31},
	OpTST:  {Name: "TST", Syntax: "Rd", Group: Group3, Operands: OperandRd, Words: 1, Cycles: 1, RdMax: 31},
	OpCLR:  {Name: "CLR", Syntax: "Rd", Group: Group3, Operands: OperandRd, Words: 1, Cycles: 1, RdMax: 31},
	OpSER:  {Name: "SER", Syntax: "Rd", Group: Group3, Operands: OperandRd, Words: 1, Cycles: 1, RdMin: 16, RdMax: 31},
	OpLSL:  {Name: "LSL", Syntax: "Rd", Group: Group3, Operands: OperandRd, Words: 1, Cycles: 1, RdMax: 31},
	OpLSR:  {Name: "LSR", Syntax: "Rd", Group: Group3, Operands: OperandRd, Words: 1, Cycles: 1, RdMax: 31},
	OpROL:  {Name: "ROL", Syntax: "Rd", Group: Group3, Operands: OperandRd, Words: 1, Cycles: 1, RdMax: 31},
	OpROR:  {Name: "ROR", Syntax: "Rd", Group: Group3, Operands: OperandRd, Words: 1, Cycles: 1, RdMax: 31},
	OpASR:  {Name: "ASR", Syntax: "Rd", Group: Group3, Operands: OperandRd, Words: 1, Cycles: 1, RdMax: 31},
	OpSWAP: {Name: "SWAP", Syntax: "Rd", Group: Group3, Operands: OperandRd, Words: 1, Cycles: 1, RdMax: 31},

	OpRJMP: {Name: "RJMP", Syntax: "k", Group: Group4, Operands: OperandOff, Words: 1, Cycles: 2},
	OpJMP:  {Name: "JMP", Syntax: "k", Group: Group4, Operands: OperandAddr, Words: 2, Cycles: 3},
	OpBREQ: {Name: "BREQ", Syntax: "k", Group: Group4, Operands: OperandOff, Words: 1, Cycles: 1},
	OpBRNE: {Name: "BRNE", Syntax: "k", Group: Group4, Operands: OperandOff, Words: 1, Cycles: 1},
	OpBRCS: {Name: "BRCS", Syntax: "k", Group: Group4, Operands: OperandOff, Words: 1, Cycles: 1},
	OpBRCC: {Name: "BRCC", Syntax: "k", Group: Group4, Operands: OperandOff, Words: 1, Cycles: 1},
	OpBRSH: {Name: "BRSH", Syntax: "k", Group: Group4, Operands: OperandOff, Words: 1, Cycles: 1},
	OpBRLO: {Name: "BRLO", Syntax: "k", Group: Group4, Operands: OperandOff, Words: 1, Cycles: 1},
	OpBRMI: {Name: "BRMI", Syntax: "k", Group: Group4, Operands: OperandOff, Words: 1, Cycles: 1},
	OpBRPL: {Name: "BRPL", Syntax: "k", Group: Group4, Operands: OperandOff, Words: 1, Cycles: 1},
	OpBRGE: {Name: "BRGE", Syntax: "k", Group: Group4, Operands: OperandOff, Words: 1, Cycles: 1},
	OpBRLT: {Name: "BRLT", Syntax: "k", Group: Group4, Operands: OperandOff, Words: 1, Cycles: 1},
	OpBRHS: {Name: "BRHS", Syntax: "k", Group: Group4, Operands: OperandOff, Words: 1, Cycles: 1},
	OpBRHC: {Name: "BRHC", Syntax: "k", Group: Group4, Operands: OperandOff, Words: 1, Cycles: 1},
	OpBRTS: {Name: "BRTS", Syntax: "k", Group: Group4, Operands: OperandOff, Words: 1, Cycles: 1},
	OpBRTC: {Name: "BRTC", Syntax: "k", Group: Group4, Operands: OperandOff, Words: 1, Cycles: 1},
	OpBRVS: {Name: "BRVS", Syntax: "k", Group: Group4, Operands: OperandOff, Words: 1, Cycles: 1},
	OpBRVC: {Name: "BRVC", Syntax: "k", Group: Group4, Operands: OperandOff, Words: 1, Cycles: 1},
	OpBRIE: {Name: "BRIE", Syntax: "k", Group: Group4, Operands: OperandOff, Words: 1, Cycles: 1},
	OpBRID: {Name: "BRID", Syntax: "k", Group: Group4, Operands: OperandOff, Words: 1, Cycles: 1},

	OpLDS:    {Name: "LDS", Syntax: "Rd, k", Group: Group5, Operands: OperandRdAddr, Words: 2, Cycles: 2, RdMax: 31},
	OpLDX:    {Name: "LD", Syntax: "Rd, X", Group: Group5, Operands: OperandRdPtr, Words: 1, Cycles: 2, RdMax: 31},
	OpLDXInc: {Name: "LD", Syntax: "Rd, X+", Group: Group5, Operands: OperandRdPtr, Words: 1, Cycles: 2, RdMax: 31},
	OpLDXDec: {Name: "LD", Syntax: "Rd, -X", Group: Group5, Operands: OperandRdPtr, Words: 1, Cycles: 2, RdMax: 31},
	OpLDY:    {Name: "LD", Syntax: "Rd, Y", Group: Group5, Operands: OperandRdPtr, Words: 1, Cycles: 2, RdMax: 31},
	OpLDYInc: {Name: "LD", Syntax: "Rd, Y+", Group: Group5, Operands: OperandRdPtr, Words: 1, Cycles: 2, RdMax: 31},
	OpLDYDec: {Name: "LD", Syntax: "Rd, -Y", Group: Group5, Operands: OperandRdPtr, Words: 1, Cycles: 2, RdMax: 31},
	OpLDZ:    {Name: "LD", Syntax: "Rd, Z", Group: Group5, Operands: OperandRdPtr, Words: 1, Cycles: 2, RdMax: 31},
	OpLDZInc: {Name: "LD", Syntax: "Rd, Z+", Group: Group5, Operands: OperandRdPtr, Words: 1, Cycles: 2, RdMax: 31},
	OpLDZDec: {Name: "LD", Syntax: "Rd, -Z", Group: Group5, Operands: OperandRdPtr, Words: 1, Cycles: 2, RdMax: 31},
	OpLDDY:   {Name: "LDD", Syntax: "Rd, Y+q", Group: Group5, Operands: OperandRdQ, Words: 1, Cycles: 2, RdMax: 31},
	OpLDDZ:   {Name: "LDD", Syntax: "Rd, Z+q", Group: Group5, Operands: OperandRdQ, Words: 1, Cycles: 2, RdMax: 31},
	OpSTS:    {Name: "STS", Syntax: "k, Rr", Group: Group5, Operands: OperandAddrRr, Words: 2, Cycles: 2, RdMax: 31},
	OpSTX:    {Name: "ST", Syntax: "X, Rr", Group: Group5, Operands: OperandPtrRr, Words: 1, Cycles: 2, RdMax: 31},
	OpSTXInc: {Name: "ST", Syntax: "X+, Rr", Group: Group5, Operands: OperandPtrRr, Words: 1, Cycles: 2, RdMax: 31},
	OpSTXDec: {Name: "ST", Syntax: "-X, Rr", Group: Group5, Operands: OperandPtrRr, Words: 1, Cycles: 2, RdMax: 31},
	OpSTY:    {Name: "ST", Syntax: "Y, Rr", Group: Group5, Operands: OperandPtrRr, Words: 1, Cycles: 2, RdMax: 31},
	OpSTYInc: {Name: "ST", Syntax: "Y+, Rr", Group: Group5, Operands: OperandPtrRr, Words: 1, Cycles: 2, RdMax: 31},
	OpSTYDec: {Name: "ST", Syntax: "-Y, Rr", Group: Group5, Operands: OperandPtrRr, Words: 1, Cycles: 2, RdMax: 31},
	OpSTZ:    {Name: "ST", Syntax: "Z, Rr", Group: Group5, Operands: OperandPtrRr, Words: 1, Cycles: 2, RdMax: 31},
	OpSTZInc: {Name: "ST", Syntax: "Z+, Rr", Group: Group5, Operands: OperandPtrRr, Words: 1, Cycles: 2, RdMax: 31},
	OpSTZDec: {Name: "ST", Syntax: "-Z, Rr", Group: Group5, Operands: OperandPtrRr, Words: 1, Cycles: 2, RdMax: 31},
	OpSTDY:   {Name: "STD", Syntax: "Y+q, Rr", Group: Group5, Operands: OperandQRr, Words: 1, Cycles: 2, RdMax: 31},
	OpSTDZ:   {Name: "STD", Syntax: "Z+q, Rr", Group: Group5, Operands: OperandQRr, Words: 1, Cycles: 2, RdMax: 31},

	OpSEC: {Name: "SEC", Group: Group6, Operands: OperandImplied, Words: 1, Cycles: 1},
	OpCLC: {Name: "CLC", Group: Group6, Operands: OperandImplied, Words: 1, Cycles: 1},
	OpSEN: {Name: "SEN", Group: Group6, Operands: OperandImplied, Words: 1, Cycles: 1},
	OpCLN: {Name: "CLN", Group: Group6, Operands: OperandImplied, Words: 1, Cycles: 1},
	OpSEZ: {Name: "SEZ", Group: Group6, Operands: OperandImplied, Words: 1, Cycles: 1},
	OpCLZ: {Name: "CLZ", Group: Group6, Operands: OperandImplied, Words: 1, Cycles: 1},
	OpSEI: {Name: "SEI", Group: Group6, Operands: OperandImplied, Words: 1, Cycles: 1},
	OpSES: {Name: "SES", Group: Group6, Operands: OperandImplied, Words: 1, Cycles: 1},
	OpCLS: {Name: "CLS", Group: Group6, Operands: OperandImplied, Words: 1, Cycles: 1},
	OpSEV: {Name: "SEV", Group: Group6, Operands: OperandImplied, Words: 1, Cycles: 1},
	OpCLV: {Name: "CLV", Group: Group6, Operands: OperandImplied, Words: 1, Cycles: 1},
	OpSET: {Name: "SET", Group: Group6, Operands: OperandImplied, Words: 1, Cycles: 1},
	OpCLT: {Name: "CLT", Group: Group6, Operands: OperandImplied, Words: 1, Cycles: 1},
	OpSEH: {Name: "SEH", Group: Group6, Operands: OperandImplied, Words: 1, Cycles: 1},
	OpCLH: {Name: "CLH", Group: Group6, Operands: OperandImplied, Words: 1, Cycles: 1},

	OpSBRC: {Name: "SBRC", Syntax: "Rr, b", Group: Group7, Operands: OperandRrB, Words: 1, Cycles: 1, RdMax: 31},
	OpSBRS: {Name: "SBRS", Syntax: "Rr, b", Group: Group7, Operands: OperandRrB, Words: 1, Cycles: 1, RdMax: 31},
	OpSBIC: {Name: "SBIC", Syntax: "A, b", Group: Group7, Operands: OperandAB, Words: 1, Cycles: 1},
	OpSBIS: {Name: "SBIS", Syntax: "A, b", Group: Group7, Operands: OperandAB, Words: 1, Cycles: 1},
	OpBRBS: {Name: "BRBS", Syntax: "s, k", Group: Group7, Operands: OperandSOff, Words: 1, Cycles: 1},
	OpBRBC: {Name: "BRBC", Syntax: "s, k", Group: Group7, Operands: OperandSOff, Words: 1, Cycles: 1},
	OpSBI:  {Name: "SBI", Syntax: "A, b", Group: Group7, Operands: OperandAB, Words: 1, Cycles: 2},
	OpCBI:  {Name: "CBI", Syntax: "A, b", Group: Group7, Operands: OperandAB, Words: 1, Cycles: 2},
	OpBST:  {Name: "BST", Syntax: "Rd, b", Group: Group7, Operands: OperandRrB, Words: 1, Cycles: 1, RdMax: 31},
	OpBLD:  {Name: "BLD", Syntax: "Rd, b", Group: Group7, Operands: OperandRrB, Words: 1, Cycles: 1, RdMax: 31},
	OpBSET: {Name: "BSET", Syntax: "s", Group: Group7, Operands: OperandS, Words: 1, Cycles: 1},
	OpBCLR: {Name: "BCLR", Syntax: "s", Group: Group7, Operands: OperandS, Words: 1, Cycles: 1},

	OpLPM0:    {Name: "LPM", Group: Group8, Operands: OperandImplied, Words: 1, Cycles: 3},
	OpLPM:     {Name: "LPM", Syntax: "Rd, Z", Group: Group8, Operands: OperandRdZ, Words: 1, Cycles: 3, RdMax: 31},
	OpLPMInc:  {Name: "LPM", Syntax: "Rd, Z+", Group: Group8, Operands: OperandRdZ, Words: 1, Cycles: 3, RdMax: 31},
	OpELPM0:   {Name: "ELPM", Group: Group8, Operands: OperandImplied, Words: 1, Cycles: 3},
	OpELPM:    {Name: "ELPM", Syntax: "Rd, Z", Group: Group8, Operands: OperandRdZ, Words: 1, Cycles: 3, RdMax: 31},
	OpELPMInc: {Name: "ELPM", Syntax: "Rd, Z+", Group: Group8, Operands: OperandRdZ, Words: 1, Cycles: 3, RdMax: 31},

	OpNOP: {Name: "NOP", Group: GroupNone, Operands: OperandImplied, Words: 1, Cycles: 1},
}

// SpecOf returns the static description of class c. It panics on an
// undefined class — that is a programmer error on every internal path;
// callers holding class values of external origin (persisted templates,
// decoded words) must screen them with ValidClass first.
func SpecOf(c Class) Spec {
	if int(c) >= int(numClasses) {
		panic(fmt.Sprintf("avr: invalid class %d", c))
	}
	return specs[c]
}

func (c Class) String() string {
	if int(c) >= int(numClasses) {
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
	s := specs[c]
	if s.Syntax == "" {
		return s.Name
	}
	return s.Name + " " + s.Syntax
}

// Name returns the bare mnemonic of the class.
func (c Class) Name() string { return SpecOf(c).Name }

// Group returns the Table 2 group of the class.
func (c Class) Group() Group { return SpecOf(c).Group }

// ClassesInGroup returns the classes belonging to group g, in declaration
// order (which is the paper's Table 2 order).
func ClassesInGroup(g Group) []Class {
	var out []Class
	for c := Class(0); c < Class(NumClasses); c++ {
		if specs[c].Group == g {
			out = append(out, c)
		}
	}
	return out
}

// AllClasses returns the 112 classified classes in declaration order.
func AllClasses() []Class {
	out := make([]Class, NumClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

// GroupSizes returns the class count per group (Table 2's "# of Insts" row),
// indexed by Group1..Group8 at positions 0..7.
func GroupSizes() [NumGroups]int {
	var sizes [NumGroups]int
	for c := Class(0); c < Class(NumClasses); c++ {
		sizes[specs[c].Group-Group1]++
	}
	return sizes
}
