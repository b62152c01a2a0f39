package avr

import (
	"fmt"
	"math/bits"
)

// SREG flag bit positions.
const (
	FlagC = 0 // carry
	FlagZ = 1 // zero
	FlagN = 2 // negative
	FlagV = 3 // two's-complement overflow
	FlagS = 4 // sign (N xor V)
	FlagH = 5 // half carry
	FlagT = 6 // bit copy storage
	FlagI = 7 // global interrupt enable; completes the SREG bit table, the simulator never sets it
)

// Pointer register pairs. The high halves complete the X/Y/Z table; the
// simulator addresses each pair through its low register.
const (
	RegXL, RegXH = 26, 27
	RegYL, RegYH = 28, 29
	RegZL, RegZH = 30, 31
)

// DefaultSRAMSize matches the ATMega328P's 2 KiB of internal SRAM.
const DefaultSRAMSize = 2048

// Machine is a functional model of the AVR core: 32 GP registers, SREG,
// 64 I/O registers, SRAM, and flash (as 16-bit words). It executes the 112
// profiled instruction classes plus NOP with architecturally correct
// register, memory and flag semantics.
type Machine struct {
	R     [32]uint8
	SREG  uint8
	PC    uint32 // word address into Flash
	SRAM  []uint8
	IO    [64]uint8
	Flash []uint16
}

// NewMachine returns a machine with DefaultSRAMSize bytes of SRAM and the
// given flash image (may be nil for machines that only Exec directly).
func NewMachine(flash []uint16) *Machine {
	return &Machine{SRAM: make([]uint8, DefaultSRAMSize), Flash: flash}
}

// Activity summarizes the micro-architectural switching activity of one
// executed instruction — the quantities the power model leaks.
type Activity struct {
	Class    Class
	RdAddr   uint8 // destination register address driven on the register file
	RrAddr   uint8 // source register address
	OldValue uint8 // destination value before execution
	NewValue uint8 // destination value after execution (result bus)
	Operand  uint8 // second ALU operand (Rr value or immediate)
	MemAddr  uint16
	MemRead  bool
	MemWrite bool
	Branch   bool // branch/skip class
	Taken    bool // branch taken or skip triggered
	Skip     int  // words skipped by CPSE/SBRC/…
	Cycles   int
}

// HammingWeight8 is the number of set bits in v.
func HammingWeight8(v uint8) int { return bits.OnesCount8(v) }

// HammingDistance8 is the number of differing bits between a and b — the
// canonical CMOS switching-power proxy.
func HammingDistance8(a, b uint8) int { return bits.OnesCount8(a ^ b) }

func (m *Machine) flag(f uint) bool { return m.SREG&(1<<f) != 0 }
func (m *Machine) setFlag(f uint, v bool) {
	if v {
		m.SREG |= 1 << f
	} else {
		m.SREG &^= 1 << f
	}
}

func (m *Machine) ptr(lo uint8) uint16 {
	return uint16(m.R[lo]) | uint16(m.R[lo+1])<<8
}

func (m *Machine) setPtr(lo uint8, v uint16) {
	m.R[lo] = uint8(v)
	m.R[lo+1] = uint8(v >> 8)
}

func (m *Machine) sramRead(addr uint16) uint8 {
	if len(m.SRAM) == 0 {
		return 0
	}
	return m.SRAM[int(addr)%len(m.SRAM)]
}

func (m *Machine) sramWrite(addr uint16, v uint8) {
	if len(m.SRAM) == 0 {
		return
	}
	m.SRAM[int(addr)%len(m.SRAM)] = v
}

func (m *Machine) flashByte(byteAddr uint16) uint8 {
	if len(m.Flash) == 0 {
		return 0
	}
	w := m.Flash[int(byteAddr/2)%len(m.Flash)]
	if byteAddr%2 == 1 {
		return uint8(w >> 8)
	}
	return uint8(w)
}

// arithmetic flag helpers ----------------------------------------------------

func (m *Machine) setZNS(r uint8) {
	m.setFlag(FlagZ, r == 0)
	m.setFlag(FlagN, r&0x80 != 0)
	m.setFlag(FlagS, m.flag(FlagN) != m.flag(FlagV))
}

func (m *Machine) addFlags(rd, rr, r uint8) {
	m.setFlag(FlagH, (rd&rr|rr&^r|^r&rd)&0x08 != 0)
	m.setFlag(FlagV, (rd&rr&^r|^rd&^rr&r)&0x80 != 0)
	m.setFlag(FlagC, (rd&rr|rr&^r|^r&rd)&0x80 != 0)
	m.setZNS(r)
}

func (m *Machine) subFlags(rd, rr, r uint8, keepZ bool) {
	m.setFlag(FlagH, (^rd&rr|rr&r|r&^rd)&0x08 != 0)
	m.setFlag(FlagV, (rd&^rr&^r|^rd&rr&r)&0x80 != 0)
	m.setFlag(FlagC, (^rd&rr|rr&r|r&^rd)&0x80 != 0)
	z := r == 0
	if keepZ {
		z = z && m.flag(FlagZ) // SBC/CPC: Z only stays set if it was set
	}
	m.setFlag(FlagN, r&0x80 != 0)
	m.setFlag(FlagZ, z)
	m.setFlag(FlagS, m.flag(FlagN) != m.flag(FlagV))
}

func (m *Machine) logicFlags(r uint8) {
	m.setFlag(FlagV, false)
	m.setZNS(r)
}

// Exec executes a single instruction against the machine state, without
// consulting PC/flash (branches report Taken but do not move PC). It returns
// the activity record the power model consumes. Use Step for full
// PC-sequenced execution.
func (m *Machine) Exec(in Instruction) (Activity, error) {
	if err := in.Validate(); err != nil {
		return Activity{}, err
	}
	act := Activity{
		Class:  in.Class,
		RdAddr: in.Rd,
		RrAddr: in.Rr,
		Cycles: specs[in.Class].Cycles,
	}
	setRd := func(old, val uint8) {
		act.OldValue = old
		act.NewValue = val
	}

	switch in.Class {
	case OpADD, OpLSL:
		rd, rr := m.R[in.Rd], m.R[in.rrOrSelf()]
		r := rd + rr
		m.addFlags(rd, rr, r)
		m.R[in.Rd] = r
		setRd(rd, r)
		act.Operand = rr
	case OpADC, OpROL:
		rd, rr := m.R[in.Rd], m.R[in.rrOrSelf()]
		c := uint8(0)
		if m.flag(FlagC) {
			c = 1
		}
		r := rd + rr + c
		m.addFlags(rd, rr, r)
		m.R[in.Rd] = r
		setRd(rd, r)
		act.Operand = rr
	case OpSUB:
		rd, rr := m.R[in.Rd], m.R[in.Rr]
		r := rd - rr
		m.subFlags(rd, rr, r, false)
		m.R[in.Rd] = r
		setRd(rd, r)
		act.Operand = rr
	case OpSBC:
		rd, rr := m.R[in.Rd], m.R[in.Rr]
		c := uint8(0)
		if m.flag(FlagC) {
			c = 1
		}
		r := rd - rr - c
		m.subFlags(rd, rr, r, true)
		m.R[in.Rd] = r
		setRd(rd, r)
		act.Operand = rr
	case OpAND, OpTST:
		rd, rr := m.R[in.Rd], m.R[in.rrOrSelf()]
		r := rd & rr
		m.logicFlags(r)
		if in.Class == OpAND {
			m.R[in.Rd] = r
		}
		setRd(rd, r)
		act.Operand = rr
	case OpOR:
		rd, rr := m.R[in.Rd], m.R[in.Rr]
		r := rd | rr
		m.logicFlags(r)
		m.R[in.Rd] = r
		setRd(rd, r)
		act.Operand = rr
	case OpEOR, OpCLR:
		rd, rr := m.R[in.Rd], m.R[in.rrOrSelf()]
		r := rd ^ rr
		m.logicFlags(r)
		m.R[in.Rd] = r
		setRd(rd, r)
		act.Operand = rr
	case OpCP:
		rd, rr := m.R[in.Rd], m.R[in.Rr]
		m.subFlags(rd, rr, rd-rr, false)
		setRd(rd, rd)
		act.Operand = rr
	case OpCPC:
		rd, rr := m.R[in.Rd], m.R[in.Rr]
		c := uint8(0)
		if m.flag(FlagC) {
			c = 1
		}
		m.subFlags(rd, rr, rd-rr-c, true)
		setRd(rd, rd)
		act.Operand = rr
	case OpCPSE:
		rd, rr := m.R[in.Rd], m.R[in.Rr]
		act.Branch = true
		act.Taken = rd == rr
		if act.Taken {
			act.Skip = 1
		}
		setRd(rd, rd)
		act.Operand = rr
	case OpMOV:
		rd, rr := m.R[in.Rd], m.R[in.Rr]
		m.R[in.Rd] = rr
		setRd(rd, rr)
		act.Operand = rr
	case OpMOVW:
		rd := m.R[in.Rd]
		m.R[in.Rd] = m.R[in.Rr]
		m.R[in.Rd+1] = m.R[in.Rr+1]
		setRd(rd, m.R[in.Rd])
		act.Operand = m.R[in.Rr]

	case OpSUBI, OpSBCI, OpANDI, OpORI, OpSBR, OpCBR, OpCPI, OpLDI:
		m.execImmediate(in, &act)
	case OpADIW, OpSBIW:
		m.execWordImm(in, &act)

	case OpCOM:
		rd := m.R[in.Rd]
		r := ^rd
		m.setFlag(FlagC, true)
		m.setFlag(FlagV, false)
		m.setZNS(r)
		m.R[in.Rd] = r
		setRd(rd, r)
	case OpNEG:
		rd := m.R[in.Rd]
		r := -rd
		m.setFlag(FlagH, (r|rd)&0x08 != 0)
		m.setFlag(FlagV, r == 0x80)
		m.setFlag(FlagC, r != 0)
		m.setZNS(r)
		m.R[in.Rd] = r
		setRd(rd, r)
	case OpINC:
		rd := m.R[in.Rd]
		r := rd + 1
		m.setFlag(FlagV, rd == 0x7F)
		m.setZNS(r)
		m.R[in.Rd] = r
		setRd(rd, r)
	case OpDEC:
		rd := m.R[in.Rd]
		r := rd - 1
		m.setFlag(FlagV, rd == 0x80)
		m.setZNS(r)
		m.R[in.Rd] = r
		setRd(rd, r)
	case OpSER:
		rd := m.R[in.Rd]
		m.R[in.Rd] = 0xFF
		setRd(rd, 0xFF)
	case OpLSR:
		rd := m.R[in.Rd]
		r := rd >> 1
		m.setFlag(FlagC, rd&1 != 0)
		m.setFlag(FlagN, false)
		m.setFlag(FlagZ, r == 0)
		m.setFlag(FlagV, m.flag(FlagN) != m.flag(FlagC))
		m.setFlag(FlagS, m.flag(FlagN) != m.flag(FlagV))
		m.R[in.Rd] = r
		setRd(rd, r)
	case OpROR:
		rd := m.R[in.Rd]
		r := rd >> 1
		if m.flag(FlagC) {
			r |= 0x80
		}
		m.setFlag(FlagC, rd&1 != 0)
		m.setFlag(FlagN, r&0x80 != 0)
		m.setFlag(FlagZ, r == 0)
		m.setFlag(FlagV, m.flag(FlagN) != m.flag(FlagC))
		m.setFlag(FlagS, m.flag(FlagN) != m.flag(FlagV))
		m.R[in.Rd] = r
		setRd(rd, r)
	case OpASR:
		rd := m.R[in.Rd]
		r := rd>>1 | rd&0x80
		m.setFlag(FlagC, rd&1 != 0)
		m.setFlag(FlagN, r&0x80 != 0)
		m.setFlag(FlagZ, r == 0)
		m.setFlag(FlagV, m.flag(FlagN) != m.flag(FlagC))
		m.setFlag(FlagS, m.flag(FlagN) != m.flag(FlagV))
		m.R[in.Rd] = r
		setRd(rd, r)
	case OpSWAP:
		rd := m.R[in.Rd]
		r := rd<<4 | rd>>4
		m.R[in.Rd] = r
		setRd(rd, r)

	case OpRJMP, OpJMP:
		act.Branch = true
		act.Taken = true
	case OpBREQ, OpBRNE, OpBRCS, OpBRCC, OpBRSH, OpBRLO, OpBRMI, OpBRPL,
		OpBRGE, OpBRLT, OpBRHS, OpBRHC, OpBRTS, OpBRTC, OpBRVS, OpBRVC,
		OpBRIE, OpBRID:
		set := isSetBranch(in.Class)
		act.Branch = true
		act.Taken = m.flag(uint(branchSBit(in.Class))) == set
	case OpBRBS:
		act.Branch = true
		act.Taken = m.flag(uint(in.S))
	case OpBRBC:
		act.Branch = true
		act.Taken = !m.flag(uint(in.S))

	case OpLDS, OpLDX, OpLDXInc, OpLDXDec, OpLDY, OpLDYInc, OpLDYDec,
		OpLDZ, OpLDZInc, OpLDZDec, OpLDDY, OpLDDZ:
		m.execLoad(in, &act)
	case OpSTS, OpSTX, OpSTXInc, OpSTXDec, OpSTY, OpSTYInc, OpSTYDec,
		OpSTZ, OpSTZInc, OpSTZDec, OpSTDY, OpSTDZ:
		m.execStore(in, &act)

	case OpSEC, OpSEZ, OpSEN, OpSEV, OpSES, OpSEH, OpSET, OpSEI:
		m.setFlag(uint(flagSBit(in.Class)), true)
	case OpCLC, OpCLZ, OpCLN, OpCLV, OpCLS, OpCLH, OpCLT:
		m.setFlag(uint(flagSBit(in.Class)), false)
	case OpBSET:
		m.setFlag(uint(in.S), true)
	case OpBCLR:
		m.setFlag(uint(in.S), false)

	case OpSBRC:
		act.Branch = true
		act.Taken = m.R[in.Rr]&(1<<in.B) == 0
		if act.Taken {
			act.Skip = 1
		}
		act.Operand = m.R[in.Rr]
	case OpSBRS:
		act.Branch = true
		act.Taken = m.R[in.Rr]&(1<<in.B) != 0
		if act.Taken {
			act.Skip = 1
		}
		act.Operand = m.R[in.Rr]
	case OpSBIC:
		act.Branch = true
		act.Taken = m.IO[in.Addr&0x3F]&(1<<in.B) == 0
		if act.Taken {
			act.Skip = 1
		}
	case OpSBIS:
		act.Branch = true
		act.Taken = m.IO[in.Addr&0x3F]&(1<<in.B) != 0
		if act.Taken {
			act.Skip = 1
		}
	case OpSBI:
		old := m.IO[in.Addr&0x3F]
		m.IO[in.Addr&0x3F] = old | 1<<in.B
		setRd(old, m.IO[in.Addr&0x3F])
		act.MemAddr = in.Addr
		act.MemWrite = true
	case OpCBI:
		old := m.IO[in.Addr&0x3F]
		m.IO[in.Addr&0x3F] = old &^ (1 << in.B)
		setRd(old, m.IO[in.Addr&0x3F])
		act.MemAddr = in.Addr
		act.MemWrite = true
	case OpBST:
		m.setFlag(FlagT, m.R[in.Rd]&(1<<in.B) != 0)
		setRd(m.R[in.Rd], m.R[in.Rd])
	case OpBLD:
		rd := m.R[in.Rd]
		r := rd &^ (1 << in.B)
		if m.flag(FlagT) {
			r |= 1 << in.B
		}
		m.R[in.Rd] = r
		setRd(rd, r)

	case OpLPM0, OpLPM, OpLPMInc, OpELPM0, OpELPM, OpELPMInc:
		m.execLPM(in, &act)

	case OpNOP:
		// no state change
	default:
		return act, fmt.Errorf("avr: Exec: unhandled class %v", in.Class)
	}
	return act, nil
}

// rrOrSelf returns the source register for classes where alias forms operate
// on Rd twice (TST/CLR/LSL/ROL).
func (in Instruction) rrOrSelf() uint8 {
	switch in.Class {
	case OpTST, OpCLR, OpLSL, OpROL:
		return in.Rd
	default:
		return in.Rr
	}
}

func isSetBranch(c Class) bool {
	switch c {
	case OpBREQ, OpBRCS, OpBRLO, OpBRMI, OpBRLT, OpBRHS, OpBRTS, OpBRVS, OpBRIE:
		return true
	}
	return false
}

func (m *Machine) execImmediate(in Instruction, act *Activity) {
	rd := m.R[in.Rd]
	k := in.K
	act.Operand = k
	var r uint8
	switch in.Class {
	case OpSUBI:
		r = rd - k
		m.subFlags(rd, k, r, false)
		m.R[in.Rd] = r
	case OpSBCI:
		c := uint8(0)
		if m.flag(FlagC) {
			c = 1
		}
		r = rd - k - c
		m.subFlags(rd, k, r, true)
		m.R[in.Rd] = r
	case OpANDI:
		r = rd & k
		m.logicFlags(r)
		m.R[in.Rd] = r
	case OpORI, OpSBR:
		r = rd | k
		m.logicFlags(r)
		m.R[in.Rd] = r
	case OpCBR:
		r = rd &^ k
		m.logicFlags(r)
		m.R[in.Rd] = r
	case OpCPI:
		r = rd - k
		m.subFlags(rd, k, r, false)
		r = rd // register unchanged
	case OpLDI:
		r = k
		m.R[in.Rd] = r
	}
	act.OldValue = rd
	act.NewValue = r
}

func (m *Machine) execWordImm(in Instruction, act *Activity) {
	lo := in.Rd
	old16 := uint16(m.R[lo]) | uint16(m.R[lo+1])<<8
	var r16 uint16
	if in.Class == OpADIW {
		r16 = old16 + uint16(in.K)
		m.setFlag(FlagV, old16&0x8000 == 0 && r16&0x8000 != 0)
		m.setFlag(FlagC, r16 < old16)
	} else {
		r16 = old16 - uint16(in.K)
		m.setFlag(FlagV, old16&0x8000 != 0 && r16&0x8000 == 0)
		m.setFlag(FlagC, r16 > old16)
	}
	m.setFlag(FlagN, r16&0x8000 != 0)
	m.setFlag(FlagZ, r16 == 0)
	m.setFlag(FlagS, m.flag(FlagN) != m.flag(FlagV))
	m.R[lo] = uint8(r16)
	m.R[lo+1] = uint8(r16 >> 8)
	act.OldValue = uint8(old16)
	act.NewValue = uint8(r16)
	act.Operand = in.K
}

func (m *Machine) execLoad(in Instruction, act *Activity) {
	var addr uint16
	switch in.Class {
	case OpLDS:
		addr = in.Addr
	case OpLDX:
		addr = m.ptr(RegXL)
	case OpLDXInc:
		addr = m.ptr(RegXL)
		m.setPtr(RegXL, addr+1)
	case OpLDXDec:
		addr = m.ptr(RegXL) - 1
		m.setPtr(RegXL, addr)
	case OpLDY:
		addr = m.ptr(RegYL)
	case OpLDYInc:
		addr = m.ptr(RegYL)
		m.setPtr(RegYL, addr+1)
	case OpLDYDec:
		addr = m.ptr(RegYL) - 1
		m.setPtr(RegYL, addr)
	case OpLDZ:
		addr = m.ptr(RegZL)
	case OpLDZInc:
		addr = m.ptr(RegZL)
		m.setPtr(RegZL, addr+1)
	case OpLDZDec:
		addr = m.ptr(RegZL) - 1
		m.setPtr(RegZL, addr)
	case OpLDDY:
		addr = m.ptr(RegYL) + uint16(in.Q)
	case OpLDDZ:
		addr = m.ptr(RegZL) + uint16(in.Q)
	}
	old := m.R[in.Rd]
	v := m.sramRead(addr)
	m.R[in.Rd] = v
	act.OldValue = old
	act.NewValue = v
	act.MemAddr = addr
	act.MemRead = true
}

func (m *Machine) execStore(in Instruction, act *Activity) {
	var addr uint16
	switch in.Class {
	case OpSTS:
		addr = in.Addr
	case OpSTX:
		addr = m.ptr(RegXL)
	case OpSTXInc:
		addr = m.ptr(RegXL)
		m.setPtr(RegXL, addr+1)
	case OpSTXDec:
		addr = m.ptr(RegXL) - 1
		m.setPtr(RegXL, addr)
	case OpSTY:
		addr = m.ptr(RegYL)
	case OpSTYInc:
		addr = m.ptr(RegYL)
		m.setPtr(RegYL, addr+1)
	case OpSTYDec:
		addr = m.ptr(RegYL) - 1
		m.setPtr(RegYL, addr)
	case OpSTZ:
		addr = m.ptr(RegZL)
	case OpSTZInc:
		addr = m.ptr(RegZL)
		m.setPtr(RegZL, addr+1)
	case OpSTZDec:
		addr = m.ptr(RegZL) - 1
		m.setPtr(RegZL, addr)
	case OpSTDY:
		addr = m.ptr(RegYL) + uint16(in.Q)
	case OpSTDZ:
		addr = m.ptr(RegZL) + uint16(in.Q)
	}
	v := m.R[in.Rr]
	old := m.sramRead(addr)
	m.sramWrite(addr, v)
	act.OldValue = old
	act.NewValue = v
	act.Operand = v
	act.MemAddr = addr
	act.MemWrite = true
	act.RdAddr = in.Rr
}

func (m *Machine) execLPM(in Instruction, act *Activity) {
	z := m.ptr(RegZL)
	dst := in.Rd
	if in.Class == OpLPM0 || in.Class == OpELPM0 {
		dst = 0
	}
	old := m.R[dst]
	v := m.flashByte(z)
	m.R[dst] = v
	if in.Class == OpLPMInc || in.Class == OpELPMInc {
		m.setPtr(RegZL, z+1)
	}
	act.OldValue = old
	act.NewValue = v
	act.MemAddr = z
	act.MemRead = true
	act.RdAddr = dst
}
