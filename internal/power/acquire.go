package power

import (
	"fmt"
	"math/rand"

	"repro/internal/avr"
)

// Dataset is a labeled collection of preprocessed traces (reference
// subtracted), together with the program file and device each trace came
// from — the metadata covariate-shift experiments split on.
type Dataset struct {
	Traces   [][]float64
	Labels   []int // index into ClassNames
	Programs []int // program file ID per trace
	DeviceID int

	ClassNames []string // human-readable label names
}

// Len returns the number of traces.
func (d *Dataset) Len() int { return len(d.Traces) }

// Append adds one trace.
func (d *Dataset) Append(trace []float64, label, program int) {
	d.Traces = append(d.Traces, trace)
	d.Labels = append(d.Labels, label)
	d.Programs = append(d.Programs, program)
}

// SplitRandom shuffles and splits the dataset into train/test with the given
// training fraction, preserving per-trace metadata. This is the paper's
// initial (non-practical) scenario where train and test share program files.
func (d *Dataset) SplitRandom(rng *rand.Rand, trainFrac float64) (train, test *Dataset) {
	idx := rng.Perm(d.Len())
	nTrain := int(trainFrac * float64(d.Len()))
	train = &Dataset{ClassNames: d.ClassNames, DeviceID: d.DeviceID}
	test = &Dataset{ClassNames: d.ClassNames, DeviceID: d.DeviceID}
	for i, j := range idx {
		if i < nTrain {
			train.Append(d.Traces[j], d.Labels[j], d.Programs[j])
		} else {
			test.Append(d.Traces[j], d.Labels[j], d.Programs[j])
		}
	}
	return train, test
}

// Campaign drives simulated acquisition runs against one device.
type Campaign struct {
	Model  *Model
	Device *Device
	Seed   uint64
	// EnvSeverity scales how far the campaign's program environments stray
	// from the golden lab setup (see NewFieldProgramEnv). Zero means 1.
	EnvSeverity float64
}

// severity returns the effective environment severity.
func (c *Campaign) severity() float64 {
	if c.EnvSeverity <= 0 {
		return 1
	}
	return c.EnvSeverity
}

// NewCampaign builds a campaign for the given configuration and device ID.
func NewCampaign(cfg Config, deviceID int, seed uint64) (*Campaign, error) {
	m, err := NewModel(cfg)
	if err != nil {
		return nil, err
	}
	return &Campaign{Model: m, Device: NewDevice(cfg, deviceID), Seed: seed}, nil
}

// randomizedMachine returns a machine with random register, SRAM and flag
// state so data-value leakage varies trace to trace.
func randomizedMachine(rng *rand.Rand) *avr.Machine {
	m := avr.NewMachine([]uint16{0x1234, 0xABCD, 0x5A5A, 0x0F0F})
	for i := range m.R {
		m.R[i] = uint8(rng.Intn(256))
	}
	for i := 0; i < 256; i++ {
		m.SRAM[rng.Intn(len(m.SRAM))] = uint8(rng.Intn(256))
	}
	m.SREG = uint8(rng.Intn(256))
	return m
}

// acquireSegment measures one segment: synthesized trace minus the
// reference trace captured in the same environment.
func (c *Campaign) acquireSegment(rng *rand.Rand, seg avr.Segment, prog *ProgramEnv) ([]float64, error) {
	tc := TraceContext{Segment: seg, Device: c.Device, Program: prog}
	mach := randomizedMachine(rng)
	raw, err := c.Model.Synthesize(rng, mach, tc)
	if err != nil {
		return nil, err
	}
	ref, err := c.Model.SynthesizeReference(rng, tc)
	if err != nil {
		return nil, err
	}
	for i := range raw {
		raw[i] -= ref[i]
	}
	return raw, nil
}

// CollectClasses acquires tracesPerProgram traces for each class from each
// of numPrograms program files. Labels are indices into classes. Each
// (class, program) pair gets its own program environment, exactly as each
// uploaded .ino file does on the bench.
func (c *Campaign) CollectClasses(classes []avr.Class, numPrograms, tracesPerProgram int) (*Dataset, error) {
	if len(classes) == 0 || numPrograms <= 0 || tracesPerProgram <= 0 {
		return nil, fmt.Errorf("power: CollectClasses needs classes/programs/traces > 0")
	}
	ds := &Dataset{DeviceID: c.Device.ID}
	for _, cl := range classes {
		ds.ClassNames = append(ds.ClassNames, cl.String())
	}
	rng := rand.New(rand.NewSource(int64(c.Seed ^ 0x5ca1ab1e)))
	for li, cl := range classes {
		for p := 0; p < numPrograms; p++ {
			prog := NewFieldProgramEnv(c.Model.Config(), c.Seed+uint64(li)*1000003, p, c.severity())
			pf := avr.NewProgramFile(rng, p, cl, tracesPerProgram)
			for _, seg := range pf.Segments {
				tr, err := c.acquireSegment(rng, seg, prog)
				if err != nil {
					return nil, err
				}
				ds.Append(tr, li, p)
			}
		}
	}
	return ds, nil
}

// CollectGroups acquires traces labeled by instruction group (0..7): for
// each group, targets are drawn uniformly from the group's classes.
func (c *Campaign) CollectGroups(numPrograms, tracesPerProgram int) (*Dataset, error) {
	if numPrograms <= 0 || tracesPerProgram <= 0 {
		return nil, fmt.Errorf("power: CollectGroups needs programs/traces > 0")
	}
	ds := &Dataset{DeviceID: c.Device.ID}
	for g := avr.Group1; g <= avr.Group8; g++ {
		ds.ClassNames = append(ds.ClassNames, g.String())
	}
	rng := rand.New(rand.NewSource(int64(c.Seed ^ 0x0ddba11)))
	for g := avr.Group1; g <= avr.Group8; g++ {
		members := avr.ClassesInGroup(g)
		for p := 0; p < numPrograms; p++ {
			prog := NewFieldProgramEnv(c.Model.Config(), c.Seed+uint64(g)*7777777, p, c.severity())
			for i := 0; i < tracesPerProgram; i++ {
				cl := members[rng.Intn(len(members))]
				seg := avr.NewSegment(rng, avr.RandomOperands(rng, cl))
				tr, err := c.acquireSegment(rng, seg, prog)
				if err != nil {
					return nil, err
				}
				ds.Append(tr, int(g-avr.Group1), p)
			}
		}
	}
	return ds, nil
}

// CollectRegisters acquires traces labeled by register address 0..31. If
// fixDst is true the destination register Rd is fixed per label (the paper's
// Rd0–Rd31 profiling); otherwise the source register Rr is fixed. Opcode and
// the free register are randomized over group 1.
func (c *Campaign) CollectRegisters(fixDst bool, numPrograms, tracesPerProgram int) (*Dataset, error) {
	if numPrograms <= 0 || tracesPerProgram <= 0 {
		return nil, fmt.Errorf("power: CollectRegisters needs programs/traces > 0")
	}
	ds := &Dataset{DeviceID: c.Device.ID}
	for r := 0; r < 32; r++ {
		if fixDst {
			ds.ClassNames = append(ds.ClassNames, fmt.Sprintf("Rd%d", r))
		} else {
			ds.ClassNames = append(ds.ClassNames, fmt.Sprintf("Rr%d", r))
		}
	}
	rng := rand.New(rand.NewSource(int64(c.Seed ^ 0xcafef00d)))
	for r := 0; r < 32; r++ {
		for p := 0; p < numPrograms; p++ {
			prog := NewFieldProgramEnv(c.Model.Config(), c.Seed+uint64(r)*333667, p, c.severity())
			pf := avr.NewRegisterProgramFile(rng, p, uint8(r), fixDst, tracesPerProgram)
			for _, seg := range pf.Segments {
				tr, err := c.acquireSegment(rng, seg, prog)
				if err != nil {
					return nil, err
				}
				ds.Append(tr, r, p)
			}
		}
	}
	return ds, nil
}

// AcquireSegments measures an arbitrary instruction stream, one trace per
// instruction, under a single program environment — the disassembly-time
// path, where the class labels are unknown. Targets may include control
// flow; neighbors are taken from the stream itself.
func (c *Campaign) AcquireSegments(rng *rand.Rand, prog *ProgramEnv, stream []avr.Instruction) ([][]float64, error) {
	traces := make([][]float64, 0, len(stream))
	nop := avr.Instruction{Class: avr.OpNOP}
	for i, target := range stream {
		prev, next := nop, nop
		if i > 0 {
			prev = stream[i-1]
		}
		if i+1 < len(stream) {
			next = stream[i+1]
		}
		seg := avr.Segment{Target: target, Prev: prev, Next: next}
		tr, err := c.acquireSegment(rng, seg, prog)
		if err != nil {
			return nil, err
		}
		traces = append(traces, tr)
	}
	return traces, nil
}

// AcquireTemplated measures each target instruction inside a fresh segment
// template with randomized neighbor instructions — the profiling-style
// context (Fig. 4). Use this for accuracy evaluation against templates; use
// AcquireSegments when disassembling a concrete program, where the true
// neighbors apply.
func (c *Campaign) AcquireTemplated(rng *rand.Rand, prog *ProgramEnv, targets []avr.Instruction) ([][]float64, error) {
	traces := make([][]float64, 0, len(targets))
	for _, target := range targets {
		seg := avr.NewSegment(rng, target)
		tr, err := c.acquireSegment(rng, seg, prog)
		if err != nil {
			return nil, err
		}
		traces = append(traces, tr)
	}
	return traces, nil
}
