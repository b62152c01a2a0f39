package power

import "math"

// Device models one physical chip. Device 0 is the golden training device
// (unit gain, zero offset, no mismatch); higher IDs get deterministic
// process-variation parameters so experiments are reproducible.
type Device struct {
	ID     int
	gain   float64
	offset float64
	mmStd  float64
}

// NewDevice derives a device environment from cfg and a device ID.
func NewDevice(cfg Config, id int) *Device {
	d := &Device{ID: id, gain: 1}
	if id == 0 {
		return d
	}
	key := uint64(id) * 0x9E3779B97F4A7C15
	d.gain = 1 + cfg.DeviceGainStd*hashNorm(key^0x1111)
	d.offset = cfg.DeviceOffsetStd * hashNorm(key^0x2222)
	d.mmStd = cfg.DeviceMismatchStd
	return d
}

// mismatch returns the device-specific multiplicative perturbation of one
// signature component. The golden device returns exactly 1.
func (d *Device) mismatch(classKey, component uint64) float64 {
	if d.mmStd == 0 {
		return 1
	}
	key := classKey ^ component*0xA24BAED4963EE407 ^ uint64(d.ID)*0x9FB21C651E98DF25
	v := 1 + d.mmStd*hashNorm(key)
	return math.Max(0.5, v)
}

// driftComponent is one sinusoidal term of a program's low-frequency
// disturbance.
type driftComponent struct {
	amp, freq, phase float64
}

// ProgramEnv models the measurement environment of one uploaded program
// file: the paper observes that traces of the same instruction taken from
// different programs share a shape but differ in DC offset (plus gain and
// drift effects) — the covariate shift problem. The drift is a fixed
// low-frequency disturbance (sub-harmonics ½–3 of the clock) whose energy
// overlaps the largest CWT scales, so low-frequency feature points become
// program-dependent while high-frequency points stay invariant — exactly
// the structure covariate shift adaptation exploits.
type ProgramEnv struct {
	ID     int
	gain   float64
	offset float64
	drift  []driftComponent
}

// programDriftHarmonics are the clock sub-harmonics the disturbance lives on.
var programDriftHarmonics = []float64{0.5, 1, 1.5, 2, 2.5, 3}

// NewProgramEnv derives a program environment deterministically from cfg, a
// campaign seed and a program ID. Program environments are independent of
// the device (re-uploading the same file to a new chip gives a new
// environment, so callers mix seeds when they need that).
func NewProgramEnv(cfg Config, seed uint64, id int) *ProgramEnv {
	return NewFieldProgramEnv(cfg, seed, id, 1)
}

// NewFieldProgramEnv derives a program environment whose deviation from the
// golden lab setup is scaled by severity. severity = 1 models another
// profiling upload on the bench; severity > 1 models the paper's practical
// scenario — a *real* program measured in the field, whose baseline power,
// probe placement and compilation layout differ far more from the profiling
// templates than the templates differ from each other. Covariate shift
// adaptation is evaluated against such environments.
func NewFieldProgramEnv(cfg Config, seed uint64, id int, severity float64) *ProgramEnv {
	key := seed*0xD6E8FEB86659FD93 + uint64(id+1)*0xCA5A826395121157
	p := &ProgramEnv{
		ID:     id,
		gain:   1 + severity*cfg.ProgramGainStd*hashNorm(key^0xAAAA),
		offset: severity * cfg.ProgramOffsetStd * hashNorm(key^0xBBBB),
	}
	spc := cfg.SamplesPerCycle()
	for i, h := range programDriftHarmonics {
		k := key ^ (uint64(i+1) * 0x9E3779B97F4A7C15)
		p.drift = append(p.drift, driftComponent{
			amp:   severity * cfg.ProgramDriftStd * hashNorm(k^0x1) / (1 + h), // redder at low freq
			freq:  h / spc,
			phase: 2 * math.Pi * hashUnit(k^0x2),
		})
	}
	return p
}

// Disturbance evaluates the program's additive low-frequency disturbance at
// sample t.
func (p *ProgramEnv) Disturbance(t int) float64 {
	v := p.offset
	for _, d := range p.drift {
		v += d.amp * math.Sin(2*math.Pi*d.freq*float64(t)+d.phase)
	}
	return v
}
