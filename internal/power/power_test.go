package power

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/avr"
	"repro/internal/stats"
	"repro/internal/testkit"
)

func testConfig() Config {
	cfg := DefaultConfig()
	return cfg
}

func TestDefaultConfigMatchesPaperSetup(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.SampleRateHz != 2.5e9 || cfg.ClockHz != 16e6 {
		t.Fatalf("rates %g/%g, want 2.5 GS/s and 16 MHz", cfg.SampleRateHz, cfg.ClockHz)
	}
	if cfg.TraceLen != 315 {
		t.Fatalf("trace length %d, want 315", cfg.TraceLen)
	}
	testkit.InDelta(t, cfg.SamplesPerCycle(), 156.25, 1e-9, "samples per cycle")
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{SampleRateHz: 1e9, ClockHz: 16e6, TraceLen: 4},
		{SampleRateHz: 32e6, ClockHz: 16e6, TraceLen: 315}, // 2 samples/cycle
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %+v should fail validation", cfg)
		}
		if _, err := NewModel(cfg); err == nil {
			t.Fatalf("NewModel(%+v) should fail", cfg)
		}
	}
}

func synthOne(t *testing.T, seed int64, target avr.Instruction, dev *Device, prog *ProgramEnv) []float64 {
	t.Helper()
	model, err := NewModel(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	mach := randomizedMachine(rng)
	seg := avr.Segment{
		Target: target,
		Prev:   avr.Instruction{Class: avr.OpNOP},
		Next:   avr.Instruction{Class: avr.OpNOP},
	}
	tr, err := model.Synthesize(rng, mach, TraceContext{Segment: seg, Device: dev, Program: prog})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSynthesizeShapeAndDeterminism(t *testing.T) {
	cfg := testConfig()
	dev := NewDevice(cfg, 0)
	prog := NeutralProgramEnv(0)
	target := avr.Instruction{Class: avr.OpADD, Rd: 1, Rr: 2}
	a := synthOne(t, 7, target, dev, prog)
	b := synthOne(t, 7, target, dev, prog)
	if len(a) != cfg.TraceLen {
		t.Fatalf("trace length %d, want %d", len(a), cfg.TraceLen)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must produce identical traces")
		}
	}
	c := synthOne(t, 8, target, dev, prog)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds must differ (noise)")
	}
}

func TestDifferentGroupsDifferMoreThanSameGroup(t *testing.T) {
	// The mean trace of ADD vs AND (same group) should be closer than
	// ADD vs SEC (different group): group signatures dominate.
	cfg := testConfig()
	cfg.NoiseStd = 0.01
	model, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := NewDevice(cfg, 0)
	prog := NeutralProgramEnv(0)
	mean := func(target avr.Instruction) []float64 {
		rng := rand.New(rand.NewSource(11))
		acc := make([]float64, cfg.TraceLen)
		const n = 40
		for i := 0; i < n; i++ {
			mach := randomizedMachine(rng)
			seg := avr.Segment{Target: target, Prev: avr.Instruction{Class: avr.OpNOP}, Next: avr.Instruction{Class: avr.OpNOP}}
			tr, err := model.Synthesize(rng, mach, TraceContext{Segment: seg, Device: dev, Program: prog})
			if err != nil {
				t.Fatal(err)
			}
			for j := range acc {
				acc[j] += tr[j] / n
			}
		}
		return acc
	}
	dist := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		return math.Sqrt(s)
	}
	mAdd := mean(avr.Instruction{Class: avr.OpADD, Rd: 3, Rr: 4})
	mAnd := mean(avr.Instruction{Class: avr.OpAND, Rd: 3, Rr: 4})
	mSec := mean(avr.Instruction{Class: avr.OpSEC})
	within := dist(mAdd, mAnd)
	between := dist(mAdd, mSec)
	if between <= within {
		t.Fatalf("cross-group distance (%g) should exceed within-group (%g)", between, within)
	}
	if within == 0 {
		t.Fatal("same-group instructions must still differ")
	}
}

func TestRegisterAddressChangesTrace(t *testing.T) {
	cfg := testConfig()
	cfg.NoiseStd = 0
	model, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := NewDevice(cfg, 0)
	prog := NeutralProgramEnv(0)
	trace := func(rd, rr uint8) []float64 {
		rng := rand.New(rand.NewSource(3))
		mach := avr.NewMachine(nil) // fixed state: isolate the address effect
		seg := avr.Segment{
			Target: avr.Instruction{Class: avr.OpADD, Rd: rd, Rr: rr},
			Prev:   avr.Instruction{Class: avr.OpNOP},
			Next:   avr.Instruction{Class: avr.OpNOP},
		}
		tr, err := model.Synthesize(rng, mach, TraceContext{Segment: seg, Device: dev, Program: prog})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a := trace(0, 0)
	b := trace(31, 0)
	var diff float64
	for i := range a {
		diff += math.Abs(a[i] - b[i])
	}
	if diff < 1 {
		t.Fatalf("Rd=0 vs Rd=31 traces nearly identical (Σ|Δ|=%g); register leakage missing", diff)
	}
}

func TestProgramShiftMovesTrace(t *testing.T) {
	cfg := testConfig()
	dev := NewDevice(cfg, 0)
	target := avr.Instruction{Class: avr.OpAND, Rd: 1, Rr: 2}
	p0 := NewProgramEnv(cfg, 1, 0)
	p1 := NewProgramEnv(cfg, 1, 1)
	a := synthOne(t, 5, target, dev, p0)
	b := synthOne(t, 5, target, dev, p1)
	ma := stats.Mean(a)
	mb := stats.Mean(b)
	if math.Abs(ma-mb) < 1e-6 {
		t.Fatalf("program environments should shift the trace mean: %g vs %g", ma, mb)
	}
}

func TestDeviceZeroIsGolden(t *testing.T) {
	cfg := testConfig()
	d0 := NewDevice(cfg, 0)
	if d0.gain != 1 || d0.offset != 0 {
		t.Fatalf("device 0 must be neutral: gain=%g offset=%g", d0.gain, d0.offset)
	}
	if d0.mismatch(123, 4) != 1 {
		t.Fatal("device 0 must have no mismatch")
	}
	d1 := NewDevice(cfg, 1)
	if d1.gain == 1 && d1.offset == 0 {
		t.Fatal("device 1 should differ from golden")
	}
	// Determinism.
	d1b := NewDevice(cfg, 1)
	if d1.gain != d1b.gain || d1.offset != d1b.offset {
		t.Fatal("device derivation must be deterministic")
	}
	if d1.mismatch(9, 9) != d1b.mismatch(9, 9) {
		t.Fatal("device mismatch must be deterministic")
	}
}

func TestProgramEnvDeterminism(t *testing.T) {
	cfg := testConfig()
	a := NewProgramEnv(cfg, 42, 3)
	b := NewProgramEnv(cfg, 42, 3)
	if a.gain != b.gain || a.offset != b.offset {
		t.Fatal("program env derivation must be deterministic")
	}
	c := NewProgramEnv(cfg, 42, 4)
	if a.gain == c.gain && a.offset == c.offset {
		t.Fatal("different program IDs should give different environments")
	}
	n := NeutralProgramEnv(7)
	if n.gain != 1 || n.offset != 0 {
		t.Fatal("neutral env must not shift")
	}
}

func TestCollectClassesDataset(t *testing.T) {
	camp, err := NewCampaign(testConfig(), 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	classes := []avr.Class{avr.OpADC, avr.OpAND}
	ds, err := camp.CollectClasses(classes, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2*3*5 {
		t.Fatalf("dataset size %d, want 30", ds.Len())
	}
	if len(ds.ClassNames) != 2 {
		t.Fatalf("class names %v", ds.ClassNames)
	}
	counts := map[int]int{}
	progs := map[int]bool{}
	for i := range ds.Traces {
		if len(ds.Traces[i]) != 315 {
			t.Fatalf("trace %d has %d samples", i, len(ds.Traces[i]))
		}
		counts[ds.Labels[i]]++
		progs[ds.Programs[i]] = true
	}
	if counts[0] != 15 || counts[1] != 15 {
		t.Fatalf("label balance %v", counts)
	}
	if len(progs) != 3 {
		t.Fatalf("program IDs %v, want 3 distinct", progs)
	}
	if _, err := camp.CollectClasses(nil, 1, 1); err == nil {
		t.Fatal("want error for empty class list")
	}
}

func TestCollectGroupsDataset(t *testing.T) {
	camp, err := NewCampaign(testConfig(), 0, 23)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := camp.CollectGroups(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 8*2*4 {
		t.Fatalf("dataset size %d, want 64", ds.Len())
	}
	if len(ds.ClassNames) != 8 {
		t.Fatalf("group dataset needs 8 labels, got %d", len(ds.ClassNames))
	}
	for _, l := range ds.Labels {
		if l < 0 || l > 7 {
			t.Fatalf("label %d out of group range", l)
		}
	}
}

func TestCollectRegistersDataset(t *testing.T) {
	camp, err := NewCampaign(testConfig(), 0, 29)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := camp.CollectRegisters(true, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 32*1*2 {
		t.Fatalf("dataset size %d, want 64", ds.Len())
	}
	if ds.ClassNames[5] != "Rd5" {
		t.Fatalf("class name %q", ds.ClassNames[5])
	}
	ds2, err := camp.CollectRegisters(false, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds2.ClassNames[31] != "Rr31" {
		t.Fatalf("class name %q", ds2.ClassNames[31])
	}
}

func TestSplitByProgram(t *testing.T) {
	ds := &Dataset{ClassNames: []string{"a"}}
	for p := 0; p < 5; p++ {
		for i := 0; i < 3; i++ {
			ds.Append([]float64{float64(p)}, 0, p)
		}
	}
	train, test := ds.SplitByProgram(func(p int) bool { return p < 4 })
	if train.Len() != 12 || test.Len() != 3 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
	for _, p := range test.Programs {
		if p != 4 {
			t.Fatalf("held-out program %d", p)
		}
	}
}

func TestSplitRandom(t *testing.T) {
	ds := &Dataset{}
	for i := 0; i < 100; i++ {
		ds.Append([]float64{float64(i)}, i%2, 0)
	}
	rng := rand.New(rand.NewSource(1))
	train, test := ds.SplitRandom(rng, 0.8)
	if train.Len() != 80 || test.Len() != 20 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
	seen := map[float64]bool{}
	for _, tr := range train.Traces {
		seen[tr[0]] = true
	}
	for _, tr := range test.Traces {
		if seen[tr[0]] {
			t.Fatal("train/test overlap")
		}
	}
}

func TestAcquireSegmentsStream(t *testing.T) {
	camp, err := NewCampaign(testConfig(), 0, 31)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := avr.AssembleProgram("LDI r16, 0x5A\nLDI r17, 0x3C\nEOR r16, r17\nNOP")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	traces, err := camp.AcquireSegments(rng, NeutralProgramEnv(0), stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 4 {
		t.Fatalf("got %d traces, want 4", len(traces))
	}
	for _, tr := range traces {
		if len(tr) != 315 {
			t.Fatalf("trace length %d", len(tr))
		}
	}
}

func TestReferenceSubtractionRemovesCommonMode(t *testing.T) {
	// A NOP target with no program shift should, after reference
	// subtraction, be mostly noise: the clock feedthrough cancels.
	cfg := testConfig()
	camp, err := NewCampaign(cfg, 0, 37)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	seg := avr.Segment{
		Target: avr.Instruction{Class: avr.OpNOP},
		Prev:   avr.Instruction{Class: avr.OpNOP},
		Next:   avr.Instruction{Class: avr.OpNOP},
	}
	tr, err := camp.acquireSegment(rng, seg, NeutralProgramEnv(0))
	if err != nil {
		t.Fatal(err)
	}
	// Residual should be far below the clock amplitude (~1.0): bounded by a
	// few noise standard deviations.
	maxAbs := 0.0
	for _, v := range tr {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs > 10*cfg.NoiseStd {
		t.Fatalf("NOP residual after reference subtraction too large: %g", maxAbs)
	}
}

func TestTraceFiniteProperty(t *testing.T) {
	cfg := testConfig()
	model, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, devID uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		dev := NewDevice(cfg, int(devID%6))
		prog := NewProgramEnv(cfg, uint64(seed), 0)
		mach := randomizedMachine(rng)
		seg := avr.NewSegment(rng, avr.RandomOperands(rng, avr.Class(rng.Intn(avr.NumClasses))))
		tr, err := model.Synthesize(rng, mach, TraceContext{Segment: seg, Device: dev, Program: prog})
		if err != nil {
			return false
		}
		for _, v := range tr {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 100 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateTrace(t *testing.T) {
	good := []float64{1, 2, 3, 2, 1}
	if err := ValidateTrace(good, 5); err != nil {
		t.Fatalf("good trace rejected: %v", err)
	}
	if err := ValidateTrace(good, 0); err != nil {
		t.Fatalf("unpinned length rejected: %v", err)
	}
	cases := []struct {
		trace []float64
		want  error
	}{
		{nil, ErrTraceLength},
		{[]float64{1, 2}, ErrTraceLength},
		{[]float64{1, math.NaN(), 3, 4, 5}, ErrNonFiniteTrace},
		{[]float64{1, 2, math.Inf(-1), 4, 5}, ErrNonFiniteTrace},
		{[]float64{7, 7, 7, 7, 7}, ErrConstantTrace},
	}
	for _, c := range cases {
		if err := ValidateTrace(c.trace, 5); !errors.Is(err, c.want) {
			t.Fatalf("ValidateTrace(%v) = %v, want %v", c.trace, err, c.want)
		}
	}
}

func TestDatasetSanitize(t *testing.T) {
	d := &Dataset{DeviceID: 3, ClassNames: []string{"a", "b"}}
	mkTrace := func(seed float64) []float64 {
		tr := make([]float64, 6)
		for i := range tr {
			tr[i] = seed + float64(i%3)
		}
		return tr
	}
	for i := 0; i < 8; i++ {
		d.Append(mkTrace(float64(i)), i%2, i%3)
	}
	d.Append([]float64{1, math.NaN(), 3, 4, 5, 6}, 0, 0) // non-finite
	d.Append([]float64{2, 2, 2, 2, 2, 2}, 1, 1)          // constant
	d.Append([]float64{1, 2, 3}, 0, 2)                   // wrong length

	rep := d.Validate(0)
	if rep.Checked != 11 || rep.NonFinite != 1 || rep.Constant != 1 || rep.WrongLength != 1 {
		t.Fatalf("Validate report = %+v", rep)
	}
	if d.Len() != 11 {
		t.Fatal("Validate must not modify the dataset")
	}

	clean, srep := d.Sanitize(0)
	if srep != rep {
		t.Fatalf("Sanitize report %+v != Validate report %+v", srep, rep)
	}
	if clean.Len() != 8 {
		t.Fatalf("clean.Len() = %d, want 8", clean.Len())
	}
	if clean.DeviceID != 3 || len(clean.ClassNames) != 2 {
		t.Fatal("Sanitize dropped dataset metadata")
	}
	for i, tr := range clean.Traces {
		if err := ValidateTrace(tr, 6); err != nil {
			t.Fatalf("clean trace %d still invalid: %v", i, err)
		}
		if clean.Labels[i] != i%2 || clean.Programs[i] != i%3 {
			t.Fatalf("labels/programs misaligned at %d", i)
		}
	}
	if s := srep.String(); !strings.Contains(s, "3/11") {
		t.Fatalf("report string %q", s)
	}
}

// The modal-length rule: one truncated leading trace must not condemn the
// majority length.
func TestSanitizeUsesModalLength(t *testing.T) {
	d := &Dataset{}
	d.Append([]float64{1, 2}, 0, 0) // short outlier first
	for i := 0; i < 5; i++ {
		d.Append([]float64{1, 2, 3, float64(i)}, 0, 0)
	}
	clean, rep := d.Sanitize(0)
	if clean.Len() != 5 || rep.WrongLength != 1 {
		t.Fatalf("clean=%d rep=%+v, want the 4-sample majority kept", clean.Len(), rep)
	}
}

func TestValidationReportMerge(t *testing.T) {
	a := ValidationReport{Checked: 5, NonFinite: 1}
	a.Merge(ValidationReport{Checked: 3, Constant: 2, WrongLength: 1})
	if a.Checked != 8 || a.Rejected() != 4 {
		t.Fatalf("merged = %+v", a)
	}
	if s := (ValidationReport{Checked: 4}).String(); !strings.Contains(s, "0/4") {
		t.Fatalf("clean report string %q", s)
	}
}

// NeutralProgramEnv returns an environment with no shift — useful for
// isolating other effects in these tests.
func NeutralProgramEnv(id int) *ProgramEnv {
	return &ProgramEnv{ID: id, gain: 1}
}

// SplitByProgram partitions the dataset into traces whose program ID
// satisfies pred (first return) and the rest (second). The paper's practical
// scenario trains on programs 0..n-2 and tests on the held-out program. No
// non-test code splits a dataset by predicate.
func (d *Dataset) SplitByProgram(pred func(program int) bool) (in, out *Dataset) {
	in = &Dataset{ClassNames: d.ClassNames, DeviceID: d.DeviceID}
	out = &Dataset{ClassNames: d.ClassNames, DeviceID: d.DeviceID}
	for i := range d.Traces {
		if pred(d.Programs[i]) {
			in.Append(d.Traces[i], d.Labels[i], d.Programs[i])
		} else {
			out.Append(d.Traces[i], d.Labels[i], d.Programs[i])
		}
	}
	return in, out
}

// Validate checks every trace against wantLen (<= 0 selects the dataset's
// modal trace length) and returns the defect counts. It never modifies the
// dataset; a non-zero Rejected() means Sanitize would drop traces. It is
// the read-only count the Sanitize tests check Sanitize's drops against.
func (d *Dataset) Validate(wantLen int) ValidationReport {
	if wantLen <= 0 {
		wantLen = d.referenceLen()
	}
	var rep ValidationReport
	for _, tr := range d.Traces {
		rep.Checked++
		rep.count(ValidateTrace(tr, wantLen))
	}
	return rep
}
