package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TinyScale is the smallest scale the experiments still run at, for smoke
// tests.
func TinyScale() Scale {
	return Scale{
		Programs:         3,
		CSAPrograms:      5,
		TracesPerProgram: 10,
		TestTraces:       40,
		Severity:         5,
		Seed:             42,
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	r := Table2()
	want := [8]int{12, 10, 13, 20, 24, 15, 12, 6}
	if r.Sizes != want {
		t.Fatalf("group sizes %v, want %v", r.Sizes, want)
	}
	s := r.String()
	if !strings.Contains(s, "112 classes") {
		t.Fatalf("missing class count: %s", s)
	}
}

func TestFig4Printout(t *testing.T) {
	s := Fig4()
	for _, needle := range []string{"SBI", "CBI", "TARGET", "NOP"} {
		if !strings.Contains(s, needle) {
			t.Fatalf("Fig4 output missing %q:\n%s", needle, s)
		}
	}
}

func TestFig2Tiny(t *testing.T) {
	r, err := Fig2(TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalPoints != 50*315 {
		t.Fatalf("total points %d", r.TotalPoints)
	}
	if r.PeakCount == 0 {
		t.Fatal("no KL peaks found")
	}
	if len(r.DNVP) == 0 || len(r.DNVP) > 5 {
		t.Fatalf("DNVP count %d", len(r.DNVP))
	}
	if r.UnionGroup1 == 0 || r.UnionGroup1 >= r.TotalPoints {
		t.Fatalf("union size %d", r.UnionGroup1)
	}
	if r.ReductionPct < 90 {
		t.Fatalf("reduction %.1f%%, expected the paper-style ~99%% cut", r.ReductionPct)
	}
	_ = r.String()
}

func TestFig3Tiny(t *testing.T) {
	r, err := Fig3(TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's qualitative claim: highest peaks scatter the two programs
	// apart, not-varying points keep them together.
	if r.SeparationWorst <= r.SeparationBest {
		t.Fatalf("expected worst separation (%.2f) > best (%.2f)", r.SeparationWorst, r.SeparationBest)
	}
	_ = r.String()
}

func TestFig5aTiny(t *testing.T) {
	r, err := Fig5a(TinyScale(), []int{3, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curves) != 4 {
		t.Fatalf("expected 4 classifiers, got %d", len(r.Curves))
	}
	for name, curve := range r.Curves {
		if len(curve) != 2 {
			t.Fatalf("%s: %d points", name, len(curve))
		}
		last := curve[len(curve)-1].SR
		if last < 0.5 {
			t.Fatalf("%s group SR %.2f too low even at 8 PCs", name, last)
		}
	}
	_ = r.String()
}

func TestTable3Tiny(t *testing.T) {
	sc := TinyScale()
	sc.Programs = 6
	sc.CSAPrograms = 10
	sc.TracesPerProgram = 20
	sc.TestTraces = 80
	r, err := Table3(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"QDA", "SVM"} {
		row := r.Rows[name]
		// The reproduction target is the ordering: CSA+norm rescues what the
		// unadapted classifier loses on a field program.
		if row[2] < row[0] {
			t.Fatalf("%s: CSA+norm (%.2f) should beat no-CSA (%.2f)", name, row[2], row[0])
		}
		if row[2] < 0.75 {
			t.Fatalf("%s: CSA+norm SR %.2f too low", name, row[2])
		}
		if r.TrainAccNoCSA[name] < 0.8 {
			t.Fatalf("%s: no-CSA train accuracy %.2f should be high (paper: 94.3%%)", name, r.TrainAccNoCSA[name])
		}
	}
	_ = r.String()
}

func TestMalwareTiny(t *testing.T) {
	sc := TinyScale()
	sc.Programs = 4
	sc.TracesPerProgram = 20
	// Run with a calibration sink installed, as `scdis detect` does: the
	// detection outcome must be unchanged (the scored path decodes
	// identically) and every run's decisions must be labeled against the
	// executed stream.
	cal := obs.NewReliability()
	r, err := MalwareObserved(sc, func(d *core.Disassembler) error {
		d.SetObserver(&core.InferenceObserver{Calibration: cal})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.EvilAlarm {
		t.Fatalf("register-swap malware not detected:\n%s", r)
	}
	if r.CleanAlarm {
		t.Fatalf("clean stream raised a register alarm:\n%s", r)
	}
	// 2 instructions × 9 runs × 2 streams.
	if want := int64(2 * 9 * 2); cal.Snapshot().Labeled != want {
		t.Fatalf("calibration labeled %d decisions, want %d", cal.Snapshot().Labeled, want)
	}
	snap := cal.Snapshot()
	if math.IsNaN(snap.ECE) || snap.ECE < 0 || snap.ECE > 1 {
		t.Fatalf("ECE %g out of range", snap.ECE)
	}
	if !(snap.MeanConfidence > 0 && snap.MeanConfidence <= 1) {
		t.Fatalf("mean confidence %g", snap.MeanConfidence)
	}
}

func TestAblationTimeDomainTiny(t *testing.T) {
	r, err := AblationTimeDomain(TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if r.SRA <= 0.5 {
		t.Fatalf("CWT arm should be informative, got %.2f", r.SRA)
	}
	_ = r.String()
}
