package sidechannel

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the ablations called out in DESIGN.md. Each benchmark
// runs the corresponding experiment at a reduced scale and reports the
// measured successful recognition rates (SR) as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates a miniature of the whole evaluation. cmd/experiments runs the
// same experiments at larger scales.

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

// metricName turns a classifier display name into a benchmark metric unit
// (no whitespace allowed).
func metricName(name, suffix string) string {
	r := strings.NewReplacer(" ", "", "(", "", ")", "", ",", "-", "=", "")
	return r.Replace(name) + suffix
}

// benchScale keeps every benchmark in the seconds range; it matches the
// TinyScale the experiments package tests validate.
func benchScale() experiments.Scale {
	return experiments.Scale{
		Programs:         3,
		CSAPrograms:      5,
		TracesPerProgram: 10,
		TestTraces:       40,
		Severity:         5,
		Seed:             42,
	}
}

// midScale is used where the covariate-shift pattern needs a few more
// programs to emerge (Table 3).
func midScale() experiments.Scale {
	sc := benchScale()
	sc.Programs = 6
	sc.CSAPrograms = 10
	sc.TracesPerProgram = 20
	sc.TestTraces = 80
	return sc
}

func BenchmarkTable1OursRow(b *testing.B) {
	// Table 1 "Ours": hierarchical SR over 112 instructions + 64 registers.
	sc := benchScale()
	sc.Programs = 3
	sc.TracesPerProgram = 12
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.GroupSR, "groupSR%")
		b.ReportMetric(100*r.OpcodeSR, "opcodeSR%")
		b.ReportMetric(100*r.OverallSR, "overallSR%")
	}
}

func BenchmarkFig2FeatureExtraction(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.UnionGroup1), "unionPoints")
		b.ReportMetric(r.ReductionPct, "reduction%")
	}
}

func BenchmarkFig3BestWorstSelection(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SeparationWorst, "worstSep")
		b.ReportMetric(r.SeparationBest, "bestSep")
	}
}

func BenchmarkFig5GroupClassification(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5a(sc, []int{3, 10})
		if err != nil {
			b.Fatal(err)
		}
		for name, curve := range r.Curves {
			b.ReportMetric(100*curve[len(curve)-1].SR, metricName(name, "SR%"))
		}
	}
}

func BenchmarkFig5Group1Instructions(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5b(sc, []int{3, 10})
		if err != nil {
			b.Fatal(err)
		}
		for name, curve := range r.Curves {
			b.ReportMetric(100*curve[len(curve)-1].SR, metricName(name, "SR%"))
		}
	}
}

func BenchmarkFig6MajorityVoting(b *testing.B) {
	sc := benchScale()
	sc.Programs = 3
	sc.TracesPerProgram = 12
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(sc, []int{3})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Majority["QDA"][0].SR, "majorityQDA3SR%")
		b.ReportMetric(100*r.General["QDA"][0].SR, "generalQDA3SR%")
	}
}

func BenchmarkRegisterClassification(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Registers(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.RdSR["QDA"], "RdSR%")
		b.ReportMetric(100*r.RrSR["QDA"], "RrSR%")
	}
}

func BenchmarkTable3CSA(b *testing.B) {
	sc := midScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table3(sc)
		if err != nil {
			b.Fatal(err)
		}
		row := r.Rows["QDA"]
		b.ReportMetric(100*row[0], "noCSA%")
		b.ReportMetric(100*row[1], "csaNoNorm%")
		b.ReportMetric(100*row[2], "csaNorm%")
	}
}

func BenchmarkTable4Devices(b *testing.B) {
	sc := midScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table4(sc)
		if err != nil {
			b.Fatal(err)
		}
		var min, max float64 = 1, 0
		for _, sr := range r.Rows["QDA"] {
			if sr < min {
				min = sr
			}
			if sr > max {
				max = sr
			}
		}
		b.ReportMetric(100*min, "minDevSR%")
		b.ReportMetric(100*max, "maxDevSR%")
	}
}

func BenchmarkMalwareDetection(b *testing.B) {
	sc := benchScale()
	sc.Programs = 4
	sc.TracesPerProgram = 20
	for i := 0; i < b.N; i++ {
		r, err := experiments.Malware(sc)
		if err != nil {
			b.Fatal(err)
		}
		detected := 0.0
		if r.EvilAlarm {
			detected = 1
		}
		b.ReportMetric(detected, "detected")
	}
}

func BenchmarkAblationNoKLSelection(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationNoKLSelection(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.SRA, "selectedSR%")
		b.ReportMetric(100*r.SRB, "fullPlaneSR%")
	}
}

func BenchmarkAblationFlatVsHierarchical(b *testing.B) {
	sc := benchScale()
	sc.Programs = 3
	sc.TracesPerProgram = 12
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationFlatVsHierarchical(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.SRA, "flatSR%")
		b.ReportMetric(100*r.SRB, "hierSR%")
	}
}

func BenchmarkAblationTimeDomain(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationTimeDomain(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.SRA, "cwtSR%")
		b.ReportMetric(100*r.SRB, "timeDomainSR%")
	}
}
