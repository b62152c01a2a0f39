package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		pct, want float64
	}{
		{1000, 99, 990}, // exactly ten samples beyond p99
		{5000, 99, 4950},
		{999, 100 * 989.0 / 999, 989}, // p99 would leave nine: ten beyond instead
		{200, 95, 190},
		{20, 50, 10},
		{10, 100, 10}, // too few for any percentile: the maximum
	} {
		pct, v, n := tailPercentile(ramp(tc.n))
		if pct != tc.pct || v != tc.want || n != tc.n {
			t.Errorf("n=%d: got p%g=%g over %d samples, want p%g=%g", tc.n, pct, v, n, tc.pct, tc.want)
		}
	}
	if pct, v, n := tailPercentile(nil); pct != 0 || v != 0 || n != 0 {
		t.Errorf("no samples: got p%g=%g over %d", pct, v, n)
	}
}

func TestSelfTimes(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	spans := []span{
		{name: "bench.request", start: us(0), end: us(100), parent: -1},
		{name: "serve.body_decode", start: us(10), end: us(30), parent: 0},
		{name: "core.disassemble", start: us(30), end: us(80), parent: 0},
		{name: "dsp.cells.rd", start: us(40), end: us(60), parent: 2},
		{name: "dsp.cells.rr", start: us(50), end: us(70), parent: 2},           // overlaps its sibling
		{name: "serve.response_encode", start: us(90), end: us(120), parent: 0}, // runs past its parent
		{name: "core.classify", start: us(200), end: us(250), parent: -1},
	}
	want := []time.Duration{us(100 - 20 - 50 - 10), us(20), us(50 - 30), us(20), us(20), us(30), us(50)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self %v, want %v", spans[i].name, got[i], want[i])
		}
	}
	if l := spans[3].layer(); l != "dsp" {
		t.Errorf("layer of dsp.cells.rd = %q", l)
	}
	if s := childSum(spans, 2); s != us(40) {
		t.Errorf("childSum = %v, want 40µs", s)
	}
}

func TestRequestBodiesDeterministic(t *testing.T) {
	for _, wl := range workloads {
		wl = wl.smoke()
		cfg := trainerConfig(smokeScale, wl.regs, 7)
		gen := func(seed int64) []*request {
			pool, err := genTraffic(wl, cfg, seed, []string{"template"})
			if err != nil {
				t.Fatal(err)
			}
			return pool
		}
		a, b, c := gen(7), gen(7), gen(8)
		if len(a) != len(b) || len(a) == 0 {
			t.Fatalf("%s: pools of %d and %d requests", wl.name, len(a), len(b))
		}
		same := true
		for i := range a {
			if !bytes.Equal(a[i].body, b[i].body) {
				t.Fatalf("%s: request %d differs between two generations from one seed", wl.name, i)
			}
			same = same && bytes.Equal(a[i].body, c[i].body)
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 generated identical traffic", wl.name)
		}
	}
}

// TestSmokeEmitsEveryMetric runs every workload in -smoke mode, untraced and
// traced, and checks the result line against BENCHMARK.json: every metric
// named there, with its unit, and nothing else.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("trains templates")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark lacks", w.Name)
		}
	}
	root := t.TempDir()
	for _, w := range workloads {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			var out bytes.Buffer
			args := []string{"-workload", w.name, "-seed", "3", "-seconds", "0.3", "-smoke", "-root", root, "-trace", []string{"0", "1"}[trace]}
			if err := run(args, &out); err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: last line: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d; detail: %s", w.name, trace, res.Correct, res.Attempted, res.Failed, lines[0])
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace %d: metric %s missing", w.name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace %d: %s unit %q, BENCHMARK.json says %q", w.name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
	entries, err := os.ReadDir(root + "/.bench_build")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("runs left %d entries in .bench_build", len(entries))
	}
}
