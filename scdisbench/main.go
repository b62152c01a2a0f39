// Command scdisbench is the end-to-end benchmark of the scdisd serving path:
// bytes into a real serve.Server on a loopback listener, bytes out, and
// every layer in between.
//
//	scdisbench -workload stream-json -seed 1 -seconds 30 -trace 0
//
// It trains its templates, writes them as v4 files and generates its traffic
// from -seed, starts a server configured like cmd/scdisd at its default
// flags, drives the workload's closed loop for -seconds and checks every
// response against its own in-process decode. -trace 0 reports the
// end-to-end metrics; -trace 1 runs the same load and then replays the
// requests layer by layer, recording a span around each call, and reports
// the per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The line before it
// records the environment and details (the tail percentile used, accuracy,
// per-layer self times). See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/parallel"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scdisbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("scdisbench", flag.ContinueOnError)
	name := fl.String("workload", "", "stream-json, bulk-binary or fleet-redeploy")
	seed := fl.Int64("seed", 1, "seed every generated input derives from")
	seconds := fl.Float64("seconds", 30, "length of the timed load phase")
	trace := fl.Int("trace", 0, "0 reports end-to-end metrics; 1 runs the traced replay and reports per-layer metrics")
	root := fl.String("root", ".", "checkout the benchmark runs in; scratch files go under <root>/.bench_build")
	smoke := fl.Bool("smoke", false, "tiny campaigns and traffic, one set-up: exercises every path and metric in seconds")
	if err := fl.Parse(args); err != nil {
		return err
	}
	wl, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown -workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seed < 0 || *seconds <= 0 {
		return errors.New("-seed must be >= 0 and -seconds > 0")
	}
	sc := fullScale
	if *smoke {
		sc, wl = smokeScale, wl.smoke()
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	scratch := filepath.Join(absRoot, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	res, detail, err := bench(wl, sc, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, scratch)
	if err != nil {
		return err
	}
	detail["env"] = environment(absRoot, wl.name, *seed)
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(detail); err != nil {
		return err
	}
	return enc.Encode(res)
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// bench runs one workload: set-up (repeated for setup_s), the timed load,
// and for a traced run the replay.
func bench(wl workload, sc scale, seed int64, d time.Duration, traced bool, scratch string) (*result, map[string]any, error) {
	setups := sc.setups
	if traced {
		setups = 1 // setup_s is an end-to-end metric
	}
	var f *fixture
	var setupS []float64
	for i := 0; i < setups; i++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		var err error
		if f, err = setup(wl, sc, seed, scratch); err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer f.close()

	ls, err := openLevels(f.path(f.names[0]))
	if err != nil {
		return nil, nil, err
	}
	for _, req := range f.pool {
		if req.cells, err = ls.requestCells(req); err != nil {
			return nil, nil, err
		}
	}
	// Training garbage goes back to the OS before the peak-RSS count
	// restarts, so rss_peak_mb is the serving peak.
	debug.FreeOSMemory()
	resetHWM()

	lr, err := f.load(d)
	if err != nil {
		return nil, nil, err
	}
	problems := lr.checks(wl.fleet > 0)
	res := &result{Attempted: lr.attempted, Failed: lr.failed, Metrics: map[string]metric{}}
	// Figures too noisy on a shared host to gate on, or 0 by design; see
	// README.md.
	pct, p99, n := tailPercentile(lr.latMS)
	detail := map[string]any{
		"workload":                wl.name,
		"latency_p99_ms":          p99,
		"latency_tail_percentile": pct,
		"latency_samples":         n,
		"throughput_traces_per_s": lr.throughput(),
		"error_ratio":             ratio(float64(lr.failed), float64(lr.attempted)),
		"decode_accuracy":         ratio(float64(lr.correct), float64(lr.traces)),
		"setup_s_each":            setupS,
	}
	if !traced {
		rss, err := vmHWM()
		if err != nil {
			return nil, nil, err
		}
		traces := float64(lr.traces)
		res.set("setup_s", median(setupS), "s")
		res.set("latency_p50_ms", median(lr.latMS), "ms")
		res.set("cpu_us_per_trace", ratio(us(lr.cpu), traces), "us")
		res.set("alloc_kb_per_trace", ratio(float64(lr.allocBytes)/1024, traces), "KiB")
		res.set("rss_peak_mb", rss, "MiB")
	} else {
		rp, err := f.replay(ls, d)
		if err != nil {
			return nil, nil, err
		}
		problems = append(problems, rp.problems...)
		// The load's median, so layer times compare with the whole request
		// within one run.
		detail["latency_p50_ms"] = median(lr.latMS)
		perLayer(res, detail, lr, rp)
		// How much cell evaluation the levels a trace crosses could share.
		detail["cell_overlap"] = map[string]float64{
			"evaluated_per_trace": ratio(float64(rp.evaluated), float64(rp.traces)),
			"union_per_trace":     ratio(float64(rp.union), float64(rp.traces)),
			"rd_and_rr":           float64(ls.sharedRegisterCells()),
		}
	}
	if len(problems) > 0 {
		detail["problems"] = problems
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "scdisbench: check failed:", p)
	}
	res.Correct = len(problems) == 0
	return res, detail, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hierarchyLevels are the decode levels in hierarchy order.
var hierarchyLevels = []string{"group", "instr", "rd", "rr"}

// perLayer sets every per-layer metric from the traced run, and records in
// detail the mean self time per layer of the two replay trees (per request
// and per trace, in microseconds) and the figures kept out of the metrics.
// A layer a workload never crosses reports 0.
func perLayer(res *result, detail map[string]any, lr *loadResult, rp *replayResult) {
	spans := rp.spans
	med := func(name string) float64 { return median(durationsUS(spans, name)) }
	perTrace := func(prefix string) float64 {
		var sum time.Duration
		for _, s := range spans {
			if strings.HasPrefix(s.name, prefix) {
				sum += s.dur()
			}
		}
		return ratio(us(sum), float64(rp.traces))
	}

	clientMeanMS := mean(lr.latMS)
	res.set("http.roundtrip_us", 1e3*(clientMeanMS-lr.handlerMeanMS()), "us")

	var residual, walk []float64
	for _, p := range rp.reqPairs {
		residual = append(residual, us(spans[p[0]].dur()-childSum(spans, p[1])))
	}
	for _, p := range rp.tracePairs {
		walk = append(walk, us(spans[p[0]].dur()-childSum(spans, p[1])))
	}
	res.set("serve.request_us", med("serve.request"), "us")
	res.set("serve.body_decode_us", med("serve.body_decode"), "us")
	res.set("serve.response_encode_us", med("serve.response_encode"), "us")
	res.set("serve.residual_us", median(residual), "us")
	res.set("serve.reload_ms", med("serve.reload")/1e3, "ms")
	res.set("serve.failed", float64(lr.failed), "count")

	busy := float64(lr.delta("parallel.busy_ns"))
	res.set("parallel.busy_ratio", ratio(busy, float64(lr.elapsed.Nanoseconds())*float64(parallel.Workers())), "ratio")
	// Two clients never outnumber the two admission slots, so every request
	// takes the gate's fast path and the histogram reads its floor on every
	// run: a constant, not a measured time.
	detail["admission_wait_p99_ms"] = 1e3 * lr.after.Histograms["parallel.admission.wait.seconds"].P99

	res.set("store.open_us", med("store.open"), "us")
	res.set("store.materialize_ms", med("store.materialize")/1e3, "ms")
	res.set("store.resident_mb", median(rp.residentMB), "MB")
	res.set("store.sections_per_open", rp.sectionsPerOpen, "count")
	res.set("store.section_errors", float64(lr.delta("store.sections.errors")+rp.sectionErrors), "count")

	classified := float64(lr.delta("core.traces.classified"))
	res.set("core.disassemble_us_per_trace", perTrace("core.disassemble"), "us")
	res.set("core.classify_us", med("core.classify"), "us")
	res.set("core.classify_allocs", rp.allocsPerCall, "count")
	res.set("core.walk_self_us", median(walk), "us")
	res.set("core.levels_per_trace", ratio(float64(rp.levels), float64(rp.traces)), "count")
	res.set("core.group_remapped_ratio", ratio(float64(lr.delta("core.group.remapped")), classified), "ratio")
	res.set("core.rejected", float64(lr.delta("core.traces.rejected")), "count")

	// Per-level times of the register levels go to the detail record: the
	// opcode-only template has none, and a time that reads 0 on every run of
	// a workload is not a measurement. The per-trace totals over the crossed
	// levels carry them on the register workloads.
	res.set("features.extract_us_per_trace", perTrace("features.extract."), "us")
	res.set("dsp.cells_us_per_trace", perTrace("dsp.cells."), "us")
	res.set("ml.predict_us_per_trace", perTrace("ml.predict."), "us")
	register := map[string]float64{}
	for _, l := range hierarchyLevels {
		res.set("features.cells."+l, mean(rp.cells[l]), "count")
		for _, name := range []string{"features.extract." + l, "dsp.cells." + l, "ml.predict." + l} {
			if l == "rd" || l == "rr" {
				register[name+"_us"] = med(name)
			} else {
				res.set(name+"_us", med(name), "us")
			}
		}
	}
	detail["register_levels_us"] = register
	res.set("features.cells_union_ratio", mean(rp.unionRatio), "ratio")
	res.set("features.drift_vector_us", med("features.drift_vector"), "us")
	res.set("stats.normalize_us", med("stats.normalize"), "us")
	res.set("stats.normalize_per_trace", ratio(float64(rp.normalizes), float64(rp.traces)), "count")
	res.set("power.validate_us", med("power.validate"), "us")

	res.set("obs.request_tracing_us", med("obs.request_tracing"), "us")
	res.set("obs.drift_observe_us", med("obs.drift_observe"), "us")
	res.set("obs.trace_kept_ratio", ratio(float64(lr.labeledDelta("obs.trace.sampled")), float64(lr.attempted)), "ratio")

	// Self time per layer over the two bench trees; the bench roots' own
	// self time is what no layer span covers.
	self := selfTimes(spans)
	byTree := map[string]map[string]float64{"request": {}, "trace": {}}
	counts := map[string]int{}
	var whole, unattributed time.Duration
	var inTree int
	treeOf := make([]string, len(spans))
	for i, s := range spans {
		switch {
		case s.parent >= 0:
			treeOf[i] = treeOf[s.parent]
		case s.name == "bench.request":
			treeOf[i] = "request"
		case s.name == "bench.trace":
			treeOf[i] = "trace"
		}
		if treeOf[i] == "" {
			continue
		}
		inTree++
		byTree[treeOf[i]][s.layer()] += us(self[i])
		if s.parent < 0 {
			counts[treeOf[i]]++
			whole += s.dur()
			unattributed += self[i]
		}
	}
	for tree, layers := range byTree {
		for l := range layers {
			layers[l] /= float64(max(counts[tree], 1))
		}
	}
	res.set("bench.unattributed_ratio", ratio(float64(unattributed), float64(whole)), "ratio")
	res.set("bench.trace_overhead_ratio", ratio(float64(rp.spanCost)*float64(inTree), float64(whole)), "ratio")
	detail["self_us"] = byTree
}

// environment records where and on what a result was measured.
func environment(root, workload string, seed int64) map[string]any {
	return map[string]any{
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"git_commit":    gitCommit(root),
		"source_sha256": sourceDigest(root),
		"workload":      workload,
		"seed":          seed,
	}
}

func cpuModel() string {
	fh, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit reads HEAD from the checkout's .git directory; a checkout
// without one (an exported tree) reports "none" and is identified by its
// source digest.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file of the checkout,
// skipping dot-directories (VCS data, build output).
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && p != root && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(p, ".go") || e.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
