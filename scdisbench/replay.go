package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/avr"
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/store"
)

// level is one hierarchy level rebuilt from the served template file
// through the store's public API: the same sections the server
// materializes, split into the calls the traced run times one by one.
type level struct {
	name  string // group, instr, rd or rr
	pipe  *features.Pipeline
	state *features.PipelineState
	sp    *dsp.SparseCWT
	clf   ml.ScoredClassifier
	norm  bool // the level standardizes the trace before its cells (NormTrace)
	// Span names, built once so the replay's glue allocates nothing.
	extractSpan, cellsSpan, projectSpan, predictSpan string
}

// project applies the level's z-score and PCA stages to its cell values.
func (lv *level) project(v []float64) ([]float64, error) {
	if lv.state.Z != nil {
		var err error
		if v, err = lv.state.Z.Apply(v); err != nil {
			return nil, err
		}
	}
	return lv.state.PCA.Transform(v)
}

// levelSet is a template's hierarchy; absent levels are nil.
type levelSet struct {
	group  *level
	instr  [avr.NumGroups]*level
	rd, rr *level
}

// openLevels rebuilds every level of a v4 template file:
// store.Open(path).Template(), then features.PipelineFromState,
// InstallSparseTable and ml.RestoreClassifier per level.
func openLevels(path string) (*levelSet, error) {
	f, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Template()
	if err != nil {
		return nil, err
	}
	mk := func(name string, ls store.LevelState) (*level, error) {
		if !ls.Present {
			return nil, nil
		}
		if ls.Sparse == nil {
			return nil, fmt.Errorf("%s level has no sparse kernel table", name)
		}
		pl, err := features.PipelineFromState(ls.Pipe)
		if err != nil {
			return nil, fmt.Errorf("%s level: %w", name, err)
		}
		if err := pl.InstallSparseTable(ls.Sparse); err != nil {
			return nil, fmt.Errorf("%s level: %w", name, err)
		}
		sp, err := dsp.SparseFromTable(ls.Sparse)
		if err != nil {
			return nil, fmt.Errorf("%s level: %w", name, err)
		}
		// The replay times cell evaluation on its own evaluator; it must
		// hold the cells the pipeline evaluates.
		if n, err := pl.SparseCells(); err != nil || n != sp.NumCells() {
			return nil, fmt.Errorf("%s level: pipeline evaluates %d cells, kernel table holds %d (%v)", name, n, sp.NumCells(), err)
		}
		clf, err := ml.RestoreClassifier(ls.Clf)
		if err != nil {
			return nil, fmt.Errorf("%s level: %w", name, err)
		}
		sc, ok := clf.(ml.ScoredClassifier)
		if !ok {
			return nil, fmt.Errorf("%s level: classifier %T has no scored path", name, clf)
		}
		cfg := ls.Pipe.Cfg
		return &level{
			name: name, pipe: pl, state: ls.Pipe, sp: sp, clf: sc,
			norm:        cfg.PerTraceNorm && cfg.NormMode == features.NormTrace,
			extractSpan: "features.extract." + name,
			cellsSpan:   "dsp.cells." + name,
			projectSpan: "features.project." + name,
			predictSpan: "ml.predict." + name,
		}, nil
	}
	set := &levelSet{}
	if set.group, err = mk("group", st.Group); err != nil {
		return nil, err
	}
	for g := range set.instr {
		if set.instr[g], err = mk("instr", st.Instr[g]); err != nil {
			return nil, err
		}
	}
	if set.rd, err = mk("rd", st.Rd); err != nil {
		return nil, err
	}
	if set.rr, err = mk("rr", st.Rr); err != nil {
		return nil, err
	}
	if set.group == nil {
		return nil, errors.New("template has no group level")
	}
	return set, nil
}

// sharedRegisterCells is how many cells the Rd and Rr levels both evaluate
// (0 without register levels).
func (ls *levelSet) sharedRegisterCells() int {
	if ls.rd == nil || ls.rr == nil {
		return 0
	}
	rd := map[dsp.Cell]bool{}
	for _, c := range ls.rd.sp.Cells() {
		rd[c] = true
	}
	n := 0
	for _, c := range ls.rr.sp.Cells() {
		if rd[c] {
			n++
		}
	}
	return n
}

// crossing is one level a trace's decode passed through, with the label the
// program decided there.
type crossing struct {
	lv    *level
	label int
}

// crossed maps a decision's levels onto the template's: the instruction
// level is the one of the group the decision routed to.
func (ls *levelSet) crossed(dec core.Decision) ([]crossing, error) {
	out := make([]crossing, 0, len(dec.Levels))
	group := -1
	for _, l := range dec.Levels {
		var lv *level
		switch l.Level {
		case "group":
			lv, group = ls.group, l.Label
		case "instr":
			if group >= 0 && group < avr.NumGroups {
				lv = ls.instr[group]
			}
		case "rd":
			lv = ls.rd
		case "rr":
			lv = ls.rr
		}
		if lv == nil {
			return nil, fmt.Errorf("decision level %q has no template level", l.Level)
		}
		out = append(out, crossing{lv, l.Label})
	}
	return out, nil
}

// requestCells is the number of sparse cells the served decode of req
// evaluates: every cell of every level each trace crosses.
func (ls *levelSet) requestCells(req *request) (int64, error) {
	var n int64
	for _, dec := range req.decs {
		cross, err := ls.crossed(dec)
		if err != nil {
			return 0, err
		}
		for _, c := range cross {
			n += int64(c.lv.sp.NumCells())
		}
	}
	return n, nil
}

// maxBodyBytes is serve.Config's default body bound.
const maxBodyBytes = 256 << 20

// decodeBody parses a request body with the handler's settings: a bounded
// reader, DisallowUnknownFields for JSON, the packed frame otherwise, and
// every trace checked against the template's length.
func decodeBody(body []byte, frame bool, traceLen int) ([][]float64, error) {
	r := http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), maxBodyBytes)
	if frame {
		var hdr [8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, err
		}
		count, n := binary.LittleEndian.Uint32(hdr[0:]), binary.LittleEndian.Uint32(hdr[4:])
		if count == 0 || int(n) != traceLen || uint64(count) > (maxBodyBytes-8)/(8*uint64(n)) {
			return nil, fmt.Errorf("frame header declares %d traces of %d samples", count, n)
		}
		traces := make([][]float64, count)
		buf := make([]byte, 8*int(n))
		for i := range traces {
			if _, err := io.ReadFull(r, buf); err != nil {
				return nil, err
			}
			tr := make([]float64, n)
			for j := range tr {
				tr[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*j:]))
			}
			traces[i] = tr
		}
		if extra, _ := io.Copy(io.Discard, io.LimitReader(r, 1)); extra > 0 {
			return nil, errors.New("trailing bytes after the frame")
		}
		return traces, nil
	}
	var req struct {
		Traces [][]float64 `json:"traces"`
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	for i, tr := range req.Traces {
		if len(tr) != traceLen {
			return nil, fmt.Errorf("trace %d has %d samples, template expects %d", i, len(tr), traceLen)
		}
	}
	return req.Traces, nil
}

// encodeResponse is the handler's response encode: the same response type,
// drift snapshot included.
func encodeResponse(name string, d *core.Disassembler, decs []core.Decision) ([]byte, error) {
	resp := serve.DisassembleResponse{
		Template: name,
		Count:    len(decs),
		Sparse:   d.SparseEnabled(),
		Decoded:  make([]serve.DecodedInstr, len(decs)),
	}
	for i, dec := range decs {
		resp.Decoded[i] = serve.DecodedInstr{Index: i, Text: dec.Decoded.String(), Confidence: dec.Confidence, Levels: dec.Levels}
	}
	if o := d.Observer(); o != nil && o.Drift != nil {
		snap := o.Drift.Snapshot()
		resp.Drift = &snap
	}
	return json.Marshal(&resp)
}

// requestTracing is the middleware's per-request tracing work for a request
// without a traceparent: mint a trace ID, build the fine tracer, open and
// close the root span, format the echoed traceparent, and let the tail
// sampler decide.
func requestTracing(sampler *obs.TailSampler, dur time.Duration) string {
	tracer := obs.NewTracer()
	tracer.Fine = true
	tracer.MaxSpans = 512
	tid, parent, _, ok := obs.ParseTraceparent("")
	if !ok {
		tid = obs.NewTraceID()
	}
	tracer.SetTraceContext(tid, parent)
	_, root := obs.Span(obs.WithTracer(context.Background(), tracer), "serve.request")
	tp := obs.FormatTraceparent(tid, root.ExportID(), true)
	root.End()
	sampler.Latency.Observe(dur.Seconds())
	sampler.Decide(http.StatusOK, dur, false)
	return tp
}

// replayResult is what the traced replay measured.
type replayResult struct {
	spans      []span
	reqPairs   [][2]int // (serve.request span, bench.request root) per request
	tracePairs [][2]int // (core.classify span, bench.trace root) per trace
	traces     int
	levels     int // levels crossed, summed over traces
	normalizes int
	cells      map[string][]float64 // level name → cells per crossing
	unionRatio []float64            // per trace: distinct cells over cells evaluated
	union      int                  // distinct cells, summed over traces
	evaluated  int                  // cells evaluated, summed over traces
	residentMB []float64
	// Store counter moves over the replay, read from the in-process registry.
	sectionsPerOpen float64
	sectionErrors   int64
	allocsPerCall   float64 // heap allocations per ClassifyScored
	spanCost        time.Duration
	problems        []string
}

// storeOpens is how often the replay opens and materializes the template,
// and reloads the server, outside any request, so every workload reports
// store and reload timings.
const storeOpens = 5

// replayer drives requests through the layers' public entry points.
//
// Calls run twice where they can, first on a throwaway recorder: the replay
// holds its own copies of the template (the server's, the replay
// Disassembler's, the rebuilt levels), and timing each call with its own
// copy warm keeps a black-box call and the calls it decomposes into
// comparable. A fleet-redeploy request cannot repeat: it is cold by design.
type replayer struct {
	f        *fixture
	ls       *levelSet
	rec      *recorder
	warm     *recorder // throwaway: the untimed first round
	h        http.Handler
	d        *core.Disassembler // warm, wired like the registry's
	mon      *obs.DriftMonitor  // the bench's own monitor for obs.drift_observe
	sampler  *obs.TailSampler
	traceLen int
	res      *replayResult
}

// replay drives the workload's requests through each layer's public entry
// points, recording a span around every call. It runs after the timed load,
// so it moves no counter the load phase checks.
func (f *fixture) replay(ls *levelSet, budget time.Duration) (*replayResult, error) {
	rp := &replayer{
		f: f, ls: ls, rec: newRecorder(), warm: newRecorder(), h: f.srv.Handler(),
		sampler: obs.NewTailSampler(0.01, obs.NewHistogram(obs.DurationBuckets())),
		res:     &replayResult{cells: map[string][]float64{}},
	}
	res := rp.res
	before := obs.Default().Snapshot()
	for i := 0; i < storeOpens; i++ {
		t, d, err := rp.open(rp.rec, f.path(f.names[0]), -1, -1)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			t.Close()
			continue
		}
		defer t.Close()
		rp.d = d
	}
	if f.wl.fleet == 0 {
		// Reloads that find nothing changed; fleet-redeploy times one after
		// every redeploy instead.
		for i := 0; i < storeOpens; i++ {
			if err := rp.reload(-1); err != nil {
				return nil, err
			}
		}
	}
	var err error
	if rp.mon, err = rp.d.NewDriftMonitor(driftConfig); err != nil {
		return nil, err
	}
	rp.traceLen = rp.d.TraceLen()

	deadline := time.Now().Add(budget)
	for id := 0; id < f.wl.replay && time.Now().Before(deadline); id++ {
		if err := rp.request(id, f.pool[id%len(f.pool)]); err != nil {
			return nil, err
		}
	}

	// Allocations of the single-trace decode, counted over the pool's traces
	// (runtime/metrics; the server is idle between load and replay).
	var sample [][]float64
	for _, req := range f.pool {
		sample = append(sample, req.traces...)
	}
	sample = sample[:min(len(sample), 256)]
	a0 := heapAllocObjects()
	for _, tr := range sample {
		if _, err := rp.d.ClassifyScored(tr); err != nil {
			return nil, err
		}
	}
	res.allocsPerCall = float64(heapAllocObjects()-a0) / float64(len(sample))

	after := obs.Default().Snapshot()
	if opens := after.Counters["store.opens"] - before.Counters["store.opens"]; opens > 0 {
		res.sectionsPerOpen = float64(after.Counters["store.sections.loaded"]-before.Counters["store.sections.loaded"]) / float64(opens)
	}
	res.sectionErrors = after.Counters["store.sections.errors"] - before.Counters["store.sections.errors"]
	res.spans = rp.rec.spans
	res.spanCost = spanCost()
	return res, nil
}

// request replays one request: the whole handler (serve.request), the
// request path rebuilt from its parts (the bench.request tree), then every
// trace.
func (rp *replayer) request(id int, req *request) error {
	fleet := rp.f.wl.fleet > 0
	if fleet {
		// Redeploy, so the handler and the rebuilt path both load cold.
		if err := rp.f.deploy(req.template); err != nil {
			return err
		}
		if err := rp.reload(id); err != nil {
			return err
		}
	} else {
		rp.serve(rp.warm, id, req)
	}
	s, w := rp.serve(rp.rec, id, req)
	if w.Code != http.StatusOK {
		rp.res.problems = append(rp.res.problems, fmt.Sprintf("replayed request %d: status %d", id, w.Code))
	} else if err := checkListing(w.Body.Bytes(), req.want); err != nil {
		rp.res.problems = append(rp.res.problems, fmt.Sprintf("replayed request %d: %v", id, err))
	}
	served := rp.rec.spans[s].dur()

	if !fleet {
		if _, _, err := rp.requestTree(rp.warm, id, req, served); err != nil {
			return err
		}
	}
	root, decs, err := rp.requestTree(rp.rec, id, req, served)
	if err != nil {
		return err
	}
	rp.res.reqPairs = append(rp.res.reqPairs, [2]int{s, root})
	for i, dec := range decs {
		if got := dec.Decoded.String(); got != req.want[i] {
			rp.res.problems = append(rp.res.problems, fmt.Sprintf("replayed request %d trace %d decoded %q, want %q", id, i, got, req.want[i]))
		}
	}
	for i, tr := range req.traces {
		if err := rp.trace(id, tr, req.decs[i]); err != nil {
			return err
		}
	}
	rp.warm.spans = rp.warm.spans[:0]
	return nil
}

// reload runs POST /admin/reload through the handler.
func (rp *replayer) reload(id int) error {
	hr, w := httptest.NewRequest(http.MethodPost, "/admin/reload", nil), httptest.NewRecorder()
	s := rp.rec.begin("serve.reload", -1, id)
	rp.h.ServeHTTP(w, hr)
	rp.rec.end(s)
	if w.Code != http.StatusOK {
		return fmt.Errorf("replayed reload: status %d", w.Code)
	}
	return nil
}

// serve runs the whole handler in process on a recorder.
func (rp *replayer) serve(r *recorder, id int, req *request) (int, *httptest.ResponseRecorder) {
	hr, w := httptest.NewRequest(http.MethodPost, "/v1/disassemble/"+req.template, bytes.NewReader(req.body)), httptest.NewRecorder()
	if rp.f.wl.frame {
		hr.Header.Set("Content-Type", "application/octet-stream")
	} else {
		hr.Header.Set("Content-Type", "application/json")
	}
	s := r.begin("serve.request", -1, id)
	rp.h.ServeHTTP(w, hr)
	r.end(s)
	return s, w
}

// requestTree is the bench.request tree: the handler's steps as separate
// public calls. served is the handler's duration, fed to the tail sampler.
func (rp *replayer) requestTree(r *recorder, id int, req *request, served time.Duration) (int, []core.Decision, error) {
	root := r.begin("bench.request", -1, id)
	sp := r.begin("obs.request_tracing", root, id)
	requestTracing(rp.sampler, served)
	r.end(sp)
	d := rp.d
	if rp.f.wl.fleet > 0 {
		tpl, dd, err := rp.open(r, rp.f.path(req.template), root, id)
		if err != nil {
			return 0, nil, err
		}
		defer tpl.Close()
		d = dd
	}
	sp = r.begin("serve.body_decode", root, id)
	traces, err := decodeBody(req.body, rp.f.wl.frame, rp.traceLen)
	r.end(sp)
	if err != nil {
		return 0, nil, err
	}
	sp = r.begin("core.disassemble", root, id)
	decs, err := d.DisassembleScoredCtx(context.Background(), traces)
	r.end(sp)
	if err != nil {
		return 0, nil, err
	}
	sp = r.begin("serve.response_encode", root, id)
	_, err = encodeResponse(req.template, d, decs)
	r.end(sp)
	r.end(root)
	return root, decs, err
}

// open is the registry's two-phase template load: open the file (header
// only), materialize the sections, wire the Disassembler.
func (rp *replayer) open(r *recorder, path string, parent, id int) (*core.Template, *core.Disassembler, error) {
	sp := r.begin("store.open", parent, id)
	t, err := core.OpenTemplate(path)
	r.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = r.begin("store.materialize", parent, id)
	d, err := t.Disassembler()
	r.end(sp)
	if err == nil {
		sp = r.begin("serve.template_wire", parent, id)
		err = configure(d)
		r.end(sp)
	}
	if err != nil {
		t.Close()
		return nil, nil, err
	}
	rp.res.residentMB = append(rp.res.residentMB, float64(t.ResidentBytes())/1e6)
	return t, d, nil
}

// trace replays one trace: Disassembler.ClassifyScored as a black box, the
// same classification level by level (the bench.trace tree), and each
// crossed level's Pipeline.ExtractSparse. want is the served decision,
// whose levels route the rebuilt walk.
func (rp *replayer) trace(id int, tr []float64, want core.Decision) error {
	cross, err := rp.ls.crossed(want)
	if err != nil {
		return err
	}
	var c int
	for _, r := range []*recorder{rp.warm, rp.rec} {
		c = r.begin("core.classify", -1, id)
		_, err = rp.d.ClassifyScored(tr)
		r.end(c)
		if err != nil {
			return err
		}
	}
	if _, err := rp.traceTree(rp.warm, id, tr, cross); err != nil {
		return err
	}
	root, err := rp.traceTree(rp.rec, id, tr, cross)
	if err != nil {
		return err
	}
	rp.res.tracePairs = append(rp.res.tracePairs, [2]int{c, root})
	for _, cr := range cross {
		sp := rp.rec.begin(cr.lv.extractSpan, -1, id)
		_, err = cr.lv.pipe.ExtractSparse(tr)
		rp.rec.end(sp)
		if err != nil {
			return err
		}
	}

	res := rp.res
	res.traces++
	res.levels += len(cross)
	distinct := map[dsp.Cell]bool{}
	total := 0
	for _, cr := range cross {
		cells := cr.lv.sp.Cells()
		res.cells[cr.lv.name] = append(res.cells[cr.lv.name], float64(len(cells)))
		total += len(cells)
		for _, cell := range cells {
			distinct[cell] = true
		}
		if cr.lv.norm {
			res.normalizes++
		}
	}
	res.unionRatio = append(res.unionRatio, float64(len(distinct))/float64(total))
	res.union += len(distinct)
	res.evaluated += total
	return nil
}

// traceTree is the bench.trace tree: validation, then per crossed level the
// normalization, cell evaluation, z-score+PCA projection and scored
// prediction, then the drift vector and its observation.
func (rp *replayer) traceTree(r *recorder, id int, tr []float64, cross []crossing) (int, error) {
	root := r.begin("bench.trace", -1, id)
	sp := r.begin("power.validate", root, id)
	err := power.ValidateTrace(tr, rp.traceLen)
	r.end(sp)
	if err != nil {
		return 0, err
	}
	for _, c := range cross {
		x := tr
		if c.lv.norm {
			sp = r.begin("stats.normalize", root, id)
			x = stats.NormalizeTrace(tr)
			r.end(sp)
		}
		sp = r.begin(c.lv.cellsSpan, root, id)
		v, err := c.lv.sp.Values(x)
		r.end(sp)
		if err != nil {
			return 0, err
		}
		sp = r.begin(c.lv.projectSpan, root, id)
		fv, err := c.lv.project(v)
		r.end(sp)
		if err != nil {
			return 0, err
		}
		sp = r.begin(c.lv.predictSpan, root, id)
		p, err := c.lv.clf.PredictScored(fv)
		r.end(sp)
		if err != nil {
			return 0, err
		}
		// A group decision may be rerouted from a group without instruction
		// templates; any other disagreement means the replay does not model
		// the served decode.
		rerouted := c.lv == rp.ls.group && p.Label >= 0 && p.Label < avr.NumGroups && rp.ls.instr[p.Label] == nil
		if p.Label != c.label && !rerouted && r == rp.rec {
			rp.res.problems = append(rp.res.problems, fmt.Sprintf("replayed %s level of request %d: label %d, served %d", c.lv.name, id, p.Label, c.label))
		}
	}
	sp = r.begin("features.drift_vector", root, id)
	dv, err := rp.ls.group.pipe.DriftVector(tr)
	r.end(sp)
	if err != nil {
		return 0, err
	}
	sp = r.begin("obs.drift_observe", root, id)
	rp.mon.Observe(dv)
	r.end(sp)
	r.end(root)
	return root, nil
}

// spanCost is the recorder's own cost per span, measured on a throwaway
// recorder.
func spanCost() time.Duration {
	const n = 20000
	r := &recorder{epoch: time.Now(), spans: make([]span, 0, n)}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin("bench.calibrate", -1, 0))
	}
	return time.Since(t0) / n
}
