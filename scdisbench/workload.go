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
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/avr"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/power"
	"repro/internal/serve"
	"repro/internal/store"
)

// workload is one traffic mix against the server. All are closed loops:
// each client sends its next request only after checking the previous
// response, as a monitor waiting for each listing does.
type workload struct {
	name    string
	regs    bool // serve the register template (demo-style) instead of the opcode-only one
	clients int
	frame   bool // application/octet-stream frames instead of JSON bodies
	batch   int  // traces per request
	runs    int  // program runs generated per set-up; each is one device/program environment
	runLen  int  // instructions per program run
	fleet   int  // template copies redeployed every round; 0 serves one template
	replay  int  // requests the traced run replays layer by layer
}

// workloads; the reasons for each are in README.md.
var workloads = []workload{
	{name: "stream-json", clients: 1, batch: 1, runs: 16, runLen: 16, replay: 256},
	{name: "bulk-binary", regs: true, clients: 2, frame: true, batch: 64, runs: 16, runLen: 64, replay: 16},
	{name: "fleet-redeploy", regs: true, clients: 1, batch: 1, runs: 16, runLen: 16, fleet: 16, replay: 64},
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// scale sizes the profiling campaigns and how often set-up repeats.
type scale struct {
	programs, traces       int // group and instruction levels, per class
	regPrograms, regTraces int // Rd and Rr levels (register template only)
	setups                 int // set-ups per untraced run; setup_s is their median
}

// fullScale keeps a register-template set-up near five seconds on two vCPUs,
// so three set-ups and the timed load fit one run. The register campaign is
// smaller than `scdis demo`'s default; the trainer and classes are the same.
var fullScale = scale{programs: 4, traces: 12, regPrograms: 3, regTraces: 6, setups: 3}

// smokeScale is the -smoke mode: every code path, tiny campaigns.
var smokeScale = scale{programs: 2, traces: 3, regPrograms: 2, regTraces: 2, setups: 1}

// smoke shrinks a workload's traffic for the -smoke mode.
func (wl workload) smoke() workload {
	wl.runs = 2
	if wl.fleet > 0 {
		wl.fleet = 4
	}
	wl.replay = min(wl.replay, 4)
	return wl
}

// classes are the opcodes both templates are trained on and the traffic
// executes: the `scdis demo` subset.
var classes = []avr.Class{avr.OpADD, avr.OpADC, avr.OpEOR, avr.OpMOV}

// heldOutDevice is the device the traffic is captured on; training uses
// device 0.
const heldOutDevice = 1

// driftConfig is scdisd's default covariate-shift monitor.
var driftConfig = obs.DriftConfig{Window: obs.DefaultDriftWindow, Warn: obs.DefaultDriftWarn, Critical: obs.DefaultDriftCritical}

func trainerConfig(sc scale, regs bool, seed int64) core.TrainerConfig {
	cfg := core.DefaultTrainerConfig()
	cfg.Programs, cfg.TracesPerProgram = sc.programs, sc.traces
	cfg.RegisterPrograms, cfg.RegisterTracesPerProgram = 0, 0
	if regs {
		cfg.RegisterPrograms, cfg.RegisterTracesPerProgram = sc.regPrograms, sc.regTraces
	}
	cfg.Seed = uint64(seed)
	return cfg
}

// request is one generated request body with everything needed to check
// its response.
type request struct {
	template string
	body     []byte
	traces   [][]float64
	truth    []avr.Instruction // the executed instructions
	decs     []core.Decision   // the benchmark's own in-process decode
	want     []string          // decoded[].text the response must carry
	correct  int               // traces whose decode matches truth by core.CompareFlow rules
	cells    int64             // sparse cells the served decode evaluates
}

// genTraffic captures the workload's program runs on the held-out device
// and program environments and packs them into request bodies. Everything
// comes from seed; templates are assigned round-robin over names.
func genTraffic(wl workload, cfg core.TrainerConfig, seed int64, names []string) ([]*request, error) {
	camp, err := power.NewCampaign(cfg.Power, heldOutDevice, uint64(seed)+1000)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 5))
	var pool []*request
	for run := 0; run < wl.runs; run++ {
		prog := power.NewProgramEnv(cfg.Power, uint64(seed)+1000, 100+run)
		stream := make([]avr.Instruction, wl.runLen)
		for i := range stream {
			stream[i] = avr.Instruction{
				Class: classes[rng.Intn(len(classes))],
				Rd:    uint8(rng.Intn(32)),
				Rr:    uint8(rng.Intn(32)),
			}
		}
		traces, err := camp.AcquireSegments(rng, prog, stream)
		if err != nil {
			return nil, err
		}
		for lo := 0; lo < len(traces); lo += wl.batch {
			hi := min(lo+wl.batch, len(traces))
			req := &request{
				template: names[len(pool)%len(names)],
				traces:   traces[lo:hi],
				truth:    stream[lo:hi],
			}
			if req.body, err = encodeBody(req.traces, wl.frame); err != nil {
				return nil, err
			}
			pool = append(pool, req)
		}
	}
	return pool, nil
}

// encodeBody renders a batch the way a client of scdisd sends it: a JSON
// {"traces": ...} body, or the packed frame (uint32 LE count, uint32 LE
// trace length, float64 LE samples).
func encodeBody(traces [][]float64, frame bool) ([]byte, error) {
	if !frame {
		return json.Marshal(struct {
			Traces [][]float64 `json:"traces"`
		}{traces})
	}
	n := len(traces[0])
	b := make([]byte, 8, 8+8*n*len(traces))
	binary.LittleEndian.PutUint32(b[0:], uint32(len(traces)))
	binary.LittleEndian.PutUint32(b[4:], uint32(n))
	for _, tr := range traces {
		for _, v := range tr {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b, nil
}

// expect decodes every request in process through ref and records the
// listing its response must match and its accuracy against the truth.
func expect(pool []*request, ref *core.Disassembler) error {
	for _, req := range pool {
		decs, err := ref.DisassembleScored(req.traces)
		if err != nil {
			return fmt.Errorf("in-process decode: %w", err)
		}
		req.decs = decs
		req.want = make([]string, len(decs))
		decoded := make([]core.Decoded, len(decs))
		for i, dec := range decs {
			req.want[i] = dec.Decoded.String()
			decoded[i] = dec.Decoded
		}
		wrong := map[int]bool{}
		for _, m := range core.CompareFlow(req.truth, decoded) {
			wrong[m.Index] = true
		}
		req.correct = len(decs) - len(wrong)
	}
	return nil
}

// configure wires a materialized Disassembler the way serve.Registry does at
// scdisd's defaults: automatic sparse mode and a drift monitor observer.
func configure(d *core.Disassembler) error {
	d.SetSparseModePreferred(core.SparseAuto)
	mon, err := d.NewDriftMonitor(driftConfig)
	if err != nil {
		return err
	}
	d.SetObserver(&core.InferenceObserver{Drift: mon})
	return nil
}

// fixture is one set-up: trained template files, generated traffic and a
// live server on a loopback listener.
type fixture struct {
	wl      workload
	dir     string         // scratch directory of this set-up, removed by close
	tplDir  string         // the directory the server scans
	images  [2]string      // two identical v4 files with different mtimes, linked in by deploy
	deploys map[string]int // per served name: deploys so far
	names   []string
	pool    []*request
	refTpl  *core.Template
	ref     *core.Disassembler // identically configured in-process decoder
	reg     *serve.Registry
	srv     *serve.Server
	coll    *obs.RuntimeCollector
	base    string // http://127.0.0.1:port
	served  chan error
	hc      *http.Client
}

// setup trains the workload's template, writes it as v4 file(s), generates
// the traffic, starts a server configured like cmd/scdisd at its default
// flags and warms it up. The returned fixture must be closed.
func setup(wl workload, sc scale, seed int64, scratch string) (f *fixture, err error) {
	// scdisd's process set-up: all CPUs, one registry, text logs (discarded
	// here, but formatted as on a terminal).
	parallel.SetWorkers(0)
	obs.SetDefault(obs.NewRegistry())
	if err := obs.SetupLogging("text", io.Discard, false); err != nil {
		return nil, err
	}
	f = &fixture{wl: wl, deploys: map[string]int{}}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if f.dir, err = os.MkdirTemp(scratch, "run-"); err != nil {
		return nil, err
	}
	f.tplDir = filepath.Join(f.dir, "templates")
	if err := os.Mkdir(f.tplDir, 0o755); err != nil {
		return nil, err
	}

	cfg := trainerConfig(sc, wl.regs, seed)
	d, err := core.TrainSubset(cfg, classes, wl.regs)
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	var buf bytes.Buffer
	if err := d.SaveStore(&buf, store.Options{}); err != nil {
		return nil, err
	}
	mtime := time.Now()
	for i := range f.images {
		f.images[i] = filepath.Join(f.tplDir, fmt.Sprintf(".image-%d", i))
		if err := os.WriteFile(f.images[i], buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
		if err := os.Chtimes(f.images[i], mtime, mtime.Add(time.Duration(i)*time.Second)); err != nil {
			return nil, err
		}
	}
	f.names = []string{"template"}
	if wl.fleet > 0 {
		f.names = make([]string, wl.fleet)
		for i := range f.names {
			f.names[i] = fmt.Sprintf("fleet%02d", i)
		}
	}
	for _, name := range f.names {
		if err := f.deploy(name); err != nil {
			return nil, err
		}
	}

	if f.refTpl, err = core.OpenTemplate(f.path(f.names[0])); err != nil {
		return nil, err
	}
	if f.ref, err = f.refTpl.Disassembler(); err != nil {
		return nil, err
	}
	if err := configure(f.ref); err != nil {
		return nil, err
	}
	if f.pool, err = genTraffic(wl, cfg, seed, f.names); err != nil {
		return nil, err
	}
	if err := expect(f.pool, f.ref); err != nil {
		return nil, err
	}

	if f.reg, err = serve.NewRegistry(f.tplDir, serve.RegistryConfig{Sparse: core.SparseAuto, Drift: driftConfig}); err != nil {
		return nil, err
	}
	f.srv = serve.NewServer(f.reg, serve.Config{
		MaxInFlight:     2,
		MaxQueue:        8,
		RetryAfter:      time.Second,
		TraceSampleRate: 0.01,
		DebugRequests:   128,
	})
	f.coll = obs.NewRuntimeCollector(obs.Default(), obs.DefaultRuntimeInterval)
	f.coll.AddSampler(f.reg.PublishMetrics)
	f.coll.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.base = "http://" + ln.Addr().String()
	f.served = make(chan error, 1)
	go func() { f.served <- f.srv.Serve(ln) }()
	f.hc = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2 * wl.clients,
		DisableCompression:  true,
	}}

	// Warm-up: every template materializes, every client connection opens.
	for i := 0; i < len(f.names)+4*wl.clients; i++ {
		if err := f.send(f.pool[i%len(f.pool)]); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return f, nil
}

func (f *fixture) path(name string) string {
	return filepath.Join(f.tplDir, name+serve.TemplateExt)
}

// deploy replaces a served template file the way a deploy should: create a
// temporary file, then rename it over the served one. The temporary file is
// a hard link to one of two identical images, alternating, so the served
// name gets a new inode and a new mtime (a reload marks it changed) while
// the benchmark writes no template bytes per round: the run times the
// server's reload path, not 16 × 3 MB of the benchmark's own writes and
// their writeback.
func (f *fixture) deploy(name string) error {
	tmp := filepath.Join(f.tplDir, "."+name+".tmp")
	f.deploys[name]++
	if err := os.Link(f.images[f.deploys[name]%2], tmp); err != nil {
		return err
	}
	return os.Rename(tmp, f.path(name))
}

// close stops the server and removes the set-up's files.
func (f *fixture) close() {
	if f.served != nil {
		// Every closed-loop client has finished; Shutdown only drops idle
		// keep-alive connections.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		f.srv.Shutdown(ctx)
		cancel()
		if err := <-f.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "scdisbench: server:", err)
		}
	}
	if f.hc != nil {
		f.hc.CloseIdleConnections()
	}
	if f.coll != nil {
		f.coll.Stop()
	}
	if f.reg != nil {
		f.reg.Close()
	}
	if f.refTpl != nil {
		f.refTpl.Close()
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}
