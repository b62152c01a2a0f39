// Command scdis is the side-channel disassembler CLI.
//
// Subcommands:
//
//	scdis groups                     print the Table 2 instruction grouping
//	scdis asm "ADD r16, r17"         assemble one instruction to machine code
//	scdis decode 0F01 9040 0100      decode machine-code words to assembly
//	scdis demo                       train templates and disassemble a demo
//	                                 program from simulated power traces
//	scdis detect                     run the §5.7 malware-detection case study
//	scdis drift                      stream a control then a covariate-shifted
//	                                 phase through the classifier and report
//	                                 the drift monitor's verdict per phase
//
// Flags for demo/detect/drift: -programs, -traces, -seed scale the simulated
// profiling campaign; -workers N bounds the worker pool (0 = all CPUs).
// demo -save writes the trained templates as a v4 template file (replaced
// atomically), and demo -templates decodes with a saved one instead of
// training. Observability: -metrics-out/-trace-out/-manifest-out write
// end-of-run JSON artifacts, -log-format selects text or json logs, -pprof
// ADDR serves net/http/pprof plus /metrics, and a stage-timing table always
// lands on stderr after training. Inference quality:
// -decision-log/-decision-sample write sampled per-classification confidence
// records as JSONL, and -drift-window/-drift-warn/-drift-critical tune the
// covariate-shift monitor (its verdict lands on stderr and in the manifest).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/avr"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/power"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	// Ctrl-C / SIGTERM cancels the context; the train/disassemble pipelines
	// stop scheduling new work and return context.Canceled promptly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "groups":
		fmt.Print(experiments.Table2())
	case "asm":
		err = runAsm(args)
	case "decode":
		err = runDecode(args)
	case "demo":
		err = runDemo(ctx, args)
	case "detect":
		err = runDetect(ctx, args)
	case "drift":
		err = runDrift(ctx, args)
	case "trace":
		err = runTrace(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "scdis:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: scdis <groups|asm|decode|demo|detect|drift|trace> [args]")
	os.Exit(2)
}

func runAsm(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("asm needs an instruction string")
	}
	for _, line := range args {
		in, err := avr.Assemble(line)
		if err != nil {
			return err
		}
		words, err := in.Encode()
		if err != nil {
			return err
		}
		var hex []string
		for _, w := range words {
			hex = append(hex, fmt.Sprintf("%04X", w))
		}
		fmt.Printf("%-24s %s   (%s, %d cycle(s))\n", in, strings.Join(hex, " "),
			in.Class.Group(), avr.SpecOf(in.Class).Cycles)
	}
	return nil
}

func runDecode(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("decode needs hex words")
	}
	var words []uint16
	for _, a := range args {
		v, err := strconv.ParseUint(strings.TrimPrefix(a, "0x"), 16, 16)
		if err != nil {
			return fmt.Errorf("bad word %q: %v", a, err)
		}
		words = append(words, uint16(v))
	}
	prog, err := avr.DecodeProgram(words)
	if err != nil {
		return err
	}
	for _, in := range prog {
		fmt.Println(in)
	}
	return nil
}

func campaignFlags(fs *flag.FlagSet) (*int, *int, *uint64, *int, *obs.Options) {
	programs := fs.Int("programs", 4, "profiling program files per class")
	traces := fs.Int("traces", 20, "traces per program file")
	seed := fs.Uint64("seed", 1, "campaign seed")
	workers := fs.Int("workers", 0, "worker goroutines for training/disassembly (0 = all CPUs)")
	obsOpts := &obs.Options{}
	obsOpts.Register(fs)
	return programs, traces, seed, workers, obsOpts
}

// installObserver wires the session's inference-quality sinks into a trained
// disassembler, building the covariate-shift monitor from its training
// baseline. Templates that predate drift support carry no baseline; drift
// monitoring is then skipped with a notice instead of failing the run.
func installObserver(d *core.Disassembler, sess *obs.Session, opts *obs.Options) error {
	mon, err := d.NewDriftMonitor(opts.DriftConfig())
	switch {
	case err == nil:
		sess.Drift = mon
	case errors.Is(err, core.ErrNoDriftBaseline):
		fmt.Fprintln(os.Stderr, "scdis: templates predate drift support; covariate-shift monitoring disabled")
	default:
		return err
	}
	d.SetObserver(&core.InferenceObserver{
		Log:         sess.Decisions,
		Drift:       sess.Drift,
		Calibration: sess.Calibration,
	})
	return nil
}

// applyWorkers validates and installs the -workers flag value. Negative
// counts are a usage error, not something to silently clamp.
func applyWorkers(workers int) error {
	if workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = all CPUs), got %d", workers)
	}
	parallel.SetWorkers(workers)
	return nil
}

func runDemo(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	programs, traces, seed, workers, obsOpts := campaignFlags(fs)
	saveTo := fs.String("save", "", "write the trained templates to this file (v4 template store)")
	loadFrom := fs.String("templates", "", "load templates from this file instead of training")
	dumpTraces := fs.String("dump-traces", "", "write the first demo run's traces to this file as a JSON body ready to POST to scdisd")
	dumpListing := fs.String("dump-listing", "", "write the first demo run's decoded listing to this file, one instruction per line")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := applyWorkers(*workers); err != nil {
		return err
	}
	ctx, sess, err := obsOpts.Start(ctx)
	if err != nil {
		return err
	}
	cfg := core.DefaultTrainerConfig()
	cfg.Programs = *programs
	cfg.TracesPerProgram = *traces
	cfg.RegisterPrograms = *programs
	cfg.RegisterTracesPerProgram = *traces
	cfg.Seed = *seed

	classes := []avr.Class{avr.OpADD, avr.OpADC, avr.OpEOR, avr.OpMOV}
	var d *core.Disassembler
	var rep *core.TrainReport
	if *loadFrom != "" {
		if d, err = core.LoadFile(*loadFrom); err != nil {
			return err
		}
		fmt.Printf("loaded templates from %s\n", *loadFrom)
	} else {
		fmt.Printf("training templates for %d classes (%d programs x %d traces)...\n",
			len(classes), cfg.Programs, cfg.TracesPerProgram)
		var err error
		if d, rep, err = core.TrainSubsetReportCtx(ctx, cfg, classes, true); err != nil {
			return err
		}
		if *saveTo != "" {
			if err := d.SaveStoreFile(*saveTo); err != nil {
				return err
			}
			fmt.Printf("templates saved to %s\n", *saveTo)
		}
	}
	if err := installObserver(d, sess, obsOpts); err != nil {
		return err
	}
	program, err := avr.AssembleProgram(`
		MOV r20, r4
		ADD r20, r5
		ADC r21, r6
		EOR r20, r21
	`)
	if err != nil {
		return err
	}
	camp, err := power.NewCampaign(cfg.Power, 0, *seed+1000)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(int64(*seed) + 5))
	prog := power.NewProgramEnv(cfg.Power, *seed+1000, 2)
	var runs [][]core.Decoded
	for r := 0; r < 9; r++ {
		tr, err := camp.AcquireSegments(rng, prog, program)
		if err != nil {
			return err
		}
		decs, err := d.DisassembleCtx(ctx, tr)
		if err != nil {
			return err
		}
		runs = append(runs, decs)
		// The first run doubles as the serve-smoke fixture: the traces as a
		// ready-to-POST scdisd request body, and this process's decode of
		// them as the reference listing the server must match bitwise.
		if r == 0 {
			if *dumpTraces != "" {
				if err := writeJSONFile(*dumpTraces, struct {
					Traces [][]float64 `json:"traces"`
				}{tr}); err != nil {
					return err
				}
			}
			if *dumpListing != "" {
				if err := os.WriteFile(*dumpListing, []byte(core.Listing(decs)), 0o644); err != nil {
					return err
				}
			}
		}
	}
	fused, err := core.MajorityDecode(runs)
	if err != nil {
		return err
	}
	fmt.Println("\nexecuted program            recovered from power traces")
	for i, in := range program {
		fmt.Printf("  %-24s  %s\n", in.String(), fused[i].String())
	}
	manifest := sess.Manifest("demo", parallel.Workers())
	manifest.Config = cfg
	manifest.Report = rep
	return sess.Close(manifest, parallel.Workers())
}

// writeJSONFile writes v as JSON to path.
func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runDetect(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	programs, traces, seed, workers, obsOpts := campaignFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := applyWorkers(*workers); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	_, sess, err := obsOpts.Start(ctx)
	if err != nil {
		return err
	}
	sc := experiments.DefaultScale()
	sc.Programs = *programs
	sc.TracesPerProgram = *traces
	sc.Seed = *seed
	res, err := experiments.MalwareObserved(sc, func(d *core.Disassembler) error {
		return installObserver(d, sess, obsOpts)
	})
	if err != nil {
		return err
	}
	fmt.Print(res)
	manifest := sess.Manifest("detect", parallel.Workers())
	manifest.Config = sc
	manifest.Report = res
	return sess.Close(manifest, parallel.Workers())
}

// runDrift demonstrates the covariate-shift monitor end to end: train subset
// templates (capturing the drift baseline), stream a control phase of
// in-distribution traces, then a phase with an explicit DC offset and gain
// injected into every trace — the paper's §5.4 covariate shifts, which
// silently collapse accuracy without CSA. Each phase ends with a
// machine-greppable "DRIFT <phase> state=..." line for CI smoke checks.
func runDrift(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("drift", flag.ExitOnError)
	programs, traces, seed, workers, obsOpts := campaignFlags(fs)
	offset := fs.Float64("offset", 0.5, "DC offset added to every shifted-phase sample")
	gain := fs.Float64("gain", 1.2, "gain multiplying every shifted-phase sample")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := applyWorkers(*workers); err != nil {
		return err
	}
	ctx, sess, err := obsOpts.Start(ctx)
	if err != nil {
		return err
	}
	cfg := core.DefaultTrainerConfig()
	cfg.Programs = *programs
	cfg.TracesPerProgram = *traces
	cfg.Seed = *seed

	classes := []avr.Class{avr.OpADD, avr.OpADC, avr.OpEOR, avr.OpMOV}
	fmt.Printf("training templates for %d classes (%d programs x %d traces)...\n",
		len(classes), cfg.Programs, cfg.TracesPerProgram)
	d, rep, err := core.TrainSubsetReportCtx(ctx, cfg, classes, false)
	if err != nil {
		return err
	}
	if err := installObserver(d, sess, obsOpts); err != nil {
		return err
	}
	camp, err := power.NewCampaign(cfg.Power, 0, *seed+2000)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(int64(*seed) + 9))
	window := sess.Drift.Config().Window
	const batch = 4
	// A short in-subset decode up front exercises the scored path, so a
	// -decision-log run of this subcommand captures real records. Running it
	// before the phases means its traces age out of the drift window before
	// either phase snapshot is taken.
	warm := make([]avr.Instruction, 8)
	for i := range warm {
		warm[i] = avr.RandomOperands(rng, classes[rng.Intn(len(classes))])
	}
	warmProg := power.NewProgramEnv(cfg.Power, *seed+2000, 99)
	warmTraces, err := camp.AcquireTemplated(rng, warmProg, warm)
	if err != nil {
		return err
	}
	decs, err := d.DisassembleScoredCtx(ctx, warmTraces)
	if err != nil {
		return err
	}
	meanConf := 0.0
	for _, dec := range decs {
		meanConf += dec.Confidence
	}
	if len(decs) > 0 {
		meanConf /= float64(len(decs))
	}
	fmt.Printf("decoded %d in-subset traces, mean confidence %.3f\n", len(decs), meanConf)
	// The probe stream mirrors the training acquisition marginal: targets
	// drawn uniformly over all 8 groups with random operands, under a fresh
	// program environment per batch. Traces feed the monitor directly via
	// ObserveTrace — drift is a property of the input stream, so feeding
	// must not depend on the trained subset covering the probe's classes. A
	// fixed program (or a single environment) would read as drift by itself:
	// its instruction mix and environment draw differ from the training
	// marginal even under perfect acquisition conditions.
	envID := 100
	phase := func(name string, mutate func([]float64)) error {
		n := 0
		for n < window {
			prog := power.NewProgramEnv(cfg.Power, *seed+2000, envID)
			envID++
			targets := make([]avr.Instruction, batch)
			for i := range targets {
				g := avr.Group1 + avr.Group(rng.Intn(avr.NumGroups))
				members := avr.ClassesInGroup(g)
				targets[i] = avr.RandomOperands(rng, members[rng.Intn(len(members))])
			}
			tr, err := camp.AcquireTemplated(rng, prog, targets)
			if err != nil {
				return err
			}
			for _, t := range tr {
				if mutate != nil {
					mutate(t)
				}
				if err := d.ObserveTrace(t); err != nil {
					return err
				}
			}
			n += len(tr)
		}
		snap := sess.Drift.Snapshot()
		fmt.Printf("DRIFT %s state=%s score=%.4g max|z|=%.4g traces=%d\n",
			name, snap.State, snap.Score, snap.MaxZ, n)
		return nil
	}
	if err := phase("control", nil); err != nil {
		return err
	}
	if err := phase("shifted", func(t []float64) {
		for i := range t {
			t[i] = *gain*t[i] + *offset
		}
	}); err != nil {
		return err
	}
	manifest := sess.Manifest("drift", parallel.Workers())
	manifest.Config = cfg
	manifest.Report = rep
	return sess.Close(manifest, parallel.Workers())
}
