// Command experiments regenerates the tables and figures of "Power-based
// Side-Channel Instruction-level Disassembler" (DAC 2018) against the
// simulated acquisition substrate.
//
// Usage:
//
//	experiments -run all
//	experiments -run table3 -programs 10 -csaprograms 19 -traces 300
//	experiments -run fig5a -pcs 3,5,10,20,43
//
// Experiments: table1 table2 fig2 fig3 fig4 fig5a fig5b fig6 table3 table4
// registers malware ablations all
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/parallel"
)

func main() {
	var (
		run      = flag.String("run", "all", "experiment to run (table1, table2, fig2, fig3, fig4, fig5a, fig5b, fig6, table3, table4, registers, malware, ablations, all)")
		programs = flag.Int("programs", 0, "profiling program files per class (default: experiment default)")
		csaProgs = flag.Int("csaprograms", 0, "program files under covariate shift adaptation")
		traces   = flag.Int("traces", 0, "traces per program file")
		test     = flag.Int("testtraces", 0, "field test traces per class")
		severity = flag.Float64("severity", 0, "field environment severity (default 5)")
		seed     = flag.Uint64("seed", 0, "campaign seed")
		paper    = flag.Bool("paper", false, "use the paper's acquisition scale (slow)")
		pcsFlag  = flag.String("pcs", "1,2,3,5,10,20,43", "principal-component sweep for fig5a/fig5b")
		varsFlag = flag.String("vars", "3,5,7,9", "variable counts for fig6")
		workers  = flag.Int("workers", 0, "worker goroutines for the feature/training pipeline (0 = all CPUs)")
		obsOpts  obs.Options
	)
	obsOpts.Register(flag.CommandLine)
	flag.Parse()
	if *workers < 0 {
		fatal(fmt.Errorf("-workers must be >= 0 (0 = all CPUs), got %d", *workers))
	}
	parallel.SetWorkers(*workers)

	// Ctrl-C / SIGTERM stops the run between experiments instead of leaving
	// a half-written results dump.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	ctx, sess, err := obsOpts.Start(ctx)
	if err != nil {
		fatal(err)
	}

	sc := experiments.DefaultScale()
	if *paper {
		sc = experiments.PaperScale()
	}
	if *programs > 0 {
		sc.Programs = *programs
	}
	if *csaProgs > 0 {
		sc.CSAPrograms = *csaProgs
	}
	if *traces > 0 {
		sc.TracesPerProgram = *traces
	}
	if *test > 0 {
		sc.TestTraces = *test
	}
	if *severity > 0 {
		sc.Severity = *severity
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	pcs, err := parseInts(*pcsFlag)
	if err != nil {
		fatal(err)
	}
	vars, err := parseInts(*varsFlag)
	if err != nil {
		fatal(err)
	}

	names := strings.Split(*run, ",")
	if *run == "all" {
		names = []string{"table2", "fig4", "fig2", "fig3", "fig5a", "fig5b", "fig6", "registers", "table3", "table4", "table1", "malware", "ablations"}
	}
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			fatal(fmt.Errorf("interrupted before %s: %w", name, err))
		}
		start := time.Now()
		out, err := dispatch(strings.TrimSpace(name), sc, pcs, vars)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Println(out)
		fmt.Printf("  [%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	manifest := sess.Manifest("experiments", parallel.Workers())
	manifest.Config = sc
	manifest.Notes = map[string]any{"experiments": names, "pcs": pcs, "vars": vars}
	if err := sess.Close(manifest, parallel.Workers()); err != nil {
		fatal(err)
	}
}

func dispatch(name string, sc experiments.Scale, pcs, vars []int) (fmt.Stringer, error) {
	switch name {
	case "table1":
		return experiments.Table1(sc)
	case "table2":
		return experiments.Table2(), nil
	case "fig2":
		return experiments.Fig2(sc)
	case "fig3":
		return experiments.Fig3(sc)
	case "fig4":
		return stringer(experiments.Fig4()), nil
	case "fig5a":
		return experiments.Fig5a(sc, pcs)
	case "fig5b":
		return experiments.Fig5b(sc, pcs)
	case "fig6":
		return experiments.Fig6(sc, vars)
	case "table3":
		return experiments.Table3(sc)
	case "table4":
		return experiments.Table4(sc)
	case "registers":
		return experiments.Registers(sc)
	case "malware":
		return experiments.Malware(sc)
	case "ablations":
		return runAblations(sc)
	default:
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
}

func runAblations(sc experiments.Scale) (fmt.Stringer, error) {
	var b strings.Builder
	a, err := experiments.AblationNoKLSelection(sc)
	if err != nil {
		return nil, err
	}
	b.WriteString(a.String())
	f, err := experiments.AblationFlatVsHierarchical(sc)
	if err != nil {
		return nil, err
	}
	b.WriteString(f.String())
	td, err := experiments.AblationTimeDomain(sc)
	if err != nil {
		return nil, err
	}
	b.WriteString(td.String())
	return stringer(b.String()), nil
}

type stringer string

func (s stringer) String() string { return string(s) }

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %v", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
