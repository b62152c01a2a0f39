package sidechannel

// Registry cold-start benchmarks: time to bring a template directory to
// serving-ready (NewRegistry scan + Get on every template). Get stops at
// each file's checksummed header and defers matrix materialization to the
// first decode; the materialized variant opens and materializes the same
// files whole, the cost every template would pay up front without the lazy
// split. Run
//
//	go test -bench=RegistryColdStart -benchmem -run=^$
//
// and compare against BENCH_store.json. The comparison gate
// (TestStoreColdStartBudget, part of `make bench-compare`) fails when the
// header-only cold start is not at least 10x cheaper than materializing the
// same 16 templates — the margin the lazy format exists for.

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
)

// storeBench lays out one directory of 16 copies of a serving-representative
// template once per process. dir is recorded as soon as it exists, so
// TestMain removes it even when a write into it failed.
var storeBench struct {
	once sync.Once
	dir  string
	err  error
}

// TestMain runs the package's tests and benchmarks, then removes the
// cold-start fixture directory (about 41 MB) if any of them laid it out.
func TestMain(m *testing.M) {
	code := m.Run()
	if storeBench.dir != "" {
		os.RemoveAll(storeBench.dir)
	}
	os.Exit(code)
}

const coldStartTemplates = 16

// storeBenchTemplate trains the fixture the cold-start comparison is run
// over. Unlike classifyFixture it enables the register levels: their 32-way
// kNN classifiers carry the training-set matrices that dominate
// materialization, exactly the payloads a serving registry would pay for on
// every template whether or not the first request needs them.
func storeBenchTemplate() (*core.Disassembler, error) {
	cfg := core.DefaultTrainerConfig()
	cfg.Programs = 3
	cfg.TracesPerProgram = 8
	cfg.RegisterPrograms = 3
	cfg.RegisterTracesPerProgram = 8
	cfg.Seed = 41
	return core.TrainSubset(cfg, AllClasses()[:2], true)
}

func storeBenchDir(b *testing.B) string {
	b.Helper()
	storeBench.once.Do(func() {
		d, err := storeBenchTemplate()
		if err != nil {
			storeBench.err = err
			return
		}
		dir, err := os.MkdirTemp("", "scdis-bench-v4-")
		if err != nil {
			storeBench.err = err
			return
		}
		storeBench.dir = dir
		for i := 0; i < coldStartTemplates; i++ {
			name := fmt.Sprintf("t%02d%s", i, serve.TemplateExt)
			if err := d.SaveStoreFile(filepath.Join(dir, name)); err != nil {
				storeBench.err = err
				return
			}
		}
	})
	if storeBench.err != nil {
		b.Fatal(storeBench.err)
	}
	return storeBench.dir
}

// BenchmarkRegistryColdStartV4 measures one full cold start per iteration:
// scan the directory, Get every template to serving-ready (header only),
// then Close (dropping the handles so iterations do not accumulate open
// descriptors across b.N).
func BenchmarkRegistryColdStartV4(b *testing.B) {
	dir := storeBenchDir(b)
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := serve.NewRegistry(dir, serve.RegistryConfig{Logger: logger})
		if err != nil {
			b.Fatal(err)
		}
		names := r.Names()
		if len(names) != coldStartTemplates {
			b.Fatalf("registry found %d templates, want %d", len(names), coldStartTemplates)
		}
		for _, name := range names {
			if _, err := r.Get(name); err != nil {
				b.Fatal(err)
			}
		}
		r.Close()
	}
}

// BenchmarkRegistryColdStartMaterialized opens and materializes the same 16
// files whole per iteration (core.OpenTemplate + Template.Disassembler) —
// the only full-load path, and what a cold start would cost if the registry
// materialized every template before serving.
func BenchmarkRegistryColdStartMaterialized(b *testing.B) {
	dir := storeBenchDir(b)
	paths, err := filepath.Glob(filepath.Join(dir, "*"+serve.TemplateExt))
	if err != nil {
		b.Fatal(err)
	}
	if len(paths) != coldStartTemplates {
		b.Fatalf("found %d templates, want %d", len(paths), coldStartTemplates)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range paths {
			tpl, err := core.OpenTemplate(p)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tpl.Disassembler(); err != nil {
				b.Fatal(err)
			}
			tpl.Close()
		}
	}
}

// TestStoreColdStartBudget is the store bench-compare gate: with
// BENCH_COMPARE=1 it measures both cold starts and fails when the
// header-only path is not at least 10x cheaper than materializing. The
// ratio is structural, not incidental: materialization must load and
// CRC-check every matrix section and rebuild restore-time state (Cholesky
// factors, kernel tables) for all 16 templates, while a header-only Get
// reads and CRC-checks only the small header region per file. Env-gated
// like the other timing gates — a timing assertion on a loaded machine is a
// flake, not a signal.
func TestStoreColdStartBudget(t *testing.T) {
	if os.Getenv("BENCH_COMPARE") == "" {
		t.Skip("set BENCH_COMPARE=1 (or run `make bench-compare`) to enable the cold-start gate")
	}
	const rounds = 3
	const minSpeedup = 10.0
	full := minNsPerOp(rounds, BenchmarkRegistryColdStartMaterialized)
	v4 := minNsPerOp(rounds, BenchmarkRegistryColdStartV4)
	speedup := full / v4
	fmt.Printf("bench-compare: cold start (%d templates) materialized %.0f ns/op, header-only %.0f ns/op, speedup %.1fx (floor %.0fx)\n",
		coldStartTemplates, full, v4, speedup, minSpeedup)
	if speedup < minSpeedup {
		t.Fatalf("header-only cold start is only %.1fx faster than materializing; the lazy header-open must be at least %.0fx", speedup, minSpeedup)
	}
}
