GO ?= go

.PHONY: build test race vet lint bench bench-compare fuzz-smoke cover verify

build:
	$(GO) build ./...

# -shuffle=on randomizes test (and subtest) execution order each run so
# order-dependent state leaks surface early; the seed is printed on failure
# and can be replayed with -shuffle=<seed>.
test:
	$(GO) test -shuffle=on ./...

# The race detector slows the CWT-heavy suites ~10x; raise the per-package
# timeout accordingly.
race:
	$(GO) test -race -shuffle=on -timeout 45m ./...

vet:
	$(GO) vet ./...

# vet plus staticcheck; staticcheck is skipped (with a note) when the binary
# is not on PATH so lint stays usable in minimal environments. CI always has
# it via the staticcheck action.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

bench:
	$(GO) test -run '^$$' -bench Pipeline -benchmem .

# Comparison gates: fail when the metrics+tracing path makes FitPipeline
# more than 3% slower than the nil-registry fast path, when decision
# recording (scored path + log + drift monitor) costs more than 3% over
# plain decoding and more than 5us/trace absolute, when sparse per-cell
# extraction loses its >=8x edge over the full-FFT Extract it replaces at
# inference (or grows past its allocation budget), or when a registry cold
# start (header-only opens) is not at least 10x cheaper than opening and
# materializing the same 16 templates.
bench-compare:
	BENCH_COMPARE=1 $(GO) test -run 'TestMetricsOverheadBudget|TestDecisionOverheadBudget|TestSparseSpeedupBudget|TestLabeledOverheadBudget|TestStoreColdStartBudget|TestTracingOverheadBudget' -v .

# Every native fuzz target, run briefly from its committed seed corpus. Go
# allows one -fuzz pattern per invocation, so iterate; -run '^$$' skips the
# package's unit tests so only fuzzing runs. FUZZTIME=10m for a real soak.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/avr
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeProgram$$' -fuzztime $(FUZZTIME) ./internal/avr
	$(GO) test -run '^$$' -fuzz '^FuzzAssemble$$' -fuzztime $(FUZZTIME) ./internal/avr
	$(GO) test -run '^$$' -fuzz '^FuzzValidateTrace$$' -fuzztime $(FUZZTIME) ./internal/power
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzOptionsFlagParsing$$' -fuzztime $(FUZZTIME) ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzParseTraceparent$$' -fuzztime $(FUZZTIME) ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzStoreOpen$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzReadTraces$$' -fuzztime $(FUZZTIME) ./internal/serve

# Coverage with a ratcheted floor: raise COVER_FLOOR when coverage improves,
# never lower it (measured 72.3% when last ratcheted). -short skips the e2e
# accuracy gate so the number reflects unit/property/oracle coverage and
# stays fast.
COVER_FLOOR ?= 71.0
cover:
	$(GO) test -short -shuffle=on -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || \
		{ echo "coverage $$total% fell below floor $(COVER_FLOOR)%"; exit 1; }

# The full gate: what CI runs and what a PR must pass.
verify: vet build test race
