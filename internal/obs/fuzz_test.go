package obs

import (
	"encoding/hex"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/testkit"
)

// optionsEqual compares Options treating NaN float fields as equal to each
// other — flag.Float64Var accepts "NaN", which would otherwise make the
// projection check fail on itself.
func optionsEqual(a, b Options) bool {
	if math.IsNaN(a.DriftWarn) && math.IsNaN(b.DriftWarn) {
		a.DriftWarn, b.DriftWarn = 0, 0
	}
	if math.IsNaN(a.DriftCritical) && math.IsNaN(b.DriftCritical) {
		a.DriftCritical, b.DriftCritical = 0, 0
	}
	return a == b
}

// TestFuzzCorpusCommitted regenerates the committed seed corpora under
// testdata/fuzz when REGEN_FUZZ_CORPUS is set, and otherwise asserts they are
// present so the CI fuzz-smoke job always starts from real seeds.
func TestFuzzCorpusCommitted(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") != "" {
		testkit.WriteCorpus(t, "FuzzOptionsFlagParsing", "full_set",
			"-metrics-out\n-\n-log-format\njson")
		testkit.WriteCorpus(t, "FuzzOptionsFlagParsing", "pprof",
			"-pprof\nlocalhost:6060")
		testkit.WriteCorpus(t, "FuzzOptionsFlagParsing", "outputs",
			"-manifest-out\nrun.json\n-trace-out\ntrace.json")
		testkit.WriteCorpus(t, "FuzzOptionsFlagParsing", "bad_format",
			"-log-format\nbogus")
		testkit.WriteCorpus(t, "FuzzOptionsFlagParsing", "equals_form",
			"--metrics-out=out.json")
		testkit.WriteCorpus(t, "FuzzOptionsFlagParsing", "drift",
			"-decision-log\nd.jsonl\n-decision-sample\n4\n-drift-warn\n0.5\n-drift-window\n32")
		for _, r := range traceparentRows() {
			testkit.WriteCorpus(t, "FuzzParseTraceparent", r.name, r.header)
		}
		return
	}
	for _, target := range []string{"FuzzOptionsFlagParsing", "FuzzParseTraceparent"} {
		ents, err := os.ReadDir(filepath.Join("testdata", "fuzz", target))
		if err != nil || len(ents) == 0 {
			t.Errorf("no committed seed corpus for %s (REGEN_FUZZ_CORPUS=1 to create): %v", target, err)
		}
	}
}

// FuzzParseTraceparent drives the traceparent parser with arbitrary header
// values. Properties: no input panics; a rejected header yields zero values;
// an accepted one is at least 55 bytes, and its non-zero trace and parent IDs
// are the hex decode of bytes 3–35 and 36–52; and FormatTraceparent of what
// it returned parses back to the same values.
func FuzzParseTraceparent(f *testing.F) {
	for _, r := range traceparentRows() {
		f.Add(r.header)
	}
	f.Fuzz(func(t *testing.T, header string) {
		trace, parent, sampled, ok := ParseTraceparent(header)
		if !ok {
			if !trace.IsZero() || !parent.IsZero() || sampled {
				t.Fatalf("rejected %q but returned %s, %s, %v", header, trace, parent, sampled)
			}
			return
		}
		if len(header) < 55 {
			t.Fatalf("accepted %d-byte header %q", len(header), header)
		}
		if trace.IsZero() || parent.IsZero() {
			t.Fatalf("accepted %q with a zero ID", header)
		}
		var wantTrace TraceID
		var wantParent SpanID
		if _, err := hex.Decode(wantTrace[:], []byte(header[3:35])); err != nil || trace != wantTrace {
			t.Fatalf("%q: trace ID %s, bytes 3–35 decode to %s (%v)", header, trace, wantTrace, err)
		}
		if _, err := hex.Decode(wantParent[:], []byte(header[36:52])); err != nil || parent != wantParent {
			t.Fatalf("%q: parent ID %s, bytes 36–52 decode to %s (%v)", header, parent, wantParent, err)
		}
		out := FormatTraceparent(trace, parent, sampled)
		t2, p2, s2, ok2 := ParseTraceparent(out)
		if !ok2 || t2 != trace || p2 != parent || s2 != sampled {
			t.Fatalf("%q formatted as %q parses to (%s, %s, %v, %v)", header, out, t2, p2, s2, ok2)
		}
	})
}

// FuzzOptionsFlagParsing drives the shared CLI flag surface (the -metrics-out
// / -trace-out / -manifest-out / -log-format / -pprof set both binaries
// register) with arbitrary argument vectors, newline-separated. The parser
// must never panic, and any accepted argv must parse identically when the
// resulting Options are rendered back to flags — parsing is a projection.
func FuzzOptionsFlagParsing(f *testing.F) {
	f.Add("-metrics-out\n-\n-log-format\njson")
	f.Add("-pprof\nlocalhost:6060")
	f.Add("-manifest-out\nrun.json\n-trace-out\ntrace.json")
	f.Add("-log-format\nbogus")
	f.Add("-unknown-flag")
	f.Add("--metrics-out=out.json")
	f.Add("")
	f.Add("-metrics-out")
	f.Add("-decision-log\nd.jsonl\n-decision-sample\n4\n-drift-warn\n0.5\n-drift-window\n32")
	f.Fuzz(func(t *testing.T, argBlob string) {
		var args []string
		for _, a := range strings.Split(argBlob, "\n") {
			if a != "" {
				args = append(args, a)
			}
		}
		var o Options
		fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o.Register(fs)
		if err := fs.Parse(args); err != nil {
			return
		}
		if fs.NArg() > 0 {
			return // positional remainder; flag values may legitimately repeat there
		}

		canonical := []string{
			"-metrics-out", o.MetricsOut,
			"-trace-out", o.TraceOut,
			"-manifest-out", o.ManifestOut,
			"-log-format", o.LogFormat,
			"-pprof", o.PprofAddr,
			"-decision-log", o.DecisionLog,
			"-decision-sample", strconv.Itoa(o.DecisionSample),
			"-drift-window", strconv.Itoa(o.DriftWindow),
			"-drift-warn", strconv.FormatFloat(o.DriftWarn, 'g', -1, 64),
			"-drift-critical", strconv.FormatFloat(o.DriftCritical, 'g', -1, 64),
		}
		var o2 Options
		fs2 := flag.NewFlagSet("fuzz2", flag.ContinueOnError)
		fs2.SetOutput(io.Discard)
		o2.Register(fs2)
		if err := fs2.Parse(canonical); err != nil {
			t.Fatalf("re-rendered flags failed to parse: %v (from %q)", err, args)
		}
		if !optionsEqual(o, o2) {
			t.Fatalf("flag parse not a projection: %+v -> %+v (args %q)", o, o2, args)
		}

		// The log format gate must agree with SetupLogging's validation:
		// whatever parsed is either accepted or rejected deterministically,
		// never a panic. io.Discard keeps the process logger quiet.
		err := SetupLogging(o.LogFormat, io.Discard, false)
		validFormat := o.LogFormat == "" || o.LogFormat == "text" || o.LogFormat == "json"
		if (err == nil) != validFormat {
			t.Fatalf("SetupLogging(%q) = %v, validity says %v", o.LogFormat, err, validFormat)
		}
	})
}
