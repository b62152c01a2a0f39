package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// ManifestSchemaVersion identifies the RunManifest JSON layout; bump it on
// incompatible changes so downstream dashboards can dispatch.
const ManifestSchemaVersion = 1

// BuildInfo pins the binary that produced a run: Go toolchain, main module
// path/version, and VCS state when the binary was built from a checkout.
type BuildInfo struct {
	GoVersion   string `json:"go_version"`
	Path        string `json:"path,omitempty"`
	Version     string `json:"version,omitempty"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
	NumCPU      int    `json:"num_cpu"`
}

// CollectBuildInfo fills a BuildInfo from debug.ReadBuildInfo and runtime.
func CollectBuildInfo() BuildInfo {
	b := BuildInfo{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU()}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	b.Path = info.Main.Path
	b.Version = info.Main.Version
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			b.VCSRevision = s.Value
		case "vcs.time":
			b.VCSTime = s.Value
		case "vcs.modified":
			b.VCSModified = s.Value == "true"
		}
	}
	return b
}

// RunManifest is the one JSON document a train/disassemble run emits: what
// ran (kind, config, build), what it saw (report: dataset shape, validation
// drops, selected points, PCA dims, per-level confusion), what it cost
// (metrics snapshot: cache hits/misses, transforms, worker busy time) and
// where the time went (trace: the span tree).
//
// Config and Report accept any JSON-encodable value; both are scrubbed of
// NaN/±Inf (replaced by null) before marshalling, and nested structs are
// rendered as key-sorted objects, so the document is deterministic and
// always valid JSON.
type RunManifest struct {
	SchemaVersion int            `json:"schema_version"`
	Kind          string         `json:"kind"`
	Build         BuildInfo      `json:"build"`
	Workers       int            `json:"workers,omitempty"`
	WallSeconds   float64        `json:"wall_seconds,omitempty"`
	CPUSeconds    float64        `json:"cpu_seconds,omitempty"`
	Config        any            `json:"config,omitempty"`
	Report        any            `json:"report,omitempty"`
	Metrics       *Snapshot      `json:"metrics,omitempty"`
	Trace         []*SpanNode    `json:"trace,omitempty"`
	TraceDropped  int64          `json:"trace_dropped,omitempty"`
	Notes         map[string]any `json:"notes,omitempty"`
}

// NewManifest returns a manifest of the given kind with build info filled.
func NewManifest(kind string) *RunManifest {
	return &RunManifest{
		SchemaVersion: ManifestSchemaVersion,
		Kind:          kind,
		Build:         CollectBuildInfo(),
	}
}

// MarshalIndent renders the manifest as indented JSON with Config/Report
// scrubbed of non-finite numbers.
func (m *RunManifest) MarshalIndent() ([]byte, error) {
	clean := *m
	clean.Config = Scrub(m.Config)
	clean.Report = Scrub(m.Report)
	clean.Notes = nil
	if len(m.Notes) > 0 {
		if s, ok := Scrub(m.Notes).(map[string]any); ok {
			clean.Notes = s
		}
	}
	b, err := json.MarshalIndent(&clean, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("obs: manifest marshal: %w", err)
	}
	return append(b, '\n'), nil
}

// WriteTo writes the manifest JSON to w.
func (m *RunManifest) WriteTo(w io.Writer) (int64, error) {
	b, err := m.MarshalIndent()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(b)
	return int64(n), err
}

// Scrub converts v into a JSON-encodable value tree with every NaN/±Inf
// replaced by nil (JSON null), so a degenerate statistic can never make the
// manifest invalid. Structs become maps keyed by their json tag (or field
// name), which encoding/json then serializes with sorted keys — a stable
// field order regardless of struct layout.
func Scrub(v any) any {
	if v == nil {
		return nil
	}
	return scrubValue(reflect.ValueOf(v))
}

func scrubValue(v reflect.Value) any {
	switch v.Kind() {
	case reflect.Invalid:
		return nil
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return nil
		}
		return scrubValue(v.Elem())
	case reflect.Float32, reflect.Float64:
		f := v.Float()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil
		}
		return f
	case reflect.Bool:
		return v.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return v.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return v.Uint()
	case reflect.String:
		return v.String()
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			return nil
		}
		out := make([]any, v.Len())
		for i := range out {
			out[i] = scrubValue(v.Index(i))
		}
		return out
	case reflect.Map:
		if v.IsNil() {
			return nil
		}
		out := make(map[string]any, v.Len())
		iter := v.MapRange()
		for iter.Next() {
			out[fmt.Sprint(iter.Key().Interface())] = scrubValue(iter.Value())
		}
		return out
	case reflect.Struct:
		if t, ok := v.Interface().(time.Time); ok {
			return t.Format(time.RFC3339Nano)
		}
		out := map[string]any{}
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			name := f.Name
			if tag, ok := f.Tag.Lookup("json"); ok {
				base, _, _ := strings.Cut(tag, ",")
				if base == "-" {
					continue
				}
				if base != "" {
					name = base
				}
			}
			out[name] = scrubValue(v.Field(i))
		}
		return out
	default:
		// Channels, funcs, complex: not representable; drop.
		return nil
	}
}
