// Package sidechannel is a power side-channel instruction-level disassembler
// for AVR (ATMega328P-class) targets, reproducing Park et al., "Power-based
// Side-Channel Instruction-level Disassembler" (DAC 2018).
//
// The library recovers the executing instruction stream — opcode and
// register operands — from single power traces:
//
//	cfg := sidechannel.DefaultConfig()
//	d, report, err := sidechannel.Train(cfg)         // build templates
//	decoded, err := d.Disassemble(traces)            // traces -> assembly
//	fmt.Print(sidechannel.Listing(decoded))
//
// Since no oscilloscope bench is available in this environment, acquisition
// is simulated by a physics-inspired leakage model of the ATMega328P
// (16 MHz clock, 2.5 GS/s sampling, 315 samples per fetch+execute window);
// see the power subpackage. The full pipeline of the paper is implemented:
// continuous wavelet transform, Kullback–Leibler feature selection
// (distinct-and-not-varying points), PCA, LDA/QDA/SVM/naïve-Bayes
// classifiers, hierarchical group→instruction→register classification,
// majority voting, and covariate shift adaptation.
//
// The exported surface is a curated facade over the implementation packages;
// the type aliases below are fully usable by importers.
package sidechannel

import (
	"context"
	"io"
	"math/rand"

	"repro/internal/avr"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/parallel"
	"repro/internal/power"
)

// Core disassembler types.
type (
	// Config sizes and shapes the template-building campaign.
	Config = core.TrainerConfig
	// Disassembler holds trained hierarchical templates.
	Disassembler = core.Disassembler
	// Decoded is one instruction recovered from a power trace.
	Decoded = core.Decoded
	// TrainReport summarizes training accuracy per level.
	TrainReport = core.TrainReport
	// ClassifierKind selects the classification algorithm.
	ClassifierKind = core.ClassifierKind
	// FlowMismatch is one disagreement between golden and observed flows.
	FlowMismatch = core.FlowMismatch
)

// ISA model types.
type (
	// Instruction is one concrete AVR instruction (class + operands).
	Instruction = avr.Instruction
	// Class identifies one of the 112 profiled instruction classes.
	Class = avr.Class
	// Group is the Table 2 instruction-group partition.
	Group = avr.Group
	// Machine is the AVR functional simulator.
	Machine = avr.Machine
)

// Acquisition types.
type (
	// PowerConfig holds the leakage-model and scope parameters.
	PowerConfig = power.Config
	// Campaign drives simulated acquisition runs against one device.
	Campaign = power.Campaign
	// Dataset is a labeled trace collection.
	Dataset = power.Dataset
	// ProgramEnv is one program file's measurement environment.
	ProgramEnv = power.ProgramEnv
	// PipelineConfig controls CWT→KL→normalize→PCA feature extraction.
	PipelineConfig = features.PipelineConfig
	// ValidationReport counts traces rejected at ingestion, by defect kind.
	ValidationReport = power.ValidationReport
)

// Trace-validation sentinels, matchable with errors.Is against any error
// returned by Train/Classify/Disassemble. See the power package's failure
// model (DESIGN.md §7).
var (
	// ErrNonFiniteTrace marks a trace containing NaN or ±Inf samples.
	ErrNonFiniteTrace = power.ErrNonFiniteTrace
	// ErrConstantTrace marks a flat-lined (zero-variance) trace.
	ErrConstantTrace = power.ErrConstantTrace
	// ErrTraceLength marks a truncated or misaligned capture.
	ErrTraceLength = power.ErrTraceLength
	// ErrTemplateFormat marks a corrupted/unsupported template file in
	// LoadTemplates.
	ErrTemplateFormat = core.ErrTemplateFormat
)

// Classifier kinds accepted by Config.Classifier.
const (
	LDA        = core.ClassifierLDA
	QDA        = core.ClassifierQDA
	SVM        = core.ClassifierSVM
	NaiveBayes = core.ClassifierNB
	KNN        = core.ClassifierKNN
)

// DefaultConfig returns a laptop-scale training configuration with covariate
// shift adaptation enabled (the paper's best-practice pipeline).
func DefaultConfig() Config { return core.DefaultTrainerConfig() }

// SetWorkers bounds the worker pool used by the CWT, feature-selection,
// training, and disassembly stages. n <= 0 restores the default of
// runtime.NumCPU(). Results are identical at every setting — parallelism
// changes only wall-clock time, never output.
func SetWorkers(n int) { parallel.SetWorkers(n) }

// Workers reports the effective worker-pool size.
func Workers() int { return parallel.Workers() }

// DefaultPowerConfig returns the paper's acquisition parameters (16 MHz
// target, 2.5 GS/s scope, 315-sample traces).
func DefaultPowerConfig() PowerConfig { return power.DefaultConfig() }

// CSAPipeline returns the covariate-shift-adapted feature pipeline
// configuration of §5.5 (KLth 0.0005, per-trace normalization).
func CSAPipeline() PipelineConfig { return features.CSAPipelineConfig() }

// BasePipeline returns the unadapted pipeline of the initial experiments.
func BasePipeline() PipelineConfig { return features.DefaultPipelineConfig() }

// Train builds a full 112-class disassembler with register recovery.
func Train(cfg Config) (*Disassembler, *TrainReport, error) {
	return core.TrainCtx(context.Background(), cfg)
}

// TrainCtx is Train with cooperative cancellation: cancelling ctx stops the
// campaign from scheduling new work and returns ctx.Err() promptly. Work
// already in flight finishes; no partial state escapes.
func TrainCtx(ctx context.Context, cfg Config) (*Disassembler, *TrainReport, error) {
	return core.TrainCtx(ctx, cfg)
}

// TrainSubset builds a disassembler restricted to the given classes —
// useful for quick demonstrations.
func TrainSubset(cfg Config, classes []Class, withRegisters bool) (*Disassembler, error) {
	return TrainSubsetCtx(context.Background(), cfg, classes, withRegisters)
}

// TrainSubsetCtx is TrainSubset with cooperative cancellation.
func TrainSubsetCtx(ctx context.Context, cfg Config, classes []Class, withRegisters bool) (*Disassembler, error) {
	d, _, err := core.TrainSubsetReportCtx(ctx, cfg, classes, withRegisters)
	return d, err
}

// ValidateTrace checks one trace for the defects the pipeline rejects:
// wrong length (when wantLen > 0), non-finite samples, zero variance.
// The returned error wraps one of the sentinel errors above, or is nil.
func ValidateTrace(trace []float64, wantLen int) error {
	return power.ValidateTrace(trace, wantLen)
}

// Assemble parses one line of AVR assembly into an Instruction.
func Assemble(line string) (Instruction, error) { return avr.Assemble(line) }

// AssembleProgram assembles a newline-separated listing.
func AssembleProgram(src string) ([]Instruction, error) { return avr.AssembleProgram(src) }

// Listing renders decoded instructions as assembler text.
func Listing(decs []Decoded) string { return core.Listing(decs) }

// CompareFlow checks a recovered stream against the golden program.
func CompareFlow(golden []Instruction, observed []Decoded) []FlowMismatch {
	return core.CompareFlow(golden, observed)
}

// MajorityDecode fuses repeated disassemblies of the same stream.
func MajorityDecode(runs [][]Decoded) ([]Decoded, error) { return core.MajorityDecode(runs) }

// NewCampaign opens a simulated acquisition campaign against a device
// (device 0 is the golden profiling device).
func NewCampaign(cfg PowerConfig, deviceID int, seed uint64) (*Campaign, error) {
	return power.NewCampaign(cfg, deviceID, seed)
}

// NewProgramEnv derives the measurement environment of one program file.
func NewProgramEnv(cfg PowerConfig, seed uint64, id int) *ProgramEnv {
	return power.NewProgramEnv(cfg, seed, id)
}

// NewFieldProgramEnv derives a field (real-program) environment whose
// covariate shift is scaled by severity (≈5 reproduces the paper's
// practical-scenario difficulty).
func NewFieldProgramEnv(cfg PowerConfig, seed uint64, id int, severity float64) *ProgramEnv {
	return power.NewFieldProgramEnv(cfg, seed, id, severity)
}

// AllClasses returns the 112 profiled instruction classes.
func AllClasses() []Class { return avr.AllClasses() }

// ClassesInGroup returns the classes of one Table 2 group.
func ClassesInGroup(g Group) []Class { return avr.ClassesInGroup(g) }

// RandomInstruction returns a uniformly random, valid instruction of class c.
func RandomInstruction(rng *rand.Rand, c Class) Instruction {
	return avr.RandomOperands(rng, c)
}

// Groups (Table 2).
const (
	Group1 = avr.Group1
	Group2 = avr.Group2
	Group3 = avr.Group3
	Group4 = avr.Group4
	Group5 = avr.Group5
	Group6 = avr.Group6
	Group7 = avr.Group7
	Group8 = avr.Group8
)

// SaveTemplates persists a trained disassembler's template set to w as a
// v4 template store file. Profiling is the expensive step; saved templates
// reload instantly with LoadTemplates.
func SaveTemplates(d *Disassembler, w io.Writer) error { return d.SaveStore(w) }

// LoadTemplates restores a disassembler previously written by SaveTemplates.
// Gob files written by older builds are refused with ErrTemplateFormat.
func LoadTemplates(r io.Reader) (*Disassembler, error) { return core.Load(r) }
