package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// DecisionLevel is one hierarchy level's scored outcome inside a
// DecisionRecord: which class won at that level, which class was the
// strongest competitor, and how decisively.
type DecisionLevel struct {
	// Level names the hierarchy stage: "group", "instr", "rd", "rr".
	Level string `json:"level"`
	// Label is the winning class index at this level.
	Label int `json:"label"`
	// RunnerUp is the second-best class index (-1 for single-class levels).
	RunnerUp int `json:"runner_up"`
	// Confidence is the winning class's normalized score in [0, 1].
	Confidence float64 `json:"confidence"`
	// Margin is Confidence minus the runner-up's score.
	Margin float64 `json:"margin"`
}

// DecisionRecord is the per-classification line of the JSONL decision log:
// the decoded text, the overall confidence, and the per-level breakdown.
type DecisionRecord struct {
	// Seq is the 1-based index of this decision among all decisions seen by
	// the log (including sampled-out ones), assigned by Record.
	Seq int64 `json:"seq"`
	// Text is the decoded instruction text (e.g. "ADD r1, r2").
	Text string `json:"text"`
	// Confidence is the product of the per-level confidences — the
	// probability the whole decision chain is right under independence.
	Confidence float64 `json:"confidence"`
	// Levels holds the per-hierarchy-level outcomes, outermost first.
	Levels []DecisionLevel `json:"levels"`
}

// DecisionLog writes sampled DecisionRecords as JSON Lines. It is safe for
// concurrent Record calls; a nil *DecisionLog is a valid no-op sink — the
// disabled fast path costs one nil check.
type DecisionLog struct {
	mu     sync.Mutex
	enc    *json.Encoder
	closer io.Closer
	sample int64
	seen   int64
}

// NewDecisionLog wraps w as a decision sink logging one in every sample
// records (sample <= 1 logs every record).
func NewDecisionLog(w io.Writer, sample int) *DecisionLog {
	if sample < 1 {
		sample = 1
	}
	return &DecisionLog{enc: json.NewEncoder(w), sample: int64(sample)}
}

// OpenDecisionLog creates (truncating) the JSONL file at path, with "-"
// selecting stdout. The file is closed by Close.
func OpenDecisionLog(path string, sample int) (*DecisionLog, error) {
	if path == "-" {
		return NewDecisionLog(os.Stdout, sample), nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: decision log: %w", err)
	}
	l := NewDecisionLog(f, sample)
	l.closer = f
	return l, nil
}

// RecordWith is Record for a record that is built only when the log keeps
// it: the decision is counted, and build runs and its record is encoded,
// only when the decision falls on the sampling stride. A sampled-out
// decision costs one count. build runs under the log's lock, so lines stay
// in Seq order across concurrent writers; it must not call into the log.
// No-op on a nil receiver.
func (l *DecisionLog) RecordWith(build func() DecisionRecord) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seen++
	obsMet().decisionsSeen.Inc()
	if (l.seen-1)%l.sample != 0 {
		return nil
	}
	obsMet().decisionsLogged.Inc()
	rec := build()
	rec.Seq = l.seen
	return l.enc.Encode(&rec)
}

// Seen returns how many decisions were offered to the log (0 for nil).
func (l *DecisionLog) Seen() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seen
}

// Close closes the underlying file when the log owns one. No-op on nil.
func (l *DecisionLog) Close() error {
	if l == nil || l.closer == nil {
		return nil
	}
	return l.closer.Close()
}

// obsMetrics holds the obs package's own instrument handles (span drops,
// decision log volume, drift state). The live set is swapped atomically by
// the OnDefault hook, so SetDefault can rebind while spans end and decisions
// record on other goroutines.
type obsMetrics struct {
	spansDropped    *Counter
	decisionsSeen   *Counter
	decisionsLogged *Counter
	driftWindows    *Counter
	driftScore      *Gauge
	driftZMax       *Gauge
	driftAlert      *Gauge
	driftScoreHist  *Histogram

	traceExported      *Counter
	traceExportDropped *Counter
	traceExportErrors  *Counter
	traceSampledKept   *CounterVec
}

var obsMetPtr atomic.Pointer[obsMetrics]

// obsMet returns the current handle set; never nil (before the init hook
// runs, or under a nil registry, the handles themselves are nil no-ops).
func obsMet() *obsMetrics {
	if m := obsMetPtr.Load(); m != nil {
		return m
	}
	return &obsMetrics{}
}

func init() {
	OnDefault(func(r *Registry) {
		obsMetPtr.Store(&obsMetrics{
			spansDropped:    r.Counter("obs.spans.dropped"),
			decisionsSeen:   r.Counter("obs.decisions.seen"),
			decisionsLogged: r.Counter("obs.decisions.logged"),
			driftWindows:    r.Counter("obs.drift.windows"),
			driftScore:      r.Gauge("obs.drift.score"),
			driftZMax:       r.Gauge("obs.drift.zmax"),
			driftAlert:      r.Gauge("obs.drift.alert"),
			driftScoreHist:  r.HistogramWith("obs.drift.score.window", UnitBuckets()),

			traceExported:      r.Counter("obs.trace.exported"),
			traceExportDropped: r.Counter("obs.trace.export.dropped"),
			traceExportErrors:  r.Counter("obs.trace.export.errors"),
			traceSampledKept:   r.CounterVec("obs.trace.sampled", "reason"),
		})
	})
}
