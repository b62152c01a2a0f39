package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Tail-based sampling: the keep/drop decision happens after the request
// finishes, when status and duration are known — so every error, every shed
// request and every slow outlier is kept, and only the boring fast-and-OK
// majority is thinned probabilistically. Head sampling (decide at ingress)
// cannot do this: it drops the one request you wanted by the time it turns
// out slow.

// Sample-keep reasons, recorded on the exported trace and in the
// obs.trace.sampled{reason} counter.
const (
	KeepForced = "forced" // caller asked (traceparent sampled flag, ?trace=1)
	KeepError  = "error"  // 5xx status
	KeepShed   = "shed"   // 429 admission rejection
	KeepSlow   = "slow"   // duration above the live latency quantile
	KeepRandom = "random" // probabilistic keep of a healthy request
)

// TailSampler decides, after a request completes, whether its trace is worth
// keeping. Safe for concurrent Decide calls.
type TailSampler struct {
	// Rate is the probability of keeping a healthy (non-error, non-slow,
	// non-forced) trace, in [0, 1]. 0 keeps only interesting traces; 1 keeps
	// everything.
	Rate float64
	// SlowQuantile marks a request slow when its duration exceeds this
	// quantile of Latency (default 0.95 when Latency is set).
	SlowQuantile float64
	// Latency is the live latency histogram (seconds) the slow threshold is
	// read from. Nil disables the slow rule.
	Latency *Histogram
	// MinCount gates the slow rule until Latency holds at least this many
	// observations (default 64) — early in a process's life the quantile
	// estimate is noise and would mark everything slow.
	MinCount uint64

	rngState atomic.Uint64
}

// NewTailSampler returns a sampler keeping errors, shed requests, slow
// requests above the latency histogram's 95th percentile, and a rate-sized
// random fraction of the rest.
func NewTailSampler(rate float64, latency *Histogram) *TailSampler {
	s := &TailSampler{Rate: rate, SlowQuantile: 0.95, Latency: latency, MinCount: 64}
	s.rngState.Store(uint64(time.Now().UnixNano()) | 1)
	return s
}

// Decide returns whether to keep the trace of a finished request and the
// reason it was kept, counting kept traces into obs.trace.sampled{reason}.
// forced marks requests whose caller explicitly asked for the trace. A nil
// sampler keeps nothing but forced traces.
func (s *TailSampler) Decide(status int, dur time.Duration, forced bool) (bool, string) {
	keep, reason := s.decide(status, dur, forced)
	if keep {
		obsMet().traceSampledKept.With(reason).Inc()
	}
	return keep, reason
}

func (s *TailSampler) decide(status int, dur time.Duration, forced bool) (bool, string) {
	if forced {
		return true, KeepForced
	}
	if s == nil {
		return false, ""
	}
	if status >= 500 {
		return true, KeepError
	}
	if status == 429 {
		return true, KeepShed
	}
	if s.Latency != nil && s.Latency.Count() >= s.minCount() {
		q := s.SlowQuantile
		if q <= 0 || q >= 1 {
			q = 0.95
		}
		if thresh := s.Latency.Quantile(q); thresh > 0 && dur.Seconds() > thresh {
			return true, KeepSlow
		}
	}
	if s.Rate >= 1 {
		return true, KeepRandom
	}
	if s.Rate > 0 && s.randFloat() < s.Rate {
		return true, KeepRandom
	}
	return false, ""
}

func (s *TailSampler) minCount() uint64 {
	if s.MinCount == 0 {
		return 64
	}
	return s.MinCount
}

// randFloat draws a uniform value in [0, 1) from a lock-free xorshift64*
// stream — no global rand lock on the request path.
func (s *TailSampler) randFloat() float64 {
	for {
		old := s.rngState.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if s.rngState.CompareAndSwap(old, x) {
			return float64((x*0x2545F4914F6CDD1D)>>11) / float64(1<<53)
		}
	}
}

// TraceExporter writes sampled traces as JSONL from a dedicated goroutine
// behind a bounded queue: Export never blocks the request path — when the
// queue is full the trace is counted dropped and the request moves on.
type TraceExporter struct {
	mu     sync.RWMutex // guards closed vs. in-flight Export sends
	closed bool
	ch     chan ExportedTrace
	done   chan struct{}

	w        io.Writer
	closer   io.Closer
	dropped  atomic.Int64
	exported atomic.Int64
	errs     atomic.Int64
}

// NewTraceExporter starts an exporter writing one JSON object per line to w.
// queue bounds the number of traces buffered between the request path and
// the writer (default 256 when <= 0). When w is also an io.Closer, Close
// closes it.
func NewTraceExporter(w io.Writer, queue int) *TraceExporter {
	if queue <= 0 {
		queue = 256
	}
	e := &TraceExporter{
		w:    w,
		ch:   make(chan ExportedTrace, queue),
		done: make(chan struct{}),
	}
	if c, ok := w.(io.Closer); ok {
		e.closer = c
	}
	go e.run()
	return e
}

func (e *TraceExporter) run() {
	defer close(e.done)
	enc := json.NewEncoder(e.w)
	for tr := range e.ch {
		if err := enc.Encode(tr); err != nil {
			e.errs.Add(1)
			obsMet().traceExportErrors.Inc()
			continue
		}
		e.exported.Add(1)
		obsMet().traceExported.Inc()
	}
}

// Export enqueues one trace without blocking: a full queue or a closed
// exporter drops the trace (counted) and returns false. Nil-safe.
func (e *TraceExporter) Export(tr ExportedTrace) bool {
	if e == nil {
		return false
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return false
	}
	select {
	case e.ch <- tr:
		return true
	default:
		e.dropped.Add(1)
		obsMet().traceExportDropped.Inc()
		return false
	}
}

// Close stops accepting traces, drains the queue to the writer, and closes
// the underlying writer when it is a Closer. Safe to call more than once;
// nil-safe.
func (e *TraceExporter) Close() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		<-e.done
		return nil
	}
	e.closed = true
	close(e.ch)
	e.mu.Unlock()
	<-e.done
	if e.closer != nil {
		return e.closer.Close()
	}
	return nil
}
