package main

import (
	"math"
	"sort"
	"strings"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans of one replayed request share req; parent indexes the enclosing span
// in the recorder (-1 for a root).
type span struct {
	name       string
	start, end time.Duration // since the recorder's epoch
	parent     int
	req        int
}

func (s span) dur() time.Duration { return s.end - s.start }

// layer is the span's layer: the name up to its first dot ("dsp.cells.rd"
// belongs to dsp).
func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i >= 0 {
		return s.name[:i]
	}
	return s.name
}

// recorder keeps every span in memory until the run ends. It is used from
// one goroutine only.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index for end.
func (r *recorder) begin(name string, parent, req int) int {
	r.spans = append(r.spans, span{name: name, start: time.Since(r.epoch), parent: parent, req: req})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) { r.spans[i].end = time.Since(r.epoch) }

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		var covered time.Duration
		cur := s.start // end of the covered prefix so far
		for _, k := range kids {
			lo, hi := max(spans[k].start, cur), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// durations collects the durations of every span with the given name, in
// microseconds.
func durationsUS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, us(s.dur()))
		}
	}
	return out
}

// childSum is the summed duration of span i's direct children.
func childSum(spans []span, i int) time.Duration {
	var sum time.Duration
	for _, s := range spans {
		if s.parent == i {
			sum += s.dur()
		}
	}
	return sum
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentile applies the reporting rule for latency_p99_ms: the 99th
// percentile (nearest rank) when at least ten samples lie beyond it,
// otherwise the highest percentile that leaves exactly ten beyond it, so the
// reported point moves smoothly with the sample count. It returns the
// percentile, its value and the sample count; with ten samples or fewer it
// falls back to the maximum.
func tailPercentile(xs []float64) (pct, value float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := nearestRank(99, n)
	if n-rank >= 10 {
		return 99, s[rank-1], n
	}
	if rank = n - 10; rank < 1 {
		return 100, s[n-1], n
	}
	return 100 * float64(rank) / float64(n), s[rank-1], n
}

// nearestRank is the 1-based rank of percentile p among n sorted samples.
// The small slack absorbs rounding in p*n/100.
func nearestRank(p float64, n int) int {
	return max(int(math.Ceil(p*float64(n)/100-1e-9)), 1)
}
