package obs

import (
	"math"
	"sync"
)

// reliabilityBuckets is the number of equal-width confidence buckets over
// [0, 1] — ten is the conventional ECE binning.
const reliabilityBuckets = 10

// Reliability tracks how well confidence values track accuracy: a
// reliability histogram over confidence buckets plus the expected
// calibration error. Observations with ground truth (Observe) feed both;
// confidence-only observations (ObserveConfidence) feed the volume and mean
// confidence, supporting online monitoring where no labels exist. Safe for
// concurrent use; a nil *Reliability is a valid no-op sink.
type Reliability struct {
	mu      sync.Mutex
	count   [reliabilityBuckets]int64 // labeled observations per bucket
	correct [reliabilityBuckets]int64
	sumConf [reliabilityBuckets]float64

	total        int64 // all observations, labeled or not
	totalConf    float64
	totalCorrect int64
	labeled      int64
}

// NewReliability returns an empty tracker.
func NewReliability() *Reliability { return &Reliability{} }

// bucketOf maps a confidence to its bucket, clamping into [0, 1].
func bucketOf(conf float64) int {
	if math.IsNaN(conf) || conf <= 0 {
		return 0
	}
	if conf >= 1 {
		return reliabilityBuckets - 1
	}
	return int(conf * reliabilityBuckets)
}

// Observe records one ground-truth-labeled decision. No-op on nil.
func (r *Reliability) Observe(conf float64, correct bool) {
	if r == nil {
		return
	}
	if math.IsNaN(conf) {
		conf = 0
	}
	b := bucketOf(conf)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.count[b]++
	r.sumConf[b] += conf
	if correct {
		r.correct[b]++
		r.totalCorrect++
	}
	r.labeled++
	r.total++
	r.totalConf += conf
}

// Total returns how many decisions were observed at all (0 for nil).
func (r *Reliability) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

func (r *Reliability) eceLocked() float64 {
	if r.labeled == 0 {
		return 0
	}
	var ece float64
	for b := 0; b < reliabilityBuckets; b++ {
		n := float64(r.count[b])
		if n == 0 {
			continue
		}
		acc := float64(r.correct[b]) / n
		conf := r.sumConf[b] / n
		ece += n / float64(r.labeled) * math.Abs(acc-conf)
	}
	return ece
}

// ReliabilityBucket is one confidence bucket of a ReliabilitySnapshot.
type ReliabilityBucket struct {
	Lo             float64 `json:"lo"`
	Hi             float64 `json:"hi"`
	Count          int64   `json:"count"`
	Accuracy       float64 `json:"accuracy"`
	MeanConfidence float64 `json:"mean_confidence"`
}

// ReliabilitySnapshot is the JSON-serializable calibration summary.
type ReliabilitySnapshot struct {
	Total          int64               `json:"total"`
	Labeled        int64               `json:"labeled"`
	Accuracy       float64             `json:"accuracy"`
	MeanConfidence float64             `json:"mean_confidence"`
	ECE            float64             `json:"ece"`
	Buckets        []ReliabilityBucket `json:"buckets,omitempty"`
}

// Snapshot captures the tracker state; only non-empty buckets are included.
// Zero-valued on nil.
func (r *Reliability) Snapshot() ReliabilitySnapshot {
	if r == nil {
		return ReliabilitySnapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := ReliabilitySnapshot{
		Total:   r.total,
		Labeled: r.labeled,
		ECE:     r.eceLocked(),
	}
	if r.total > 0 {
		s.MeanConfidence = r.totalConf / float64(r.total)
	}
	if r.labeled > 0 {
		s.Accuracy = float64(r.totalCorrect) / float64(r.labeled)
	}
	for b := 0; b < reliabilityBuckets; b++ {
		if r.count[b] == 0 {
			continue
		}
		n := float64(r.count[b])
		s.Buckets = append(s.Buckets, ReliabilityBucket{
			Lo:             float64(b) / reliabilityBuckets,
			Hi:             float64(b+1) / reliabilityBuckets,
			Count:          r.count[b],
			Accuracy:       float64(r.correct[b]) / n,
			MeanConfidence: r.sumConf[b] / n,
		})
	}
	return s
}
