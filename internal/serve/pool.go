package serve

import (
	"bytes"
	"encoding/json"
	"sync"

	"repro/internal/obs"
)

// maxPooledBytes caps what one pooled batch or response buffer may hold: a
// larger one goes to the GC when its request ends, so one 256 MiB body
// cannot stay pinned for the life of the process.
const maxPooledBytes = 1 << 20

// recycler is a sync.Pool of *T that refuses objects past their retention
// cap. Objects go back only when their request returns normally: a request
// unwinding a panic may leave one still in use.
type recycler[T any] struct {
	pool sync.Pool
	keep func(*T) bool
}

func newRecycler[T any](fresh func() *T, keep func(*T) bool) *recycler[T] {
	return &recycler[T]{pool: sync.Pool{New: func() any { return fresh() }}, keep: keep}
}

func (r *recycler[T]) get() *T { return r.pool.Get().(*T) }

// put returns x to the pool unless it is past its cap, and reports whether
// it did. The caller must not use x afterwards.
func (r *recycler[T]) put(x *T) bool {
	if !r.keep(x) {
		return false
	}
	r.pool.Put(x)
	return true
}

// batches holds decode-request parse memory (traceBatch).
var batches = newRecycler(
	func() *traceBatch { return new(traceBatch) },
	func(b *traceBatch) bool { return b.retainedBytes() <= maxPooledBytes },
)

// responseBuffer is a decode response's encoding buffer with the encoder
// that writes into it.
type responseBuffer struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// responses holds decode-response encoding buffers.
var responses = newRecycler(
	func() *responseBuffer {
		rb := new(responseBuffer)
		rb.enc = json.NewEncoder(&rb.buf)
		return rb
	},
	func(rb *responseBuffer) bool { return rb.buf.Cap() <= maxPooledBytes },
)

// requestTracers holds the middleware's fine per-request tracers. A tracer
// that hit its span cap goes to the GC; one under it keeps at most
// traceMaxSpans span handles. The taker calls Reset.
var requestTracers = newRecycler(
	func() *obs.Tracer {
		t := obs.NewTracer()
		t.Fine = true
		t.MaxSpans = traceMaxSpans
		return t
	},
	func(t *obs.Tracer) bool { return t.Dropped() == 0 },
)
