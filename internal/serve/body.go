package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// maxBodyPrealloc caps the read buffer sized from Content-Length before any
// body byte has arrived: a header that overstates the body costs at most this
// much, and a larger honest body grows the buffer as its bytes arrive.
const maxBodyPrealloc = 1 << 20

var errEmptyBatch = errors.New("empty batch: provide at least one trace")

// traceBatch owns the memory one decode request's body is parsed into: the
// read buffer and every trace's samples. The handler takes one from a pool
// and returns it once the response is written, so a warm request parses
// into the slices of an earlier one. A slice is reused only when it already
// has room for a whole trace; otherwise the parse allocates exactly as a
// fresh batch does, so a cold batch keeps the bounds of the DESIGN memory
// contract.
type traceBatch struct {
	body   []byte      // the JSON body, or a frame's one-trace read buffer
	header [8]byte     // a frame's header
	limit  limitReader // the body, capped at the request limit
	// traces is the last batch parsed; its slots up to cap keep the sample
	// slices of earlier, larger batches for reuse.
	traces [][]float64
}

// read parses a decode request's body into the batch and checks every
// trace against the template's traceLen, so a malformed batch is rejected
// before any decode work starts. It is the handler's only body parser. The
// traces it returns are the batch's own memory: valid until the batch's
// next read.
//
// A Content-Type whose media type is application/octet-stream (compared
// case-insensitively, parameters ignored) selects the packed little-endian
// frame: uint32 count, uint32 traceLen, then count*traceLen float64 samples.
// Any other body must be exactly the JSON object {"traces":[[n,…],…]}: one
// "traces" key spelled exactly so, whose value is null or an array of arrays
// of RFC 8259 numbers, with nothing but whitespace after the object.
//
// Bodies past maxBytes fail with an error wrapping *http.MaxBytesError.
func (b *traceBatch) read(r *http.Request, maxBytes int64, traceLen int) ([][]float64, error) {
	b.traces = b.traces[:0]
	if r.ContentLength > maxBytes {
		return nil, fmt.Errorf("reading body: %w", &http.MaxBytesError{Limit: maxBytes})
	}
	limit := max(maxBytes, 0) // as http.MaxBytesReader reads a negative limit
	b.limit = limitReader{r: r.Body, limit: limit, left: limit}
	defer func() { b.limit = limitReader{} }()
	mediaType, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";")
	if strings.EqualFold(strings.TrimSpace(mediaType), "application/octet-stream") {
		return b.readFrame(&b.limit, maxBytes, traceLen)
	}
	var err error
	if b.body, err = readBody(&b.limit, r.ContentLength, b.body); err != nil {
		return nil, fmt.Errorf("reading JSON body: %w", err)
	}
	return b.parseJSON(traceLen)
}

// spare returns the batch's slice at trace index i, emptied, when it has
// room for n samples, and nil otherwise.
func (b *traceBatch) spare(i, n int) []float64 {
	if i < cap(b.traces) {
		if tr := b.traces[:i+1][i]; cap(tr) >= n {
			return tr[:0]
		}
	}
	return nil
}

// retainedBytes is the memory the batch would keep in a pool: its read
// buffer, its sample slices and the slice headers that hold them.
func (b *traceBatch) retainedBytes() int {
	n := cap(b.body) + 24*cap(b.traces)
	for _, tr := range b.traces[:cap(b.traces)] {
		n += 8 * cap(tr)
	}
	return n
}

// limitReader is http.MaxBytesReader without its allocation: it reads at
// most limit bytes of r and fails every read past them with
// *http.MaxBytesError, reading the same bytes MaxBytesReader would.
type limitReader struct {
	r           io.Reader
	limit, left int64
	err         error // sticky
}

func (l *limitReader) Read(p []byte) (int, error) {
	if l.err != nil {
		return 0, l.err
	}
	if len(p) == 0 {
		return 0, nil
	}
	// One byte past the limit tells reaching it from passing it.
	if int64(len(p))-1 > l.left {
		p = p[:l.left+1]
	}
	n, err := l.r.Read(p)
	if int64(n) <= l.left {
		l.left -= int64(n)
		l.err = err
		return n, err
	}
	n = int(l.left)
	l.left = 0
	l.err = &http.MaxBytesError{Limit: l.limit}
	return n, l.err
}

// readBody reads body whole into buf, which it returns grown. Content-Length
// sizes the buffer, up to maxBodyPrealloc: buf is reused when it already
// holds that much and replaced by one allocation otherwise. Past that the
// buffer doubles as bytes arrive, so it never exceeds twice what was read.
func readBody(body io.Reader, contentLength int64, buf []byte) ([]byte, error) {
	// The MinRead slack leaves room for the final read that reports EOF, so
	// an honest Content-Length costs one allocation.
	if want := min(max(contentLength, 0)+bytes.MinRead, maxBodyPrealloc); int64(cap(buf)) < want {
		buf = make([]byte, 0, want)
	}
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, 2*cap(buf)), buf...)
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// readFrame parses the packed little-endian frame: uint32 count, uint32
// traceLen, then count*traceLen float64 samples.
func (b *traceBatch) readFrame(body io.Reader, maxBytes int64, traceLen int) ([][]float64, error) {
	hdr := b.header[:]
	if _, err := io.ReadFull(body, hdr); err != nil {
		return nil, fmt.Errorf("binary body: reading header: %w", err)
	}
	count := binary.LittleEndian.Uint32(hdr[0:4])
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if count == 0 {
		return nil, errEmptyBatch
	}
	if int(n) != traceLen || n == 0 {
		return nil, fmt.Errorf("binary header declares %d samples per trace, template expects %d", n, traceLen)
	}
	// The header is client-supplied: a declared batch past the body bound is
	// rejected before reading on. Division (not count*n*8 <= maxBytes) keeps
	// the comparison overflow-free.
	if perTrace := 8 * uint64(n); uint64(maxBytes) < 8 || uint64(count) > (uint64(maxBytes)-8)/perTrace {
		return nil, fmt.Errorf("binary header declares %d traces of %d samples, exceeding the %d-byte body limit", count, n, maxBytes)
	}
	// The batch slice grows as traces arrive, never from the declared count:
	// a header promising a large batch allocates nothing until its samples do.
	if cap(b.body) < 8*int(n) {
		b.body = make([]byte, 8*int(n))
	}
	buf := b.body[:8*int(n)]
	for i := 0; i < int(count); i++ {
		if _, err := io.ReadFull(body, buf); err != nil {
			return nil, fmt.Errorf("binary body: trace %d truncated: %w", i, err)
		}
		tr := b.spare(i, int(n))
		if tr == nil {
			tr = make([]float64, n)
		}
		tr = tr[:n]
		for j := range tr {
			tr[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*j:]))
		}
		b.traces = append(b.traces, tr)
	}
	// Trailing bytes mean the header lied about the batch shape. A read
	// error outranks a byte read with it, as in io.Copy.
	for {
		extra, err := body.Read(hdr[:1])
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("binary body: after declared batch: %w", err)
		}
		if extra > 0 {
			return nil, errors.New("binary body: trailing bytes after declared batch")
		}
		if err == io.EOF {
			return b.traces, nil
		}
	}
}

// traceParser scans a JSON decode-request body in one pass, checking the
// grammar as it goes and converting each number where it stands.
type traceParser struct {
	buf   []byte
	pos   int
	batch *traceBatch
}

// parseJSON parses the batch's body as {"traces": null | [trace, …]} where
// each trace is an array of exactly traceLen numbers. Each trace is written
// straight into one slice and rejected as soon as its length is wrong.
func (b *traceBatch) parseJSON(traceLen int) ([][]float64, error) {
	p := traceParser{buf: b.body, batch: b}
	if err := p.expect('{', `'{'`); err != nil {
		return nil, err
	}
	if !p.skip('}') {
		if err := p.member(traceLen); err != nil {
			return nil, err
		}
		// A second key, repeated or not, is a syntax error here.
		if err := p.expect('}', `'}' (the body holds only the "traces" key)`); err != nil {
			return nil, err
		}
	}
	p.skipSpace()
	if p.pos != len(p.buf) {
		return nil, p.syntaxError("end of body after the object")
	}
	if len(b.traces) == 0 {
		return nil, errEmptyBatch
	}
	return b.traces, nil
}

// member parses the object's one member, "traces": null | [trace, …], into
// the batch. The key must be exactly those bytes: no escapes, no case
// folding.
func (p *traceParser) member(traceLen int) error {
	p.skipSpace()
	if !bytes.HasPrefix(p.buf[p.pos:], []byte(`"traces"`)) {
		return p.syntaxError(`the key "traces"`)
	}
	p.pos += len(`"traces"`)
	if err := p.expect(':', `':'`); err != nil {
		return err
	}
	p.skipSpace()
	if bytes.HasPrefix(p.buf[p.pos:], []byte("null")) {
		p.pos += len("null")
		return nil
	}
	if err := p.expect('[', `'[' or null`); err != nil {
		return err
	}
	if p.skip(']') {
		return nil
	}
	b := p.batch
	for {
		tr, err := p.trace(len(b.traces), traceLen)
		if err != nil {
			return err
		}
		b.traces = append(b.traces, tr)
		if !p.skip(',') {
			break
		}
	}
	return p.expect(']', `',' or ']'`)
}

// trace parses one [number, …] array of exactly traceLen numbers.
func (p *traceParser) trace(index, traceLen int) ([]float64, error) {
	if err := p.expect('[', `'[' opening a trace`); err != nil {
		return nil, err
	}
	tr := p.batch.spare(index, traceLen)
	if tr == nil {
		// Every sample takes at least two bytes (a digit and a ',' or ']'),
		// so the bytes left bound how many can follow: a body cut short
		// never gets a whole trace's allocation, and a complete trace
		// always fits.
		tr = make([]float64, 0, min(traceLen, (len(p.buf)-p.pos)/2))
	}
	if !p.skip(']') {
		for {
			v, err := p.number()
			if err != nil {
				return nil, err
			}
			if len(tr) == traceLen {
				return nil, fmt.Errorf("trace %d has more than %d samples, template expects %d", index, traceLen, traceLen)
			}
			tr = append(tr, v)
			if !p.skip(',') {
				break
			}
		}
		if err := p.expect(']', `',' or ']'`); err != nil {
			return nil, err
		}
	}
	if len(tr) != traceLen {
		return nil, fmt.Errorf("trace %d has %d samples, template expects %d", index, len(tr), traceLen)
	}
	return tr, nil
}

// number scans one RFC 8259 number,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and converts it in the same
// pass. The scan builds the decimal mantissa and exponent by strconv's rules
// (19 mantissa digits and a truncation flag, zeros before the first
// significant digit only moving the point, exponent digits read while it is
// below 10 000), and atof64 converts them in strconv's order, with
// strconv.ParseFloat as the fallback. So samples are bit-identical to a
// json.Unmarshal into float64, and out-of-range values are rejected as there.
func (p *traceParser) number() (float64, error) {
	p.skipSpace()
	buf, i := p.buf, p.pos
	start := i
	neg := i < len(buf) && buf[i] == '-'
	if neg {
		i++
	}
	var d decimal
	// The decimal point's place, in digits after the first significant digit;
	// negative when zeros stand between the two.
	point := 0
	switch {
	case i < len(buf) && buf[i] == '0':
		i++
	case i < len(buf) && '1' <= buf[i] && buf[i] <= '9':
		first := i
		d, i = d.scan(buf, i)
		point = i - first
	default:
		p.pos = i
		return 0, p.syntaxError("a number")
	}
	if i < len(buf) && buf[i] == '.' {
		i++
		frac := i
		if d.kept == 0 {
			for i < len(buf) && buf[i] == '0' {
				i++
			}
			point = frac - i
		}
		if d, i = d.scan(buf, i); i == frac {
			p.pos = i
			return 0, p.syntaxError("a digit after '.'")
		}
	}
	if i < len(buf) && (buf[i] == 'e' || buf[i] == 'E') {
		i++
		eneg := i < len(buf) && buf[i] == '-'
		if eneg || i < len(buf) && buf[i] == '+' {
			i++
		}
		digits, e := i, 0
		for ; i < len(buf) && '0' <= buf[i] && buf[i] <= '9'; i++ {
			if e < 10000 {
				e = e*10 + int(buf[i]-'0')
			}
		}
		if i == digits {
			p.pos = i
			return 0, p.syntaxError("a digit in the exponent")
		}
		if eneg {
			e = -e
		}
		point += e
	}
	p.pos = i
	exp10 := 0
	if d.mant != 0 {
		exp10 = point - d.kept
	}
	if v, ok := atof64(d.mant, exp10, neg, d.trunc); ok {
		return v, nil
	}
	v, err := strconv.ParseFloat(string(buf[start:i]), 64)
	if err != nil {
		return 0, fmt.Errorf("invalid JSON body: number at byte %d: %w", start, err)
	}
	return v, nil
}

// skipSpace consumes JSON whitespace: space, tab, newline, carriage return.
func (p *traceParser) skipSpace() {
	for p.pos < len(p.buf) {
		switch p.buf[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// skipByte consumes c if it is the next byte.
func (p *traceParser) skipByte(c byte) bool {
	if p.pos < len(p.buf) && p.buf[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// skip consumes c if it is the next byte after whitespace.
func (p *traceParser) skip(c byte) bool {
	p.skipSpace()
	return p.skipByte(c)
}

// expect consumes c after whitespace or fails naming what was wanted.
func (p *traceParser) expect(c byte, want string) error {
	if p.skip(c) {
		return nil
	}
	return p.syntaxError(want)
}

// syntaxError names the byte at the scan position, or the end of the body,
// and what the grammar wanted there.
func (p *traceParser) syntaxError(want string) error {
	if p.pos >= len(p.buf) {
		return fmt.Errorf("invalid JSON body: unexpected end of body, want %s", want)
	}
	return fmt.Errorf("invalid JSON body: byte %d is %q, want %s", p.pos, p.buf[p.pos], want)
}
