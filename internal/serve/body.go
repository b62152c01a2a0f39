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

// ReadTraces parses a decode request's body into a trace batch and checks
// every trace against the template's traceLen, so a malformed batch is
// rejected before any decode work starts. It is the handler's only body
// parser.
//
// A Content-Type whose media type is application/octet-stream (compared
// case-insensitively, parameters ignored) selects the packed little-endian
// frame: uint32 count, uint32 traceLen, then count*traceLen float64 samples.
// Any other body must be exactly the JSON object {"traces":[[n,…],…]}: one
// "traces" key spelled exactly so, whose value is null or an array of arrays
// of RFC 8259 numbers, with nothing but whitespace after the object.
//
// Bodies past maxBytes fail with an error wrapping *http.MaxBytesError.
func ReadTraces(r *http.Request, maxBytes int64, traceLen int) ([][]float64, error) {
	if r.ContentLength > maxBytes {
		return nil, fmt.Errorf("reading body: %w", &http.MaxBytesError{Limit: maxBytes})
	}
	body := http.MaxBytesReader(nil, r.Body, maxBytes)
	mediaType, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";")
	if strings.EqualFold(strings.TrimSpace(mediaType), "application/octet-stream") {
		return readBinaryTraces(body, maxBytes, traceLen)
	}
	buf, err := readBody(body, r.ContentLength)
	if err != nil {
		return nil, fmt.Errorf("reading JSON body: %w", err)
	}
	return parseTraces(buf, traceLen)
}

// readBody reads body whole into one buffer. Content-Length sizes the first
// allocation, up to maxBodyPrealloc; past that the buffer doubles as bytes
// arrive, so it never exceeds twice what was read.
func readBody(body io.Reader, contentLength int64) ([]byte, error) {
	// The MinRead slack leaves room for the final read that reports EOF, so
	// an honest Content-Length costs one allocation.
	buf := make([]byte, 0, min(max(contentLength, 0)+bytes.MinRead, maxBodyPrealloc))
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
			return nil, err
		}
	}
}

// readBinaryTraces parses the packed little-endian frame: uint32 count,
// uint32 traceLen, then count*traceLen float64 samples.
func readBinaryTraces(body io.Reader, maxBytes int64, traceLen int) ([][]float64, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(body, hdr[:]); err != nil {
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
	var traces [][]float64
	buf := make([]byte, 8*int(n))
	for i := 0; i < int(count); i++ {
		if _, err := io.ReadFull(body, buf); err != nil {
			return nil, fmt.Errorf("binary body: trace %d truncated: %w", i, err)
		}
		tr := make([]float64, n)
		for j := range tr {
			tr[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*j:]))
		}
		traces = append(traces, tr)
	}
	// Trailing bytes mean the header lied about the batch shape.
	extra, err := io.Copy(io.Discard, io.LimitReader(body, 1))
	if err != nil {
		return nil, fmt.Errorf("binary body: after declared batch: %w", err)
	}
	if extra > 0 {
		return nil, errors.New("binary body: trailing bytes after declared batch")
	}
	return traces, nil
}

// traceParser scans a JSON decode-request body in one pass, checking the
// grammar as it goes and converting each number where it stands.
type traceParser struct {
	buf []byte
	pos int
}

// parseTraces parses body as {"traces": null | [trace, …]} where each trace
// is an array of exactly traceLen numbers. Each trace is written straight
// into one slice and rejected as soon as its length is wrong.
func parseTraces(body []byte, traceLen int) ([][]float64, error) {
	p := traceParser{buf: body}
	if err := p.expect('{', `'{'`); err != nil {
		return nil, err
	}
	var traces [][]float64
	if !p.skip('}') {
		var err error
		if traces, err = p.member(traceLen); err != nil {
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
	if len(traces) == 0 {
		return nil, errEmptyBatch
	}
	return traces, nil
}

// member parses the object's one member, "traces": null | [trace, …]. The
// key must be exactly those bytes: no escapes, no case folding.
func (p *traceParser) member(traceLen int) ([][]float64, error) {
	p.skipSpace()
	if !bytes.HasPrefix(p.buf[p.pos:], []byte(`"traces"`)) {
		return nil, p.syntaxError(`the key "traces"`)
	}
	p.pos += len(`"traces"`)
	if err := p.expect(':', `':'`); err != nil {
		return nil, err
	}
	p.skipSpace()
	if bytes.HasPrefix(p.buf[p.pos:], []byte("null")) {
		p.pos += len("null")
		return nil, nil
	}
	if err := p.expect('[', `'[' or null`); err != nil {
		return nil, err
	}
	var traces [][]float64
	if p.skip(']') {
		return traces, nil
	}
	for {
		tr, err := p.trace(len(traces), traceLen)
		if err != nil {
			return nil, err
		}
		traces = append(traces, tr)
		if !p.skip(',') {
			break
		}
	}
	if err := p.expect(']', `',' or ']'`); err != nil {
		return nil, err
	}
	return traces, nil
}

// trace parses one [number, …] array of exactly traceLen numbers.
func (p *traceParser) trace(index, traceLen int) ([]float64, error) {
	if err := p.expect('[', `'[' opening a trace`); err != nil {
		return nil, err
	}
	// Every sample takes at least two bytes (a digit and a ',' or ']'), so
	// the bytes left bound how many can follow: a body cut short never gets
	// a whole trace's allocation, and a complete trace always fits.
	tr := make([]float64, 0, min(traceLen, (len(p.buf)-p.pos)/2))
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
