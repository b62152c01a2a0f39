package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"mime"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/testkit"
)

// disassembleRequest is the JSON decode-request body as encoding/json sees
// it: test bodies are marshalled from it, and the oracle decodes into it.
type disassembleRequest struct {
	Traces [][]float64 `json:"traces"`
}

// benchTraceLen is the samples per trace of the default campaign's
// templates, the length scdisd serves in practice.
const benchTraceLen = 315

// oracleJSON decodes body the way the server did before it had its own
// parser: encoding/json with DisallowUnknownFields, then the batch checks.
func oracleJSON(body []byte, traceLen int) ([][]float64, error) {
	var req disassembleRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if len(req.Traces) == 0 {
		return nil, errEmptyBatch
	}
	for i, tr := range req.Traces {
		if len(tr) != traceLen {
			return nil, fmt.Errorf("trace %d has %d samples", i, len(tr))
		}
	}
	return req.Traces, nil
}

// oracleFrame decodes a packed frame by its definition: an 8-byte header
// and exactly count*traceLen little-endian float64 samples.
func oracleFrame(body []byte, traceLen int) ([][]float64, error) {
	if len(body) < 8 {
		return nil, errors.New("short header")
	}
	count := int(binary.LittleEndian.Uint32(body[0:4]))
	if count == 0 || int(binary.LittleEndian.Uint32(body[4:8])) != traceLen {
		return nil, errors.New("bad header")
	}
	if uint64(len(body)-8) != 8*uint64(count)*uint64(traceLen) {
		return nil, errors.New("body length does not match the header")
	}
	traces := make([][]float64, count)
	for i := range traces {
		traces[i] = make([]float64, traceLen)
		for j := range traces[i] {
			traces[i][j] = math.Float64frombits(binary.LittleEndian.Uint64(body[8+8*(i*traceLen+j):]))
		}
	}
	return traces, nil
}

func marshalBatch(batch [][]float64) []byte {
	b, err := json.Marshal(disassembleRequest{Traces: batch})
	if err != nil {
		panic(err)
	}
	return b
}

func encodeFrame(batch [][]float64) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(batch)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(batch[0])))
	for _, tr := range batch {
		for _, v := range tr {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

// frameHeader is a frame header alone: count traces of n samples declared,
// none sent.
func frameHeader(count, n uint32) []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, count), n)
}

// randomBatch draws traces of standard-normal samples, which marshal to
// about 19 bytes each, as captured power samples do.
func randomBatch(traces, traceLen int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	batch := make([][]float64, traces)
	for i := range batch {
		batch[i] = make([]float64, traceLen)
		for j := range batch[i] {
			batch[i][j] = rng.NormFloat64()
		}
	}
	return batch
}

// zeroBatchJSON is {"traces":[[0,0,…],…]}: two body bytes per sample, the
// densest samples the grammar allows.
func zeroBatchJSON(traces, traceLen int) []byte {
	row := "[" + strings.Repeat("0,", traceLen-1) + "0]"
	rows := make([]string, traces)
	for i := range rows {
		rows[i] = row
	}
	return []byte(`{"traces":[` + strings.Join(rows, ",") + "]}")
}

// ReadTraces parses a decode request's body into a fresh batch: the cold
// path of the handler's parser, which the memory contract bounds.
func ReadTraces(r *http.Request, maxBytes int64, traceLen int) ([][]float64, error) {
	return new(traceBatch).read(r, maxBytes, traceLen)
}

func readTracesBody(body []byte, contentType string, traceLen int) ([][]float64, error) {
	r := httptest.NewRequest(http.MethodPost, "/v1/disassemble/demo", bytes.NewReader(body))
	r.Header.Set("Content-Type", contentType)
	return ReadTraces(r, 1<<20, traceLen)
}

// sameBits reports whether two batches have the same shape and bit-identical
// samples (so -0 and 0 differ, as they must for served labels to match).
func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestReadTracesJSONGrammar pins the accepted JSON grammar against
// encoding/json. Accepted bodies must decode bit-identically to the oracle.
// Rows the oracle accepts but ReadTraces rejects are deliberate tightenings:
// a null sample the oracle reads as 0, bytes after the object, a key
// matched only by case folding or escapes, and a repeated key whose last
// value the oracle keeps.
func TestReadTracesJSONGrammar(t *testing.T) {
	const traceLen = 3
	cases := []struct {
		name   string
		body   string
		oracle bool   // oracleJSON accepts the body
		reject string // error fragment; empty means ReadTraces accepts
	}{
		{"compact", `{"traces":[[1,2,3],[4,5,6]]}`, true, ""},
		{"whitespace between every token", " \t\r\n{ \"traces\" :\n[ [ 1 ,\t-0 , 2.5e-3 ] ,\r\n[0.1,1E+2,-3e-2] ] } \n", true, ""},
		{"number forms", `{"traces":[[-0.0,0e0,123456789012345678901234567890],[1e-400,5e-324,1.7976931348623157e308],[0.1,-1E-0,9007199254740993]]}`, true, ""},
		{"null traces", `{"traces":null}`, false, "empty batch"},
		{"empty traces", `{"traces":[]}`, false, "empty batch"},
		{"empty object", `{}`, false, "empty batch"},
		{"short trace", `{"traces":[[1,2]]}`, false, "expects 3"},
		{"long trace", `{"traces":[[1,2,3,4]]}`, false, "expects 3"},
		{"empty trace", `{"traces":[[]]}`, false, "expects 3"},

		// Tightenings: encoding/json accepts these.
		{"null sample", `{"traces":[[null,2,3]]}`, true, "invalid JSON"},
		{"trailing junk", `{"traces":[[1,2,3]]} junk`, true, "invalid JSON"},
		{"second value", `{"traces":[[1,2,3]]}{"traces":[[1,2,3]]}`, true, "invalid JSON"},
		{"case-variant key", `{"TRACES":[[1,2,3]]}`, true, "invalid JSON"},
		{"escaped key", `{"tr\u0061ces":[[1,2,3]]}`, true, "invalid JSON"},
		{"repeated key", `{"traces":[[9,9,9]],"traces":[[1,2,3]]}`, true, "invalid JSON"},

		{"empty body", ``, false, "invalid JSON"},
		{"not json", `{not json`, false, "invalid JSON"},
		{"top-level array", `[[1,2,3]]`, false, "invalid JSON"},
		{"unknown key", `{"traces":[[1,2,3]],"x":1}`, false, "invalid JSON"},
		{"unterminated", `{"traces":[[1,2,3]]`, false, "invalid JSON"},
		{"missing colon", `{"traces" [[1,2,3]]}`, false, "invalid JSON"},
		{"trailing comma in trace", `{"traces":[[1,2,3,]]}`, false, "invalid JSON"},
		{"trailing comma in batch", `{"traces":[[1,2,3],]}`, false, "invalid JSON"},
		{"null trace", `{"traces":[null]}`, false, "invalid JSON"},
		{"nested trace", `{"traces":[[[1],2,3]]}`, false, "invalid JSON"},
		{"string sample", `{"traces":[["1",2,3]]}`, false, "invalid JSON"},
		{"leading zero", `{"traces":[[01,2,3]]}`, false, "invalid JSON"},
		{"bare point", `{"traces":[[1.,2,3]]}`, false, "invalid JSON"},
		{"leading point", `{"traces":[[.5,2,3]]}`, false, "invalid JSON"},
		{"plus sign", `{"traces":[[+1,2,3]]}`, false, "invalid JSON"},
		{"empty exponent", `{"traces":[[1e,2,3]]}`, false, "invalid JSON"},
		{"lone minus", `{"traces":[[-,2,3]]}`, false, "invalid JSON"},
		{"hex", `{"traces":[[0x10,2,3]]}`, false, "invalid JSON"},
		{"NaN", `{"traces":[[NaN,2,3]]}`, false, "invalid JSON"},
		{"Infinity", `{"traces":[[Infinity,2,3]]}`, false, "invalid JSON"},
		{"out of range", `{"traces":[[1e400,2,3]]}`, false, "out of range"},
		{"byte order mark", "\ufeff" + `{"traces":[[1,2,3]]}`, false, "invalid JSON"},
		{"vertical tab", "{\v\"traces\":[[1,2,3]]}", false, "invalid JSON"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, oerr := oracleJSON([]byte(c.body), traceLen)
			if (oerr == nil) != c.oracle {
				t.Fatalf("oracle verdict drifted: err = %v", oerr)
			}
			got, err := readTracesBody([]byte(c.body), "application/json", traceLen)
			if c.reject != "" {
				if err == nil || !strings.Contains(err.Error(), c.reject) {
					t.Fatalf("err = %v, want one containing %q", err, c.reject)
				}
				return
			}
			if err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if !sameBits(got, want) {
				t.Fatalf("samples differ from encoding/json:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestServeBodyOverLimitIs413 pins the over-limit status: a body past
// MaxBodyBytes is 413 naming the limit, on the JSON path whether or not the
// client sent a Content-Length, and on the frame path when bytes follow a
// batch that exactly fills the limit. A frame header that only declares too
// large a batch stays a 400.
func TestServeBodyOverLimitIs413(t *testing.T) {
	fixture(t)
	limit := int64(8 + 8*fx.traceLen) // exactly one framed trace
	_, url := newTestServer(t, RegistryConfig{}, Config{MaxBodyBytes: limit})
	post := func(contentType string, body io.Reader) (int, string) {
		t.Helper()
		resp, err := http.Post(url+"/v1/disassemble/demo", contentType, body)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var ae apiError
		if err := json.Unmarshal(data, &ae); err != nil {
			t.Fatalf("error body not structured JSON: %s", data)
		}
		return resp.StatusCode, ae.Error
	}
	limitText := strconv.FormatInt(limit, 10)
	jsonBatch := marshalBatch(fx.traces)
	frameOne := encodeFrame(fx.traces[:1])

	for _, c := range []struct {
		name, contentType string
		body              io.Reader
		status            int
		frag              string
	}{
		{"json with Content-Length", "application/json", bytes.NewReader(jsonBatch), http.StatusRequestEntityTooLarge, limitText},
		// io.MultiReader hides the length, so the client sends it chunked.
		{"json chunked", "application/json", io.MultiReader(bytes.NewReader(jsonBatch)), http.StatusRequestEntityTooLarge, limitText},
		{"frame with trailing bytes past the limit", "application/octet-stream", io.MultiReader(bytes.NewReader(frameOne), strings.NewReader("x")), http.StatusRequestEntityTooLarge, limitText},
		{"frame declaring too large a batch", "application/octet-stream", bytes.NewReader(frameHeader(2, uint32(fx.traceLen))), http.StatusBadRequest, "body limit"},
	} {
		status, msg := post(c.contentType, c.body)
		if status != c.status || !strings.Contains(msg, c.frag) {
			t.Errorf("%s: %d %q, want %d with %q", c.name, status, msg, c.status, c.frag)
		}
	}
	// A frame that exactly fills the limit is served.
	if status, msg := post("application/octet-stream", bytes.NewReader(frameOne)); status != http.StatusOK {
		t.Fatalf("frame at the limit: %d %q", status, msg)
	}
}

// TestServeFrameMediaTypeParameters pins the Content-Type match: the media
// type alone selects the frame parser, case-insensitively, whatever
// parameters follow it.
func TestServeFrameMediaTypeParameters(t *testing.T) {
	_, url := newTestServer(t, RegistryConfig{}, Config{})
	frame := encodeFrame(fx.traces)
	for _, ct := range []string{
		"application/octet-stream; charset=binary",
		"Application/Octet-Stream",
		" application/octet-stream ;foo=bar",
	} {
		resp, err := http.Post(url+"/v1/disassemble/demo", ct, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("Content-Type %q: status %d: %s", ct, resp.StatusCode, data)
		}
		texts, _ := decodeTexts(t, data)
		for i := range texts {
			if texts[i] != fx.want[i] {
				t.Fatalf("Content-Type %q: decode %d = %q, want %q", ct, i, texts[i], fx.want[i])
			}
		}
	}
}

// allocBound is ReadTraces' memory contract: at most 8 bytes allocated per
// body byte, plus one trace's samples (the frame parser's read buffer) and
// 2 KiB of fixed cost, plus — only when Content-Length overstates the body —
// the read buffer sized from it, at most maxBodyPrealloc.
func allocBound(bodyLen, traceLen int, contentLength int64) int64 {
	bound := 8*int64(bodyLen) + 8*int64(traceLen) + 2048
	if contentLength > int64(bodyLen) {
		bound += min(contentLength, maxBodyPrealloc)
	}
	return bound
}

// TestReadTracesAllocationBound holds ReadTraces to allocBound on realistic
// bodies, with and without a Content-Length, and adversarial ones: the
// densest JSON samples, a body cut mid-trace, a Content-Length far above the
// bytes sent, deep nesting, and a frame header declaring a ~256 MiB batch
// with no samples behind it.
func TestReadTracesAllocationBound(t *testing.T) {
	const traceLen = benchTraceLen
	const maxBytes = 256 << 20 // Config's default body limit
	zeros := zeroBatchJSON(64, traceLen)
	cases := []struct {
		name, contentType string
		body              []byte
		contentLength     int64 // 0: the body's own length; -1: unknown
	}{
		{"json 64 random traces", "application/json", marshalBatch(randomBatch(64, traceLen, 1)), 0},
		{"json 64 random traces without Content-Length", "application/json", marshalBatch(randomBatch(64, traceLen, 1)), -1},
		{"json 64 traces of zeros", "application/json", zeros, 0},
		{"json zeros cut mid-trace", "application/json", zeros[:len(zeros)/2], 0},
		{"json Content-Length far above the body", "application/json", zeros[:1000], 200 << 20},
		{"json deep nesting", "application/json", append([]byte(`{"traces":`), bytes.Repeat([]byte("["), 100000)...), 0},
		{"frame 64 random traces", "application/octet-stream", encodeFrame(randomBatch(64, traceLen, 2)), 0},
		{"frame header declaring 106522 traces", "application/octet-stream", frameHeader(106522, traceLen), 0},
	}
	for _, c := range cases {
		const runs = 20
		reqs := make([]*http.Request, runs)
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/disassemble/demo", bytes.NewReader(c.body))
			reqs[i].Header.Set("Content-Type", c.contentType)
			if c.contentLength != 0 {
				reqs[i].ContentLength = c.contentLength
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, r := range reqs {
			_, _ = ReadTraces(r, maxBytes, traceLen) // adversarial bodies fail; only allocation counts here
		}
		runtime.ReadMemStats(&after)
		perParse := int64(after.TotalAlloc-before.TotalAlloc) / runs
		bound := allocBound(len(c.body), traceLen, c.contentLength)
		t.Logf("%s: %d body bytes, %d allocated (%.2f per body byte), bound %d", c.name, len(c.body), perParse, float64(perParse)/float64(len(c.body)), bound)
		if perParse > bound {
			t.Errorf("%s: %d bytes allocated per parse of a %d-byte body, bound %d", c.name, perParse, len(c.body), bound)
		}
	}
}

// readTracesSeed is one FuzzReadTraces input.
type readTracesSeed struct {
	body        []byte
	contentType string
	traceLen    uint16
}

// readTracesSeeds are the seed corpus of FuzzReadTraces, shared by the
// committed corpus and the in-process f.Add calls: valid bodies of both
// encodings, each grammar tightening, number edge cases, and the frame
// shapes the header screens exist for.
func readTracesSeeds() map[string]readTracesSeed {
	const js, bin = "application/json", "application/octet-stream"
	valid := [][]float64{{1, -0.5, 2.5e-3}, {0.1, 1e100, -3e-300}}
	return map[string]readTracesSeed{
		"json_valid":        {marshalBatch(valid), js, 3},
		"json_spaced":       {[]byte(" { \"traces\" :\n[ [1, -0 ,2e1 ] ,\t[0.5,1E+2,-3e-2]\r] } "), js, 3},
		"json_number_forms": {[]byte(`{"traces":[[-0.0,0e0,123456789012345678901234567890,1e-400,5e-324,1.7976931348623157e308]]}`), js, 6},
		"json_realistic":    {marshalBatch(randomBatch(1, benchTraceLen, 3)), js, benchTraceLen},
		// One per conversion branch past Eisel–Lemire's first product: more
		// than 19 digits confirmed by mant+1, exact and cut halfway points
		// it cannot decide, and subnormals and underflow it leaves to
		// strconv.ParseFloat.
		"json_truncated":    {[]byte(`{"traces":[[0.1000000000000000055511151231257827021181583404541015625,123456789012345678901234567890e-10,-3558481.322532862657681107521057128906257]]}`), js, 3},
		"json_halfway":      {[]byte(`{"traces":[[9007199254740993,1.00000000000000011102230246251565404236316680908203125,1.000000000000000111022302462515654042363166809082031250001]]}`), js, 3},
		"json_fallback":     {[]byte(`{"traces":[[5e-324,2.2250738585072011e-308,1e-400,-4.9406564584124654e-324]]}`), js, 4},
		"json_null_sample":  {[]byte(`{"traces":[[null,2,3]]}`), js, 3},
		"json_trailing":     {[]byte(`{"traces":[[1,2,3]]} junk`), js, 3},
		"json_second_value": {[]byte(`{"traces":[[1,2,3]]}{}`), js, 3},
		"json_upper_key":    {[]byte(`{"TRACES":[[1,2,3]]}`), js, 3},
		"json_escaped_key":  {[]byte(`{"tr\u0061ces":[[1,2,3]]}`), js, 3},
		"json_repeated_key": {[]byte(`{"traces":[[9,9,9]],"traces":[[1,2,3]]}`), js, 3},
		"json_null_traces":  {[]byte(`{"traces":null}`), js, 3},
		"json_out_of_range": {[]byte(`{"traces":[[1e400,2,3]]}`), js, 3},
		"json_bad_numbers":  {[]byte(`{"traces":[[01,1.,.5,+1,1e,-]]}`), js, 6},
		"json_deep_nesting": {[]byte(`{"traces":` + strings.Repeat("[", 64)), js, 3},
		"frame_valid":       {encodeFrame(valid), bin, 3},
		"frame_params":      {encodeFrame(valid), "Application/Octet-Stream; charset=binary", 3},
		"frame_trailing":    {append(encodeFrame(valid), 0), bin, 3},
		"frame_truncated":   {encodeFrame(valid)[:30], bin, 3},
		"frame_huge_count":  {frameHeader(math.MaxUint32, 3), bin, 3},
	}
}

// TestReadTracesFuzzCorpusCommitted regenerates the committed
// FuzzReadTraces seed corpus under testdata/fuzz when REGEN_FUZZ_CORPUS is
// set, and otherwise asserts it is present.
func TestReadTracesFuzzCorpusCommitted(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") != "" {
		for name, s := range readTracesSeeds() {
			testkit.WriteCorpus(t, "FuzzReadTraces", name, s.body, s.contentType, s.traceLen)
		}
		return
	}
	ents, err := os.ReadDir(filepath.Join("testdata", "fuzz", "FuzzReadTraces"))
	if err != nil || len(ents) == 0 {
		t.Errorf("no committed seed corpus for FuzzReadTraces (REGEN_FUZZ_CORPUS=1 to create): %v", err)
	}
}

// FuzzReadTraces drives ReadTraces with arbitrary bodies, Content-Types and
// template lengths. Properties: no input panics; an accepted body has at
// least one trace and every trace exactly traceLen samples; it is accepted
// by the oracle of the encoding its media type names (encoding/json with
// DisallowUnknownFields, or the frame's definition) with bit-identical
// samples. And from every input a valid batch is derived whose json.Marshal
// output, with random whitespace between tokens, and whose frame must both
// be accepted unchanged.
func FuzzReadTraces(f *testing.F) {
	for _, s := range readTracesSeeds() {
		f.Add(s.body, s.contentType, s.traceLen)
	}
	warmFrame := encodeFrame(randomBatch(64, benchTraceLen, 4))
	warmJSON := marshalBatch(randomBatch(1, benchTraceLen, 5))
	f.Fuzz(func(t *testing.T, body []byte, contentType string, n uint16) {
		traceLen := 1 + int(n-1)%512 // 1..512; a seed's n is its traceLen
		got, err := readTracesBody(body, contentType, traceLen)

		// A pooled batch that already parsed differently shaped bodies
		// parses the input exactly as a fresh one does.
		warm := new(traceBatch)
		if _, werr := readBatch(warm, warmFrame, "application/octet-stream", benchTraceLen); werr != nil {
			t.Fatal(werr)
		}
		if _, werr := readBatch(warm, warmJSON, "application/json", benchTraceLen); werr != nil {
			t.Fatal(werr)
		}
		again, aerr := readBatch(warm, body, contentType, traceLen)
		if msg := sameParse(got, err, again, aerr); msg != "" {
			t.Fatalf("reused batch: %s", msg)
		}
		if err == nil {
			if len(got) == 0 {
				t.Fatal("accepted an empty batch")
			}
			for i, tr := range got {
				if len(tr) != traceLen {
					t.Fatalf("accepted trace %d with %d samples, template expects %d", i, len(tr), traceLen)
				}
			}
			oracle := oracleJSON
			if mt, _, _ := mime.ParseMediaType(contentType); mt == "application/octet-stream" {
				oracle = oracleFrame
			}
			want, oerr := oracle(body, traceLen)
			if oerr != nil {
				t.Fatalf("accepted a body the oracle rejects: %v", oerr)
			}
			if !sameBits(got, want) {
				t.Fatal("accepted samples differ from the oracle's")
			}
		}

		h := fnv.New64a()
		h.Write(body)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		batch := fuzzBatch(rng, traceLen)
		spaced := insertWhitespace(rng, marshalBatch(batch))
		if got, err := readTracesBody(spaced, "application/json", traceLen); err != nil || !sameBits(got, batch) {
			t.Fatalf("marshalled batch not read back unchanged (err %v):\n%s", err, spaced)
		}
		if got, err := readTracesBody(encodeFrame(batch), "application/octet-stream", traceLen); err != nil || !sameBits(got, batch) {
			t.Fatalf("framed batch not read back unchanged: %v", err)
		}
	})
}

// readBatch parses body through b, as the handler does with a pooled batch.
func readBatch(b *traceBatch, body []byte, contentType string, traceLen int) ([][]float64, error) {
	r := httptest.NewRequest(http.MethodPost, "/v1/disassemble/demo", bytes.NewReader(body))
	r.Header.Set("Content-Type", contentType)
	return b.read(r, 1<<20, traceLen)
}

// sameParse compares a fresh parse with a reused batch's parse of the same
// body: the same samples bit for bit, or the same error text. It returns
// what differs, or "" when nothing does.
func sameParse(want [][]float64, wantErr error, got [][]float64, gotErr error) string {
	switch {
	case (wantErr == nil) != (gotErr == nil):
		return fmt.Sprintf("error %v, fresh batch %v", gotErr, wantErr)
	case wantErr != nil && wantErr.Error() != gotErr.Error():
		return fmt.Sprintf("error %q, fresh batch %q", gotErr, wantErr)
	case !sameBits(got, want):
		return "samples differ from a fresh batch's"
	}
	return ""
}

// TestTraceBatchReuse runs one batch through bodies of changing shape and
// requires each parse to match a fresh batch's: samples bit for bit, error
// text verbatim. Slices left by a larger batch, a trace cut short, a trace
// rejected as too long and a frame's read buffer must not leak into the
// next parse.
func TestTraceBatchReuse(t *testing.T) {
	const js, bin = "application/json", "application/octet-stream"
	zeros := zeroBatchJSON(8, benchTraceLen)
	steps := []struct {
		name, contentType string
		body              []byte
		traceLen          int
	}{
		{"large", js, marshalBatch(randomBatch(64, benchTraceLen, 11)), benchTraceLen},
		{"small", js, marshalBatch(randomBatch(1, benchTraceLen, 12)), benchTraceLen},
		{"truncated", js, zeros[:len(zeros)/2], benchTraceLen},
		{"over-long trace", js, marshalBatch(randomBatch(2, benchTraceLen+1, 13)), benchTraceLen},
		{"short trace", js, marshalBatch(randomBatch(3, benchTraceLen-1, 14)), benchTraceLen},
		{"frame", bin, encodeFrame(randomBatch(64, benchTraceLen, 15)), benchTraceLen},
		{"truncated frame", bin, encodeFrame(randomBatch(4, benchTraceLen, 16))[:8*benchTraceLen], benchTraceLen},
		{"longer template", js, marshalBatch(randomBatch(2, 2*benchTraceLen, 17)), 2 * benchTraceLen},
		{"json", js, marshalBatch(randomBatch(3, benchTraceLen, 18)), benchTraceLen},
	}
	b := new(traceBatch)
	for _, st := range steps {
		want, wantErr := readBatch(new(traceBatch), st.body, st.contentType, st.traceLen)
		got, gotErr := readBatch(b, st.body, st.contentType, st.traceLen)
		if msg := sameParse(want, wantErr, got, gotErr); msg != "" {
			t.Fatalf("%s: %s", st.name, msg)
		}
	}
}

// TestTraceBatchWarmParseAllocatesNothing pins the steady state: once a
// batch has parsed a body of a shape, parsing that shape again allocates
// nothing, for a real-time monitor's one-trace JSON body and for a bulk
// 64-trace frame.
func TestTraceBatchWarmParseAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own; allocation counts are meaningless under -race")
	}
	for _, bc := range []struct {
		name, contentType string
		body              []byte
	}{
		{"json-1x315", "application/json", marshalBatch(randomBatch(1, benchTraceLen, 1))},
		{"frame-64x315", "application/octet-stream", encodeFrame(randomBatch(64, benchTraceLen, 1))},
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/disassemble/demo", nil)
		r.Header.Set("Content-Type", bc.contentType)
		r.ContentLength = int64(len(bc.body))
		body := rewindBody{bytes.NewReader(bc.body)}
		r.Body = body
		b := new(traceBatch)
		var err error
		allocs := testing.AllocsPerRun(20, func() {
			body.Reset(bc.body)
			_, err = b.read(r, 256<<20, benchTraceLen)
		})
		if err != nil {
			t.Fatalf("%s: %v", bc.name, err)
		}
		if allocs != 0 {
			t.Errorf("%s: a warm batch allocates %.1f times per parse, want 0", bc.name, allocs)
		}
	}
}

// fuzzBatch draws one to three traces whose samples cover the float64
// formats json.Marshal emits: plain decimals, exponents both ways,
// subnormals, signed zero and the extremes.
func fuzzBatch(rng *rand.Rand, traceLen int) [][]float64 {
	special := []float64{0, math.Copysign(0, -1), 5e-324, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 1e21, 1e-7, 123456789}
	batch := make([][]float64, 1+rng.Intn(3))
	for i := range batch {
		batch[i] = make([]float64, traceLen)
		for j := range batch[i] {
			switch rng.Intn(4) {
			case 0:
				batch[i][j] = special[rng.Intn(len(special))]
			case 1:
				batch[i][j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(600)-300))
			default:
				batch[i][j] = rng.NormFloat64()
			}
		}
	}
	return batch
}

// insertWhitespace puts random runs of JSON whitespace around the
// structural characters of a marshalled body — between tokens only, since
// neither the "traces" key nor a number contains one.
func insertWhitespace(rng *rand.Rand, body []byte) []byte {
	const ws = " \t\n\r"
	run := func(out []byte) []byte {
		for k := rng.Intn(3); k > 0; k-- {
			out = append(out, ws[rng.Intn(len(ws))])
		}
		return out
	}
	out := run(nil)
	for _, c := range body {
		if strings.IndexByte("{}[],:", c) >= 0 {
			out = append(run(out), c)
			out = run(out)
			continue
		}
		out = append(out, c)
	}
	return out
}

// rewindBody is a request body a benchmark rewinds between parses.
type rewindBody struct{ *bytes.Reader }

func (rewindBody) Close() error { return nil }

var sinkTraces [][]float64

// BenchmarkReadTraces times the handler's body parser on the bodies scdisd
// serves: one 315-sample trace as JSON (a real-time monitor's request), 64
// traces as JSON, and 64 traces as a packed frame.
func BenchmarkReadTraces(b *testing.B) {
	for _, bc := range []struct {
		name, contentType string
		body              []byte
	}{
		{"json-1x315", "application/json", marshalBatch(randomBatch(1, benchTraceLen, 1))},
		{"json-64x315", "application/json", marshalBatch(randomBatch(64, benchTraceLen, 1))},
		{"frame-64x315", "application/octet-stream", encodeFrame(randomBatch(64, benchTraceLen, 1))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := httptest.NewRequest(http.MethodPost, "/v1/disassemble/demo", bytes.NewReader(bc.body))
			r.Header.Set("Content-Type", bc.contentType)
			body := rewindBody{bytes.NewReader(bc.body)}
			r.Body = body
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.body)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body.Reset(bc.body)
				traces, err := ReadTraces(r, 256<<20, benchTraceLen)
				if err != nil {
					b.Fatal(err)
				}
				sinkTraces = traces
			}
		})
	}
}
