package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// errMismatch marks a response whose listing differs from the in-process
// decode; any other send error is a transport or HTTP failure.
var errMismatch = errors.New("listing differs from the in-process decode")

// send posts one request and checks its response against the in-process
// decode.
func (f *fixture) send(req *request) error {
	ct := "application/json"
	if f.wl.frame {
		ct = "application/octet-stream"
	}
	resp, err := f.hc.Post(f.base+"/v1/disassemble/"+req.template, ct, bytes.NewReader(req.body))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return checkListing(body, req.want)
}

// checkListing compares a response body's decoded[].text with want.
func checkListing(body []byte, want []string) error {
	var got struct {
		Decoded []struct {
			Text string `json:"text"`
		} `json:"decoded"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("%w: unreadable response: %v", errMismatch, err)
	}
	if len(got.Decoded) != len(want) {
		return fmt.Errorf("%w: %d instructions, want %d", errMismatch, len(got.Decoded), len(want))
	}
	for i, d := range got.Decoded {
		if d.Text != want[i] {
			return fmt.Errorf("%w: instruction %d is %q, want %q", errMismatch, i, d.Text, want[i])
		}
	}
	return nil
}

// loadResult is what one timed load phase measured.
type loadResult struct {
	start      time.Time
	latMS      []float64    // per checked request, send to checked response
	done       []completion // per checked request
	attempted  int
	failed     int // non-2xx, transport errors and listing mismatches
	mismatched int
	firstErr   error
	traces     int   // traces answered and checked
	correct    int   // of those, decoded like the ground truth
	cells      int64 // sparse cells the checked responses evaluated
	reloadMS   []float64
	elapsed    time.Duration
	cpu        time.Duration // process user+sys over the phase
	allocBytes uint64        // heap bytes allocated over the phase
	before     *obs.Snapshot // /metrics.json around the phase
	after      *obs.Snapshot
}

// completion is when a checked request finished, since the phase start.
type completion struct {
	at     time.Duration
	traces int
}

func (r *loadResult) record(req *request, sent time.Time, err error) {
	now := time.Now()
	r.attempted++
	if err != nil {
		r.failed++
		if errors.Is(err, errMismatch) {
			r.mismatched++
		}
		if r.firstErr == nil {
			r.firstErr = err
		}
		return
	}
	r.latMS = append(r.latMS, ms(now.Sub(sent)))
	r.done = append(r.done, completion{now.Sub(r.start), len(req.traces)})
	r.traces += len(req.traces)
	r.correct += req.correct
	r.cells += req.cells
}

func (r *loadResult) merge(o *loadResult) {
	r.latMS = append(r.latMS, o.latMS...)
	r.done = append(r.done, o.done...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.mismatched += o.mismatched
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.traces += o.traces
	r.correct += o.correct
	r.cells += o.cells
	r.reloadMS = append(r.reloadMS, o.reloadMS...)
}

// load runs the workload's closed loop for the given duration and checks
// every response. A redeploy failure aborts the phase with an error; request
// failures are counted.
func (f *fixture) load(d time.Duration) (*loadResult, error) {
	res := &loadResult{}
	var err error
	if res.before, err = f.snapshot(); err != nil {
		return nil, err
	}
	cpu0, alloc0 := cpuTime(), heapAllocBytes()
	res.start = time.Now()
	deadline := res.start.Add(d)
	if f.wl.fleet > 0 {
		err = f.redeployLoop(res, deadline)
	} else {
		parts := make([]*loadResult, f.wl.clients)
		var wg sync.WaitGroup
		for c := range parts {
			parts[c] = &loadResult{start: res.start}
			wg.Add(1)
			go func(part *loadResult, next int) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					req := f.pool[next%len(f.pool)]
					next++
					sent := time.Now()
					part.record(req, sent, f.send(req))
				}
			}(parts[c], c*len(f.pool)/len(parts))
		}
		wg.Wait()
		for _, p := range parts {
			res.merge(p)
		}
	}
	res.elapsed = time.Since(res.start)
	res.cpu, res.allocBytes = cpuTime()-cpu0, heapAllocBytes()-alloc0
	if err != nil {
		return nil, err
	}
	if res.after, err = f.snapshot(); err != nil {
		return nil, err
	}
	return res, nil
}

// redeployLoop is the fleet-redeploy client: each round rewrites every
// template file, reloads, then sends one single-trace request per template.
func (f *fixture) redeployLoop(res *loadResult, deadline time.Time) error {
	next := 0
	for time.Now().Before(deadline) {
		for _, name := range f.names {
			if err := f.deploy(name); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if err := f.reload(); err != nil {
			return err
		}
		res.reloadMS = append(res.reloadMS, ms(time.Since(t0)))
		for range f.names {
			req := f.pool[next%len(f.pool)]
			next++
			sent := time.Now()
			res.record(req, sent, f.send(req))
		}
	}
	return nil
}

func (f *fixture) reload() error {
	resp, err := f.hc.Post(f.base+"/admin/reload", "", nil)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("reload: status %d", resp.StatusCode)
	}
	return nil
}

// snapshot reads the server's /metrics.json.
func (f *fixture) snapshot() (*obs.Snapshot, error) {
	resp, err := f.hc.Get(f.base + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics.json: status %d", resp.StatusCode)
	}
	var s obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("/metrics.json: %w", err)
	}
	return &s, nil
}

// throughputSlices is how many equal slices of the checked requests the
// throughput median is taken over.
const throughputSlices = 20

// throughput is traces decoded and checked per second: the median over
// throughputSlices consecutive slices of the checked requests, in completion
// order, of each slice's traces over its duration. A stall of the shared
// host lands in one slice instead of moving the whole figure.
func (r *loadResult) throughput() float64 {
	done := append([]completion(nil), r.done...)
	sort.Slice(done, func(i, j int) bool { return done[i].at < done[j].at })
	k := min(throughputSlices, len(done))
	var rates []float64
	var prev time.Duration
	for i := 0; i < k; i++ {
		slice := done[i*len(done)/k : (i+1)*len(done)/k]
		traces := 0
		for _, c := range slice {
			traces += c.traces
		}
		end := slice[len(slice)-1].at
		rates = append(rates, float64(traces)/(end-prev).Seconds())
		prev = end
	}
	return median(rates)
}

// delta is the change of a counter over the phase.
func (r *loadResult) delta(name string) int64 {
	return r.after.Counters[name] - r.before.Counters[name]
}

// labeledDelta is the change of a labeled counter, summed over its children.
func (r *loadResult) labeledDelta(name string) int64 {
	var sum int64
	for _, v := range r.after.LabeledCounters[name] {
		sum += v
	}
	for _, v := range r.before.LabeledCounters[name] {
		sum -= v
	}
	return sum
}

// handlerMeanMS is the server's own mean decode-request time over the
// phase, from the scdisd.http.request.seconds histograms of the disassemble
// route.
func (r *loadResult) handlerMeanMS() float64 {
	var sum float64
	var n int64
	for key, h := range r.after.LabeledHistograms["scdisd.http.request.seconds"] {
		if !strings.HasPrefix(key, `route="disassemble"`) {
			continue
		}
		b := r.before.LabeledHistograms["scdisd.http.request.seconds"][key]
		sum += h.Sum - b.Sum
		n += int64(h.Count) - int64(b.Count)
	}
	if n == 0 {
		return 0
	}
	return 1e3 * sum / float64(n)
}

// checks cross-checks the served path against the benchmark's model of it
// and returns every disagreement.
func (r *loadResult) checks(fleet bool) []string {
	var bad []string
	if r.failed > 0 {
		bad = append(bad, fmt.Sprintf("%d of %d requests failed (%d listing mismatches); first: %v",
			r.failed, r.attempted, r.mismatched, r.firstErr))
	}
	if got := r.delta("core.traces.classified"); got != int64(r.traces) {
		bad = append(bad, fmt.Sprintf("core.traces.classified moved %d, traces answered %d", got, r.traces))
	}
	if got := r.delta("dsp.cwt.sparse_cells"); got != r.cells {
		bad = append(bad, fmt.Sprintf("dsp.cwt.sparse_cells moved %d, the levels the traces crossed hold %d", got, r.cells))
	}
	// Every fleet request must find its template redeployed, i.e. cold.
	if got := r.delta("store.opens"); fleet && got != int64(r.attempted) {
		bad = append(bad, fmt.Sprintf("store.opens moved %d for %d cold requests", got, r.attempted))
	}
	return bad
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocBytes is the cumulative heap allocation of the process.
func heapAllocBytes() uint64 { return readUint64Metric("/gc/heap/allocs:bytes") }

// heapAllocObjects is the cumulative count of heap allocations.
func heapAllocObjects() uint64 { return readUint64Metric("/gc/heap/allocs:objects") }

func readUint64Metric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// vmHWM is the process's peak resident set in MB, from /proc/self/status.
func vmHWM() (float64, error) {
	fh, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM missing from /proc/self/status")
}

// resetHWM restarts the peak-RSS count at the current RSS, so rss_peak_mb
// covers serving rather than training. Kernels that refuse leave the
// lifetime peak in place.
func resetHWM() {
	fh, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	fh.Write([]byte("5"))
	fh.Close()
}
