package obs

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func sampleRecord(conf float64) DecisionRecord {
	return DecisionRecord{
		Text:       "ADD r16, r17",
		Confidence: conf,
		Levels: []DecisionLevel{
			{Level: "group", Label: 0, RunnerUp: 3, Confidence: 0.98, Margin: 0.97},
			{Level: "instr", Label: 1, RunnerUp: 0, Confidence: conf / 0.98, Margin: 0.5},
		},
	}
}

// TestDecisionLogRoundTrip writes records through the log and decodes the
// JSONL back, checking sequence numbering and full structural fidelity.
func TestDecisionLogRoundTrip(t *testing.T) {
	var sb strings.Builder
	l := NewDecisionLog(&sb, 1)
	want := []DecisionRecord{sampleRecord(0.9), sampleRecord(0.4), sampleRecord(0.7)}
	for _, rec := range want {
		if err := l.Record(rec); err != nil {
			t.Fatal(err)
		}
	}
	if l.Seen() != 3 {
		t.Fatalf("seen %d", l.Seen())
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	var got []DecisionRecord
	for sc.Scan() {
		var rec DecisionRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d: %v", len(got)+1, err)
		}
		got = append(got, rec)
	}
	if len(got) != len(want) {
		t.Fatalf("%d lines, want %d", len(got), len(want))
	}
	for i, rec := range got {
		if rec.Seq != int64(i+1) {
			t.Fatalf("record %d: seq %d", i, rec.Seq)
		}
		w := want[i]
		w.Seq = rec.Seq
		if rec.Text != w.Text || rec.Confidence != w.Confidence || len(rec.Levels) != len(w.Levels) {
			t.Fatalf("record %d: %+v != %+v", i, rec, w)
		}
		for j := range rec.Levels {
			if rec.Levels[j] != w.Levels[j] {
				t.Fatalf("record %d level %d: %+v != %+v", i, j, rec.Levels[j], w.Levels[j])
			}
		}
	}
}

// TestDecisionLogSampling checks the 1-in-N stride: every decision is
// counted, every Nth is written, and Seq reflects the global count.
func TestDecisionLogSampling(t *testing.T) {
	var sb strings.Builder
	l := NewDecisionLog(&sb, 4)
	for i := 0; i < 10; i++ {
		if err := l.Record(sampleRecord(0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Seen() != 10 {
		t.Fatalf("seen %d", l.Seen())
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 { // decisions 1, 5, 9
		t.Fatalf("%d lines logged, want 3: %q", len(lines), sb.String())
	}
	wantSeq := []int64{1, 5, 9}
	for i, line := range lines {
		var rec DecisionRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Seq != wantSeq[i] {
			t.Fatalf("line %d seq %d, want %d", i, rec.Seq, wantSeq[i])
		}
	}
	// sample < 1 clamps to 1.
	if NewDecisionLog(&strings.Builder{}, 0).sample != 1 {
		t.Fatal("sample 0 must clamp to 1")
	}
}

func TestDecisionLogNilAndFile(t *testing.T) {
	var l *DecisionLog
	if err := l.Record(sampleRecord(1)); err != nil {
		t.Fatal("nil log Record must be a no-op")
	}
	if l.Seen() != 0 || l.Close() != nil {
		t.Fatal("nil log accessors must be no-ops")
	}
	path := filepath.Join(t.TempDir(), "dec.jsonl")
	fl, err := OpenDecisionLog(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.Record(sampleRecord(0.8)); err != nil {
		t.Fatal(err)
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec DecisionRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("file round-trip: %v", err)
	}
	if rec.Text != "ADD r16, r17" {
		t.Fatalf("text %q", rec.Text)
	}
}

// TestDecisionLogConcurrent hammers Record from many goroutines: every
// decision must be counted exactly once and every emitted line must be valid
// standalone JSON (no interleaving).
func TestDecisionLogConcurrent(t *testing.T) {
	var mu sync.Mutex
	var sb strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return sb.Write(p)
	})
	l := NewDecisionLog(w, 3)
	var wg sync.WaitGroup
	const workers, per = 8, 50
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = l.Record(sampleRecord(0.5))
			}
		}()
	}
	wg.Wait()
	if l.Seen() != workers*per {
		t.Fatalf("seen %d, want %d", l.Seen(), workers*per)
	}
	seen := map[int64]bool{}
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		var rec DecisionRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("corrupt line %q: %v", line, err)
		}
		if seen[rec.Seq] {
			t.Fatalf("duplicate seq %d", rec.Seq)
		}
		seen[rec.Seq] = true
	}
	if len(seen) != workers*per/3+1 {
		t.Fatalf("%d lines, want %d", len(seen), workers*per/3+1)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// Record is RecordWith for an already-built record; the decoder always
// builds lazily through RecordWith.

// Record counts the decision and, when it falls on the sampling stride,
// writes it as one JSON line. The record's Seq is set to its 1-based index
// among all decisions seen. No-op on a nil receiver.
func (l *DecisionLog) Record(rec DecisionRecord) error {
	return l.RecordWith(func() DecisionRecord { return rec })
}
