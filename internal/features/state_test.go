package features

import (
	"bytes"
	"context"
	"encoding/gob"
	"math/rand"
	"testing"

	"repro/internal/testkit"
)

func TestPipelineStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	traces, labels, programs := synthDataset(rng, 15, 3, false)
	cfg := CSAPipelineConfig()
	cfg.NumComponents = 3
	pl, _, err := FitPipelineCtx(context.Background(), traces, labels, programs, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := pl.State()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	var decoded PipelineState
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	pl2, err := PipelineFromState(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	probe := synthTrace(rng, 1, 0)
	a, err := pl.Extract(probe)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pl2.Extract(probe)
	if err != nil {
		t.Fatal(err)
	}
	testkit.AllClose(t, b, a, 0, 1e-12, "features after state restore")
	if pl2.NumPoints() != pl.NumPoints() {
		t.Fatal("metadata differs after restore")
	}
	// The per-pair tables serve majority voting on a fitted pipeline only;
	// the state does not carry them.
	if pl.PairCount() == 0 || pl2.PairCount() != 0 {
		t.Fatalf("pair count %d fitted, %d restored; want >0 and 0", pl.PairCount(), pl2.PairCount())
	}
}

func TestPipelineStateValidation(t *testing.T) {
	var pl Pipeline
	if _, err := pl.State(); err == nil {
		t.Fatal("state of unfitted pipeline should fail")
	}
	if _, err := PipelineFromState(nil); err == nil {
		t.Fatal("restore of nil should fail")
	}
	if _, err := PipelineFromState(&PipelineState{}); err == nil {
		t.Fatal("restore of empty state should fail")
	}
}
