package experiments

import (
	"testing"

	"clgen/internal/journal"
	"clgen/internal/mlobs"
	"clgen/internal/perf"
)

// filterStages keeps only the events in the given stages, preserving order.
func filterStages(events []journal.Event, stages ...journal.Stage) []journal.Event {
	keep := map[journal.Stage]bool{}
	for _, s := range stages {
		keep[s] = true
	}
	var out []journal.Event
	for _, e := range events {
		if keep[e.Stage] {
			out = append(out, e)
		}
	}
	return out
}

// TestLearningEventsDeterministicAcrossWorkers pins the learning-loop half
// of the determinism contract: the trained events a campaign journals while
// fitting its model, and the predicted events Figure 7/8 journal while
// evaluating it, must be equivalent between workers=1 and workers=N — fold
// assignments included. Without this, the per-prediction audit trail could
// not be diffed across runs of different parallelism.
func TestLearningEventsDeterministicAcrossWorkers(t *testing.T) {
	cfg := Config{
		Seed:         7,
		MinerRepos:   30,
		SynthKernels: 12,
		PayloadSizes: []int{4096},
		ExecCap:      2048,
	}
	type run struct {
		trained   []journal.Event
		predicted []journal.Event
	}
	build := func(workers int) run {
		c := cfg
		c.Workers = workers
		var w *World
		buildEvents := captureJournal(t, func() {
			var err error
			w, err = BuildWorld(c)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
		})
		evalEvents := captureJournal(t, func() {
			if _, err := Figure7(w); err != nil {
				t.Fatalf("workers=%d figure7: %v", workers, err)
			}
			if _, err := Figure8(w); err != nil {
				t.Fatalf("workers=%d figure8: %v", workers, err)
			}
		})
		return run{
			trained:   filterStages(buildEvents, journal.StageTrained),
			predicted: filterStages(evalEvents, journal.StagePredicted),
		}
	}
	want := build(1)
	if len(want.trained) == 0 {
		t.Fatal("campaign journaled no trained events")
	}
	if len(want.predicted) == 0 {
		t.Fatal("figure7/figure8 journaled no predicted events")
	}
	// Every LOOCV prediction must name its held-out fold.
	for _, e := range want.predicted {
		if e.Fold == "" {
			t.Fatalf("predicted event %s has no fold", e.ID)
		}
	}
	got := build(8)
	if !journal.Equivalent(want.trained, got.trained) {
		t.Error("workers=8: trained events not equivalent to workers=1")
	}
	if !journal.Equivalent(want.predicted, got.predicted) {
		t.Error("workers=8: predicted events not equivalent to workers=1")
	}
	// Fold assignment is part of the deterministic payload: compare the
	// exact (event ID, fold) sequence, not just canonical equivalence.
	if len(got.predicted) != len(want.predicted) {
		t.Fatalf("prediction counts differ: %d vs %d", len(got.predicted), len(want.predicted))
	}
	for i := range want.predicted {
		if want.predicted[i].Fold != got.predicted[i].Fold {
			t.Errorf("prediction %d fold %q (workers=1) vs %q (workers=8)",
				i, want.predicted[i].Fold, got.predicted[i].Fold)
		}
	}

	// The run-history gate under the model rule, as `make model-smoke`
	// drives it with binaries: workers=8 gates clean against workers=1,
	// and the same events with every predicted device flipped trip it.
	gate := func(newest []journal.Event) *perf.DiffReport {
		t.Helper()
		hist := []perf.Record{mlobs.BuildRecord(want.predicted, ""), mlobs.BuildRecord(newest, "")}
		rep, err := perf.Diff(hist, mlobs.Rules(mlobs.DefaultAccuracyPP, mlobs.DefaultSpeedupPct))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if rep := gate(got.predicted); len(rep.Metrics) == 0 || rep.Regressions != 0 {
		t.Errorf("workers=8 evaluations did not gate clean against workers=1: %+v", rep)
	}
	flipped := append([]journal.Event(nil), got.predicted...)
	for i := range flipped {
		flipped[i].Predicted = map[string]string{"CPU": "GPU", "GPU": "CPU"}[flipped[i].Predicted]
	}
	if rep := gate(flipped); rep.Regressions == 0 {
		t.Errorf("flipped predictions did not trip the gate: %+v", rep.Metrics)
	}
}
