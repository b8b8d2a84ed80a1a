package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"clgen/internal/journal"
)

// captureJournal runs fn with a temporary process-global journal and
// returns the events it emitted.
func captureJournal(t *testing.T, fn func()) []journal.Event {
	t.Helper()
	var buf bytes.Buffer
	w := journal.NewWriter(&buf, 0)
	journal.SetActive(w)
	defer journal.SetActive(nil)
	fn()
	journal.SetActive(nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := journal.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// TestBuildWorldDeterministicAcrossWorkers is the experiments half of the
// determinism suite: an entire campaign — corpus build, synthesis, suite
// measurement, and the synthetic payload sweep — must produce identical
// worlds for every worker count. The provenance journal must likewise be
// equivalent after order normalization.
func TestBuildWorldDeterministicAcrossWorkers(t *testing.T) {
	cfg := Config{
		Seed:         7,
		MinerRepos:   30,
		SynthKernels: 12,
		PayloadSizes: []int{4096},
		ExecCap:      2048,
		Quiet:        true,
	}
	build := func(workers int) (*World, []journal.Event) {
		c := cfg
		c.Workers = workers
		var w *World
		events := captureJournal(t, func() {
			var err error
			w, err = BuildWorld(c)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
		})
		return w, events
	}
	want, wantEvents := build(1)
	for _, workers := range []int{8} {
		got, gotEvents := build(workers)
		if !reflect.DeepEqual(got.Synth, want.Synth) {
			t.Errorf("workers=%d: synthesized kernels differ", workers)
		}
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Errorf("workers=%d: synthesis stats differ:\n%+v\nvs\n%+v",
				workers, got.Stats, want.Stats)
		}
		if !reflect.DeepEqual(got.Obs, want.Obs) {
			t.Errorf("workers=%d: suite observations differ", workers)
		}
		if !reflect.DeepEqual(got.SynthObs, want.SynthObs) {
			t.Errorf("workers=%d: synthetic observations differ", workers)
		}
		if !journal.Equivalent(wantEvents, gotEvents) {
			t.Errorf("workers=%d: journal not equivalent to workers=1", workers)
		}
	}
}

// TestBuildWorldStaticDeterministicAcrossWorkers repeats the campaign
// determinism check with -static-checks semantics: the strict corpus
// filter and the sampler's static stage run, and the journal — including every static_filter event and its
// predicted verdict — must be order-equivalent for every worker count.
func TestBuildWorldStaticDeterministicAcrossWorkers(t *testing.T) {
	cfg := Config{
		Seed:         7,
		MinerRepos:   30,
		SynthKernels: 12,
		PayloadSizes: []int{4096},
		ExecCap:      2048,
		Quiet:        true,
		StaticChecks: true,
	}
	build := func(workers int) (*World, []journal.Event) {
		c := cfg
		c.Workers = workers
		var w *World
		events := captureJournal(t, func() {
			var err error
			w, err = BuildWorld(c)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
		})
		return w, events
	}
	want, wantEvents := build(1)
	// The sampler journals one static_filter event per sample that passed
	// the base filter and is not a duplicate (a sample_filter event without
	// a reason), and nothing else journals one: the checker forecasts
	// nothing.
	staticEvents, analyzed := 0, 0
	for _, e := range wantEvents {
		switch {
		case e.Stage == journal.StageStaticFilter:
			staticEvents++
		case e.Stage == journal.StageSampleFilter && e.Reason == "":
			analyzed++
		}
	}
	if staticEvents == 0 {
		t.Fatal("static campaign journaled no static_filter events")
	}
	if staticEvents != analyzed {
		t.Errorf("journaled %d static_filter events for %d analyzed samples", staticEvents, analyzed)
	}
	if f := journal.Funnel(wantEvents); f.StaticChecked == 0 {
		t.Error("funnel reconstructed no static-analysis stage from the journal")
	}
	for _, workers := range []int{8} {
		got, gotEvents := build(workers)
		if !reflect.DeepEqual(got.Synth, want.Synth) {
			t.Errorf("workers=%d: synthesized kernels differ", workers)
		}
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Errorf("workers=%d: synthesis stats differ:\n%+v\nvs\n%+v",
				workers, got.Stats, want.Stats)
		}
		if !reflect.DeepEqual(got.SynthObs, want.SynthObs) {
			t.Errorf("workers=%d: synthetic observations differ", workers)
		}
		if !journal.Equivalent(wantEvents, gotEvents) {
			t.Errorf("workers=%d: journal (incl. static_filter events) not equivalent to workers=1", workers)
		}
	}
}
