package mlobs

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"clgen/internal/driver"
	"clgen/internal/features"
	"clgen/internal/grewe"
	"clgen/internal/interp"
	"clgen/internal/journal"
	"clgen/internal/perf"
	"clgen/internal/platform"
	"clgen/internal/telemetry"
)

// obs fabricates an observation with fixed features and device times.
func obs(bench string, cpu, gpu float64) *grewe.Observation {
	oracle := platform.CPU
	if gpu < cpu {
		oracle = platform.GPU
	}
	return &grewe.Observation{
		Bench: bench,
		M: &driver.Measurement{
			Kernel: bench,
			Vector: features.Vector{
				Static:  features.Static{Comp: 10, Mem: 5, Coalesced: 5},
				Dynamic: features.Dynamic{Transfer: 1000, WgSize: 64},
			},
			Profile: &interp.Profile{},
			CPUTime: cpu, GPUTime: gpu,
			Oracle: oracle,
		},
	}
}

func capture(t *testing.T, fn func()) []journal.Event {
	t.Helper()
	var buf bytes.Buffer
	w := journal.NewWriter(&buf)
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

func TestEmitPredictions(t *testing.T) {
	preds := []grewe.Prediction{
		{Obs: obs("a", 10, 1), Predicted: platform.GPU, Fold: "a"}, // correct
		{Obs: obs("b", 1, 10), Predicted: platform.GPU, Fold: "b"}, // wrong
	}
	events := capture(t, func() {
		EmitPredictions("figure7", "AMD", "grewe", platform.CPU, preds, grewe.Combined)
	})
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	e := events[0]
	if e.Stage != journal.StagePredicted || e.Experiment != "figure7" ||
		e.System != "AMD" || e.Variant != "grewe" || e.Fold != "a" {
		t.Fatalf("event coordinates wrong: %+v", e)
	}
	if e.Predicted != "GPU" || e.Oracle != "GPU" {
		t.Fatalf("devices wrong: predicted=%q oracle=%q", e.Predicted, e.Oracle)
	}
	if len(e.Features) != 4 {
		t.Fatalf("features width %d, want 4 (combined)", len(e.Features))
	}
	if e.Baseline != "CPU" || math.Abs(e.Speedup-10) > 1e-9 {
		t.Fatalf("baseline %q speedup %v, want CPU 10x", e.Baseline, e.Speedup)
	}
	if e.ID == "" {
		t.Fatal("event ID empty: obsID fallback failed")
	}
	if events[1].Predicted != "GPU" || events[1].Oracle != "CPU" {
		t.Fatalf("second event devices wrong: %+v", events[1])
	}
}

func TestReportAggregation(t *testing.T) {
	events := []journal.Event{
		{Stage: journal.StageTrained, Model: "m1", Variant: "lstm", Epoch: 1, Loss: 2.0, ClipRate: 0.1},
		{Stage: journal.StageTrained, Model: "m1", Variant: "lstm", Epoch: 2, Loss: 1.5, ClipRate: 0.05},
		{Stage: journal.StagePredicted, Experiment: "figure7", System: "AMD", Variant: "grewe",
			Fold: "a", Predicted: "GPU", Oracle: "GPU", Baseline: "CPU", Speedup: 4},
		{Stage: journal.StagePredicted, Experiment: "figure7", System: "AMD", Variant: "grewe",
			Fold: "b", Predicted: "CPU", Oracle: "GPU", Baseline: "CPU", Speedup: 1},
		{Stage: journal.StagePredicted, Experiment: "figure8", System: "NVIDIA", Variant: "extended+clgen",
			Fold: "a", Predicted: "CPU", Oracle: "CPU", Baseline: "GPU"},
	}
	r := Report(events)
	if len(r.Curves) != 1 {
		t.Fatalf("curves %d, want 1", len(r.Curves))
	}
	c := r.Curves[0]
	if c.Model != "m1" || c.Backend != "lstm" || len(c.Epochs) != 2 || c.FinalLoss() != 1.5 {
		t.Fatalf("curve wrong: %+v", c)
	}
	if len(r.Evals) != 2 {
		t.Fatalf("evals %d, want 2", len(r.Evals))
	}
	// Sorted by key: figure7 before figure8.
	f7 := r.Evals[0]
	if f7.Experiment != "figure7" || f7.N != 2 || f7.Correct != 1 || f7.Accuracy != 0.5 {
		t.Fatalf("figure7 summary wrong: %+v", f7)
	}
	if math.Abs(f7.GeomeanSpeedup-2) > 1e-9 { // geomean(4, 1) = 2
		t.Fatalf("geomean %v, want 2", f7.GeomeanSpeedup)
	}
	if f7.Confusion["GPU->GPU"] != 1 || f7.Confusion["CPU->GPU"] != 1 {
		t.Fatalf("confusion wrong: %v", f7.Confusion)
	}
	if f7.Folds["a"].Correct != 1 || f7.Folds["b"].Correct != 0 {
		t.Fatalf("folds wrong: %+v", f7.Folds)
	}
	out := r.Render()
	for _, want := range []string{"m1", "figure7 / AMD / grewe", "50.0%", "confusion"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// rec is a model record of one evaluation: accuracy in percent and
// geomean speedup.
func rec(acc, speedup float64) perf.Record {
	return perf.Record{
		Time:      time.Unix(0, 0),
		Component: "model",
		Env:       telemetry.Env(),
		Metrics: map[string]float64{
			"figure7 / AMD / grewe accuracy": acc,
			"figure7 / AMD / grewe speedup":  speedup,
		},
	}
}

// TestDiffGate gates model records under Rules against a baseline of two
// identical runs at 80% accuracy and a 2x geomean speedup.
func TestDiffGate(t *testing.T) {
	def := Rules(DefaultAccuracyPP, DefaultSpeedupPct)
	cases := []struct {
		name   string
		rules  map[string]perf.Rule
		newest perf.Record
		want   string // the metric that regresses, or ""
	}{
		{"identical rerun", def, rec(80, 2), ""},
		{"accuracy collapse", def, rec(40, 2), "figure7 / AMD / grewe accuracy"},
		{"speedup collapse", def, rec(80, 1), "figure7 / AMD / grewe speedup"},
		{"within tolerances", def, rec(78.5, 1.92), ""},
		{"improvement", def, rec(90, 3), ""},
		{"zero tolerances", Rules(0, 0), rec(79.9, 2), "figure7 / AMD / grewe accuracy"},
	}
	for _, c := range cases {
		d, err := perf.Diff([]perf.Record{rec(80, 2), rec(80, 2), c.newest}, c.rules)
		if err != nil {
			t.Fatal(err)
		}
		var got string
		for _, m := range d.Metrics {
			if m.Regressed {
				got += m.Metric
			}
		}
		if len(d.Metrics) != 2 || got != c.want {
			t.Errorf("%s: regressed %q, want %q: %+v", c.name, got, c.want, d.Metrics)
		}
	}
	if _, err := perf.Diff([]perf.Record{rec(80, 2)}, Rules(-1, 5)); err == nil {
		t.Error("negative accuracy tolerance accepted")
	}
}

func TestBuildRecordFromEvents(t *testing.T) {
	events := []journal.Event{
		{Stage: journal.StagePredicted, Experiment: "figure7", System: "AMD", Variant: "grewe",
			Predicted: "GPU", Oracle: "GPU", Speedup: 2},
		{Stage: journal.StagePredicted, Experiment: "figure7", System: "AMD", Variant: "grewe",
			Predicted: "CPU", Oracle: "GPU", Speedup: 8},
		{Stage: journal.StagePredicted, Experiment: "table1", System: "NVIDIA", Variant: "grewe",
			Predicted: "CPU", Oracle: "CPU"},
	}
	r := BuildRecord(events, "abc1234")
	if r.GitRev != "abc1234" || r.Component != "model" {
		t.Fatalf("record header wrong: %+v", r)
	}
	want := map[string]float64{
		"figure7 / AMD / grewe accuracy":   50,
		"figure7 / AMD / grewe speedup":    4, // geomean(2, 8)
		"table1 / NVIDIA / grewe accuracy": 100,
	}
	if len(r.Metrics) != len(want) {
		t.Fatalf("metrics = %v, want %v", r.Metrics, want)
	}
	for name, v := range want {
		if math.Abs(r.Metrics[name]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, r.Metrics[name], v)
		}
	}
	if r.Env == (telemetry.EnvInfo{}) {
		t.Fatal("record missing machine stamp")
	}
}
