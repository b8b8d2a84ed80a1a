package journal

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"clgen/internal/perf"
)

// fixtureEvents builds a small deterministic journal under a fake clock:
// 4 mined files (2 accepted, one shim-recovered), 3 rewritten units,
// 6 samples (3 accepted, 1 duplicate, 2 rejected), 3 driver loads (1
// failure), 4 checks (2 useful), and 4 measurements over two systems and
// two suites.
func fixtureEvents() []Event {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	tick := 0
	at := func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * time.Second)
	}
	e := func(ev Event) Event {
		ev.Time = at()
		return ev
	}
	return []Event{
		e(Event{ID: "f1", Stage: StageMined, Item: 0}),
		e(Event{ID: "f1", Stage: StageCorpusFilter, DurMS: 4}),
		e(Event{ID: "f2", Stage: StageMined, Item: 1}),
		e(Event{ID: "f2", Stage: StageCorpusFilter, Reason: "parse error", DurMS: 1}),
		e(Event{ID: "f3", Stage: StageMined, Item: 2}),
		e(Event{ID: "f3", Stage: StageCorpusFilter, Recovered: true, DurMS: 6}),
		e(Event{ID: "f4", Stage: StageMined, Item: 3}),
		e(Event{ID: "f4", Stage: StageCorpusFilter, Reason: "no kernel function", DurMS: 2}),
		e(Event{ID: "u1", Stage: StageRewritten, Parent: "f1", Kernels: 1}),
		e(Event{ID: "u2", Stage: StageRewritten, Parent: "f3", Kernels: 2}),
		e(Event{ID: "u3", Stage: StageRewritten, Parent: "f3", Kernels: 1}),

		e(Event{ID: "s1", Stage: StageSampled, Item: 0, DurMS: 10}),
		e(Event{ID: "s1", Stage: StageSampleFilter}),
		e(Event{ID: "s2", Stage: StageSampled, Item: 1, DurMS: 12}),
		e(Event{ID: "s2", Stage: StageSampleFilter, Reason: "parse error"}),
		e(Event{ID: "s3", Stage: StageSampled, Item: 2, DurMS: 11}),
		e(Event{ID: "s3", Stage: StageSampleFilter}),
		e(Event{ID: "s1", Stage: StageSampled, Item: 3, DurMS: 9}),
		e(Event{ID: "s1", Stage: StageSampleFilter, Reason: ReasonDuplicate}),
		e(Event{ID: "s4", Stage: StageSampled, Item: 4, DurMS: 14}),
		e(Event{ID: "s4", Stage: StageSampleFilter, Reason: "fewer than 3 static instructions"}),
		e(Event{ID: "s5", Stage: StageSampled, Item: 5, DurMS: 13}),
		e(Event{ID: "s5", Stage: StageSampleFilter}),

		e(Event{ID: "s1", Stage: StageDriverLoad, Item: 0}),
		e(Event{ID: "s3", Stage: StageDriverLoad, Item: 1, Reason: "unsupported argument type"}),
		e(Event{ID: "s5", Stage: StageDriverLoad, Item: 2}),

		e(Event{ID: "s1", Stage: StageChecked, Verdict: "useful work", Size: 4096, Seed: 7, DurMS: 20}),
		e(Event{ID: "s5", Stage: StageChecked, Verdict: "no output", Size: 4096, Seed: 8, DurMS: 5}),
		e(Event{ID: "b1", Stage: StageChecked, Verdict: "useful work", Size: 2048, Seed: 11, DurMS: 30}),
		e(Event{ID: "b2", Stage: StageChecked, Verdict: "input insensitive", Size: 2048, Seed: 12, DurMS: 8}),

		e(Event{ID: "s1", Stage: StageMeasured, Kernel: "clgen-0000@4096", Suite: "synthetic",
			System: "amd", Size: 4096, CPUms: 2.0, GPUms: 1.0, Oracle: "GPU"}),
		e(Event{ID: "s1", Stage: StageMeasured, Kernel: "clgen-0000@4096", Suite: "synthetic",
			System: "nvidia", Size: 4096, CPUms: 2.4, GPUms: 1.8, Oracle: "GPU"}),
		e(Event{ID: "b1", Stage: StageMeasured, Kernel: "npb.bt", Suite: "npb",
			System: "amd", Size: 2048, CPUms: 1.0, GPUms: 3.0, Oracle: "CPU"}),
		e(Event{ID: "b1", Stage: StageMeasured, Kernel: "npb.bt", Suite: "npb",
			System: "nvidia", Size: 2048, CPUms: 1.2, GPUms: 2.2, Oracle: "CPU"}),
	}
}

// staticFixtureEvents extends the fixture with a -static-checks run's
// static_filter stage: s1/s3 analyze clean, s5 is forecast "no output"
// in observe mode (still checked — and the checker agrees), s6 is
// statically rejected and never reaches the driver, and s7 analyzes
// clean but the checker finds it input insensitive (a forecast miss).
func staticFixtureEvents() []Event {
	events := fixtureEvents()
	base := events[len(events)-1].Time
	tick := 0
	e := func(ev Event) Event {
		tick++
		ev.Time = base.Add(time.Duration(tick) * time.Second)
		return ev
	}
	return append(events,
		e(Event{ID: "s1", Stage: StageStaticFilter}),
		e(Event{ID: "s3", Stage: StageStaticFilter}),
		e(Event{ID: "s5", Stage: StageStaticFilter, Predicted: "no output"}),
		e(Event{ID: "s6", Stage: StageSampled, Item: 6, DurMS: 10}),
		e(Event{ID: "s6", Stage: StageSampleFilter}),
		e(Event{ID: "s6", Stage: StageStaticFilter, Reason: "static: oob-index", Predicted: "run failure"}),
		e(Event{ID: "s7", Stage: StageSampled, Item: 7, DurMS: 11}),
		e(Event{ID: "s7", Stage: StageSampleFilter}),
		e(Event{ID: "s7", Stage: StageStaticFilter}),
		e(Event{ID: "s7", Stage: StageDriverLoad, Item: 3}),
		e(Event{ID: "s7", Stage: StageChecked, Verdict: "input insensitive", Size: 4096, Seed: 9, DurMS: 6}),
	)
}

// featureFixtureEvents extends the static fixture with a
// -precise-features run's features stage: s1's heuristic and precise
// vectors agree exactly, s3's disagree on mem (by 1) and branches (by 2).
func featureFixtureEvents() []Event {
	events := staticFixtureEvents()
	base := events[len(events)-1].Time
	tick := 0
	e := func(ev Event) Event {
		tick++
		ev.Time = base.Add(time.Duration(tick) * time.Second)
		return ev
	}
	return append(events,
		e(Event{ID: "s1", Stage: StageFeatures, Kernel: "A",
			FeatHeur: []float64{4, 2, 0, 1, 1}, FeatPrec: []float64{4, 2, 0, 1, 1}}),
		e(Event{ID: "s3", Stage: StageFeatures, Kernel: "B",
			FeatHeur: []float64{6, 2, 0, 1, 1}, FeatPrec: []float64{6, 3, 0, 1, 3}}),
	)
}

// footprintFixtureEvents is a -footprint-sizing run with a warm cache:
// k1's strided argument is resized past the §5.1 extent and the checker
// then accepts k1 (a rescue); k2's argument fits and its check finds no
// output. Both loads and k2's check were served from cache.
func footprintFixtureEvents() []Event {
	return []Event{
		{ID: "k1", Stage: StageDriverLoad, CacheHit: true},
		{ID: "k1", Stage: StageFootprint, Size: 256, Footprint: []FootprintArg{
			{Arg: 0, Name: "a", Max: "2*G-2", Known: true, Hi: 510, Elems: 511, Resized: true, Written: true}}},
		{ID: "k1", Stage: StageChecked, Verdict: "useful work"},
		{ID: "k2", Stage: StageDriverLoad, CacheHit: true},
		{ID: "k2", Stage: StageFootprint, Size: 256, Footprint: []FootprintArg{
			{Arg: 0, Name: "b", Max: "G-1", Known: true, Hi: 255, Elems: 256, Written: true}}},
		{ID: "k2", Stage: StageChecked, Verdict: "no output", CacheHit: true},
	}
}

// TestFunnelFootprintAndCache pins the rescued-kernel count and the
// cache hits per stage, and the funnel lines that render them.
func TestFunnelFootprintAndCache(t *testing.T) {
	r := Funnel(footprintFixtureEvents())
	if r.FootprintKernels != 2 || r.FootprintResized != 1 || r.FootprintRescued != 1 {
		t.Errorf("footprint: kernels=%d resized=%d rescued=%d, want 2/1/1",
			r.FootprintKernels, r.FootprintResized, r.FootprintRescued)
	}
	if want := map[Stage]int{StageDriverLoad: 2, StageChecked: 1}; !reflect.DeepEqual(r.CacheHits, want) {
		t.Errorf("CacheHits = %v, want %v", r.CacheHits, want)
	}
	out := r.Render()
	for _, line := range []string{
		"footprint      2 kernels ->    2 args (1 resized, 0 overrun, 0 unknown), 1 rescued\n",
		"cache          3 stage results served from cache\n",
	} {
		if !strings.Contains(out, line) {
			t.Errorf("render lacks %q:\n%s", line, out)
		}
	}
}

// costFixtureEvents is a journal of checks that carry interpreter steps:
// two useful, one without output and a run failure of every class.
func costFixtureEvents() []Event {
	return []Event{
		{ID: "k1", Stage: StageChecked, Verdict: "useful work", Steps: 1200, DurMS: 20},
		{ID: "k2", Stage: StageChecked, Verdict: "useful work", Steps: 800, DurMS: 10},
		{ID: "k3", Stage: StageChecked, Verdict: "no output", Steps: 300, DurMS: 4},
		{ID: "k4", Stage: StageChecked, Verdict: "run failure", Class: "step-limit", Steps: 65537, DurMS: 500},
		{ID: "k5", Stage: StageChecked, Verdict: "run failure", Class: "fault", Steps: 90, DurMS: 2},
		{ID: "k6", Stage: StageChecked, Verdict: "run failure", Class: "barrier-divergence", Steps: 40, DurMS: 1},
		{ID: "k7", Stage: StageChecked, Verdict: "run failure", Class: "other", Steps: 70, DurMS: 1.5},
	}
}

func TestFunnelCostGolden(t *testing.T) {
	checkGolden(t, "funnel_cost.golden", Funnel(costFixtureEvents()).Render())
}

// TestFunnelCost checks the checks, steps and wall time attributed to
// each verdict and each run-failure class.
func TestFunnelCost(t *testing.T) {
	r := Funnel(costFixtureEvents())
	wantVerdicts := map[string]*CheckCost{
		"useful work": {Checks: 2, Steps: 2000, WallMS: 30},
		"no output":   {Checks: 1, Steps: 300, WallMS: 4},
		"run failure": {Checks: 4, Steps: 65737, WallMS: 504.5},
	}
	wantClasses := map[string]*CheckCost{
		"step-limit":         {Checks: 1, Steps: 65537, WallMS: 500},
		"fault":              {Checks: 1, Steps: 90, WallMS: 2},
		"barrier-divergence": {Checks: 1, Steps: 40, WallMS: 1},
		"other":              {Checks: 1, Steps: 70, WallMS: 1.5},
	}
	if !reflect.DeepEqual(r.VerdictCost, wantVerdicts) {
		t.Errorf("VerdictCost = %v, want %v", r.VerdictCost, wantVerdicts)
	}
	if !reflect.DeepEqual(r.ClassCost, wantClasses) {
		t.Errorf("ClassCost = %v, want %v", r.ClassCost, wantClasses)
	}
	if strings.Contains(Funnel(fixtureEvents()).Render(), "check cost") {
		t.Error("a journal without steps renders a cost table")
	}
}

func checkGolden(t *testing.T, name string, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if !bytes.Equal([]byte(got), want) {
		t.Errorf("%s mismatch\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestFunnelGolden(t *testing.T) {
	checkGolden(t, "funnel.golden", Funnel(fixtureEvents()).Render())
}

func TestFunnelCounts(t *testing.T) {
	r := Funnel(fixtureEvents())
	if r.Mined != 4 || r.CorpusAccepted != 2 || r.ShimRecovered != 1 {
		t.Errorf("corpus: mined=%d accepted=%d recovered=%d", r.Mined, r.CorpusAccepted, r.ShimRecovered)
	}
	if r.RewrittenUnits != 3 || r.RewrittenKernels != 4 {
		t.Errorf("rewritten: units=%d kernels=%d", r.RewrittenUnits, r.RewrittenKernels)
	}
	if r.Sampled != 6 || r.SampleAccepted != 3 || r.SampleDuplicates != 1 {
		t.Errorf("samples: drawn=%d accepted=%d dup=%d", r.Sampled, r.SampleAccepted, r.SampleDuplicates)
	}
	if r.Loads != 3 || r.LoadFailures != 1 {
		t.Errorf("loads: %d/%d failed", r.LoadFailures, r.Loads)
	}
	if r.Checks != 4 || r.Verdicts["useful work"] != 2 {
		t.Errorf("checks: %d, useful=%d", r.Checks, r.Verdicts["useful work"])
	}
	if r.Measured != 4 || r.Systems["amd"].Count != 2 || r.Suites["npb"].Count != 2 {
		t.Errorf("measured: %d (amd=%v npb=%v)", r.Measured, r.Systems["amd"], r.Suites["npb"])
	}
	if got := r.Suites["npb"].MeanBest(); got != 1.1 {
		t.Errorf("npb mean best = %g, want 1.1", got)
	}
}

func TestFunnelStaticGolden(t *testing.T) {
	checkGolden(t, "funnel_static.golden", Funnel(staticFixtureEvents()).Render())
}

func TestFunnelStaticCounts(t *testing.T) {
	r := Funnel(staticFixtureEvents())
	if r.StaticChecked != 5 || r.StaticRejected != 1 {
		t.Errorf("static: analyzed=%d rejected=%d, want 5/1", r.StaticChecked, r.StaticRejected)
	}
	if r.StaticReasons["static: oob-index"] != 1 {
		t.Errorf("static reasons = %v, want oob-index x1", r.StaticReasons)
	}
	want := map[AgreementCell]int{
		{Predicted: "", Actual: "useful work"}:        1, // s1: agree
		{Predicted: "", Actual: ""}:                   1, // s3: load failed, never checked
		{Predicted: "no output", Actual: "no output"}: 1, // s5: agree
		{Predicted: "run failure", Actual: ""}:        1, // s6: statically rejected, never checked
		{Predicted: "", Actual: "input insensitive"}:  1, // s7: miss
	}
	if !reflect.DeepEqual(r.Agreement, want) {
		t.Errorf("agreement table = %v, want %v", r.Agreement, want)
	}
	// Agreement over checked kernels: s1 and s5 agree, s7 misses.
	if got, want := r.AgreementRate(), 2.0/3.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("agreement rate = %g, want %g", got, want)
	}
	// The base fixture journaled no static stage: its funnel must not
	// invent one, and its render must not grow a static section.
	if base := Funnel(fixtureEvents()); base.StaticChecked != 0 || len(base.Agreement) != 0 {
		t.Errorf("static-free journal reconstructed a static stage: %+v", base)
	}
}

func TestFunnelFeatureCounts(t *testing.T) {
	r := Funnel(featureFixtureEvents())
	if r.FeatureKernels != 2 || r.FeatureAllExact != 1 {
		t.Errorf("features: kernels=%d exact=%d, want 2/1", r.FeatureKernels, r.FeatureAllExact)
	}
	if got := r.FeatureAgreementRate(); got != 0.5 {
		t.Errorf("agreement rate = %g, want 0.5", got)
	}
	for name, want := range map[string]float64{"comp": 0, "mem": 0.5, "branches": 1} {
		if got := r.FeatureMeanDelta(name); got != want {
			t.Errorf("mean |delta| for %s = %g, want %g", name, got, want)
		}
	}
	if got := r.FeatureExactRate("mem"); got != 0.5 {
		t.Errorf("mem exact rate = %g, want 0.5", got)
	}
	if got := r.FeatureExactRate("coalesced"); got != 1 {
		t.Errorf("coalesced exact rate = %g, want 1", got)
	}
	if out := r.Render(); !strings.Contains(out, "features") {
		t.Errorf("render missing feature-agreement table:\n%s", out)
	}
	// A journal without features events must not grow the table.
	base := Funnel(staticFixtureEvents())
	if base.FeatureKernels != 0 || strings.Contains(base.Render(), "features") {
		t.Errorf("feature-free journal rendered a feature table")
	}
}

// TestFunnelFeatureJSON checks the derived agreement rate is inlined in
// the -json export.
func TestFunnelFeatureJSON(t *testing.T) {
	data, err := json.Marshal(Funnel(featureFixtureEvents()))
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if got := decoded["feature_agreement_rate"]; got != 0.5 {
		t.Errorf("feature_agreement_rate = %v, want 0.5", got)
	}
}

// diff gates after's funnel against before's, as cltrace diff does.
func diff(t *testing.T, before, after []Event, thresholdPct float64) *perf.DiffReport {
	t.Helper()
	rep, err := perf.Diff([]perf.Record{BuildRecord(before), BuildRecord(after)}, Rules(thresholdPct))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// regressed returns the names of the metrics a diff flagged.
func regressed(rep *perf.DiffReport) map[string]bool {
	out := map[string]bool{}
	for _, m := range rep.Metrics {
		if m.Regressed {
			out[m.Metric] = true
		}
	}
	return out
}

// TestDiffFeatureGate covers the features metrics of the regression gate:
// identical runs diff clean, and a run whose precise extraction drifts
// away from the heuristic trips "feature agreement pct".
func TestDiffFeatureGate(t *testing.T) {
	if d := diff(t, featureFixtureEvents(), featureFixtureEvents(), 5); d.Regressions != 0 {
		t.Fatalf("identical feature runs regressed: %v", regressed(d))
	}
	var perturbed []Event
	for _, e := range featureFixtureEvents() {
		if e.Stage == StageFeatures && e.ID == "s1" {
			e.FeatPrec = []float64{4, 5, 0, 1, 1} // s1 no longer agrees
		}
		perturbed = append(perturbed, e)
	}
	if got := regressed(diff(t, featureFixtureEvents(), perturbed, 5)); !got["feature agreement pct"] {
		t.Errorf("expected 'feature agreement pct' to regress; regressions: %v", got)
	}
}

// TestDiffStaticGate covers the static_filter metrics of the regression
// gate: identical static runs diff clean, and a run where the analyzer
// starts rejecting a previously clean kernel trips "static filter
// failures" (over-rejection discards kernels the checker accepts).
func TestDiffStaticGate(t *testing.T) {
	if d := diff(t, staticFixtureEvents(), staticFixtureEvents(), 5); d.Regressions != 0 {
		t.Fatalf("identical static runs regressed: %v", regressed(d))
	}
	var perturbed []Event
	for _, e := range staticFixtureEvents() {
		switch {
		case e.ID == "s1" && e.Stage == StageStaticFilter:
			e.Reason, e.Predicted = "static: barrier-divergence", "run failure"
		case e.ID == "s1" && (e.Stage == StageDriverLoad || e.Stage == StageChecked):
			continue // rejected by the strict filter, never loaded
		}
		perturbed = append(perturbed, e)
	}
	if got := regressed(diff(t, staticFixtureEvents(), perturbed, 5)); !got["static filter failures"] {
		t.Errorf("expected 'static filter failures' to regress; regressions: %v", got)
	}
}

// TestDiffIdenticalRunsClean is the identical-seed acceptance criterion:
// a journal diffed against a later, slower, reordered copy of itself
// reports zero regressions, even at a zero threshold.
func TestDiffIdenticalRunsClean(t *testing.T) {
	events := fixtureEvents()
	reordered := make([]Event, len(events))
	for i, e := range events {
		e.Time = e.Time.Add(time.Hour)
		e.DurMS *= 3
		reordered[len(events)-1-i] = e
	}
	if d := diff(t, events, reordered, 0); d.Regressions != 0 {
		t.Fatalf("identical runs regressed: %v", regressed(d))
	}
}

// perturbedEvents drops one accepted sample and slows one suite — the
// regressions the diff gate must catch.
func perturbedEvents() []Event {
	var out []Event
	for _, e := range fixtureEvents() {
		switch {
		case e.ID == "s5" && e.Stage == StageSampleFilter:
			e.Reason = "parse error" // s5 no longer accepted
		case e.ID == "s5" && e.Stage == StageDriverLoad,
			e.ID == "s5" && e.Stage == StageChecked:
			continue // and never reaches the driver
		case e.Stage == StageMeasured && e.Suite == "npb":
			e.CPUms *= 2 // npb regressed on its oracle device
		}
		out = append(out, e)
	}
	return out
}

func TestDiffGolden(t *testing.T) {
	var b strings.Builder
	diff(t, fixtureEvents(), perturbedEvents(), 5).Render(&b)
	checkGolden(t, "diff.golden", b.String())
}

// TestDiffCatchesRegressions checks the perturbed run trips exactly the
// funnel metrics the perturbation worsens, and that the threshold is
// used as given.
func TestDiffCatchesRegressions(t *testing.T) {
	want := map[string]bool{
		"samples accepted count":     true,
		"samples accepted pct":       true,
		"driver loads count":         true,
		"checker checks count":       true,
		"runtime amd cpu mean ms":    true,
		"runtime nvidia cpu mean ms": true,
		"suite npb best mean ms":     true,
	}
	if got := regressed(diff(t, fixtureEvents(), perturbedEvents(), 5)); !reflect.DeepEqual(got, want) {
		t.Errorf("regressed = %v, want %v", got, want)
	}
	// A count that falls to zero is still recorded, so it regresses.
	if got := regressed(diff(t, fixtureEvents(), nil, 5)); !got["corpus mined count"] || !got["measurements count"] {
		t.Errorf("an empty journal regressed only %v", got)
	}
	// A huge threshold lets everything through.
	if d := diff(t, fixtureEvents(), perturbedEvents(), 1000); d.Regressions != 0 {
		t.Errorf("threshold 1000%% still regressed: %v", regressed(d))
	}
	if _, err := perf.Diff([]perf.Record{BuildRecord(nil), BuildRecord(nil)}, Rules(-1)); err == nil {
		t.Error("negative threshold accepted")
	}
}

// TestFunnelJSON checks the -json export: valid JSON, the struct-keyed
// agreement table flattened to rows, and the derived rates inlined.
func TestFunnelJSON(t *testing.T) {
	r := Funnel(fixtureEvents())
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("funnel does not marshal: %v", err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if got := decoded["Mined"]; got != float64(r.Mined) {
		t.Errorf("Mined = %v, want %d", got, r.Mined)
	}
	for _, key := range []string{"corpus_discard_rate", "sample_accept_rate", "useful_rate", "agreement_rate"} {
		if _, ok := decoded[key].(float64); !ok {
			t.Errorf("derived rate %s missing or non-numeric: %v", key, decoded[key])
		}
	}
	if got := decoded["corpus_discard_rate"]; got != r.CorpusDiscardRate() {
		t.Errorf("corpus_discard_rate = %v, want %v", got, r.CorpusDiscardRate())
	}
}

// TestFunnelJSONAgreement checks the flattened agreement rows on a journal
// that exercises the static analyzer.
func TestFunnelJSONAgreement(t *testing.T) {
	r := Funnel(staticFixtureEvents())
	if len(r.Agreement) == 0 {
		t.Skip("fixture has no agreement cells")
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Agreement []struct {
			Predicted string `json:"predicted"`
			Actual    string `json:"actual"`
			Count     int    `json:"count"`
		}
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Agreement) != len(r.Agreement) {
		t.Fatalf("agreement rows = %d, want %d", len(decoded.Agreement), len(r.Agreement))
	}
	total := 0
	for _, row := range decoded.Agreement {
		total += row.Count
	}
	want := 0
	for _, n := range r.Agreement {
		want += n
	}
	if total != want {
		t.Fatalf("agreement counts sum to %d, want %d", total, want)
	}
}
