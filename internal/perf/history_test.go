package perf

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"clgen/internal/telemetry"
)

func testEnv() telemetry.EnvInfo {
	return telemetry.EnvInfo{GoVersion: "go1.24", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 8, NumCPU: 8}
}

func testRecord(totalSec float64, stages map[string]float64) Record {
	rec := Record{
		Time:      time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC),
		Component: "clgen",
		Env:       testEnv(),
		Metrics:   map[string]float64{"(total) wall_s": totalSec},
	}
	for name, s := range stages {
		rec.Metrics[name+" wall_s"] = s
	}
	return rec
}

var defaultRules = StageRules(DefaultThresholdPct, DefaultMinSeconds)

// regressed returns the names of the metrics the diff flagged.
func regressed(rep *DiffReport) []string {
	var out []string
	for _, d := range rep.Metrics {
		if d.Regressed {
			out = append(out, d.Metric)
		}
	}
	return out
}

// TestHistoryRoundtrip appends records and reads them back, and renders
// the trajectory of one stage with its CPU seconds.
func TestHistoryRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.jsonl")
	r1 := testRecord(10, map[string]float64{"corpus.build": 4, "core.synthesize": 6})
	r1.GitRev = "abc1234"
	r1.Metrics["corpus.build cpu_s"] = 3.5
	r2 := testRecord(11, map[string]float64{"corpus.build": 5, "core.synthesize": 6})
	for _, r := range []Record{r1, r2} {
		if err := Append(path, r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records, want 2", len(got))
	}
	if got[0].GitRev != "abc1234" || got[0].Metrics["(total) wall_s"] != 10 {
		t.Fatalf("record 0 mangled: %+v", got[0])
	}
	if got[1].Metrics["corpus.build wall_s"] != 5 {
		t.Fatalf("record 1 metrics mangled: %+v", got[1].Metrics)
	}
	var b strings.Builder
	RenderHistory(&b, got, "corpus.build")
	out := b.String()
	for _, want := range []string{"abc1234", "corpus.build wall_s=4.000", "corpus.build cpu_s=3.500", "corpus.build wall_s=5.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("history render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "core.synthesize") || strings.Contains(out, "(total)") {
		t.Errorf("-stage filter let other metrics through:\n%s", out)
	}
}

// TestReadHistoryRejectsOldFormat checks a line in the per-stage format
// the history used before it held named metrics: it decodes into a record
// with no metrics, which would gate nothing, so reading names its line.
func TestReadHistoryRejectsOldFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.jsonl")
	if err := Append(path, testRecord(10, nil)); err != nil {
		t.Fatal(err)
	}
	old := `{"t":"2026-08-01T12:00:00Z","component":"clgen","env":{"gomaxprocs":8},"seconds":10,"stages":{"a":{"s":4,"n":1}}}` + "\n"
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\n" + old); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = ReadHistory(path)
	if err == nil || !strings.Contains(err.Error(), "line 3: record has no metrics") {
		t.Fatalf("old-format line: err = %v, want it rejected at line 3", err)
	}
}

// TestDiffIdenticalRunsPass is the CI contract: two identical-seed runs
// must never trip the gate.
func TestDiffIdenticalRunsPass(t *testing.T) {
	h := []Record{
		testRecord(10, map[string]float64{"a": 4, "b": 6}),
		testRecord(10.01, map[string]float64{"a": 4.01, "b": 6.0}),
	}
	rep, err := Diff(h, defaultRules)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaselineRuns == 0 || len(rep.Metrics) != 3 || rep.Regressions != 0 {
		t.Fatalf("identical runs flagged: %+v", rep)
	}
}

// TestDiffSlowedStageRegresses checks an artificially slowed stage trips
// the gate — the injected-sleep perf-smoke scenario.
func TestDiffSlowedStageRegresses(t *testing.T) {
	h := []Record{
		testRecord(10, map[string]float64{"a": 4, "core.synthesize": 1}),
		testRecord(10, map[string]float64{"a": 4, "core.synthesize": 1}),
		testRecord(12, map[string]float64{"a": 4, "core.synthesize": 3}), // +2s injected
	}
	rep, err := Diff(h, StageRules(100, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	if got := regressed(rep); len(got) != 1 || got[0] != "core.synthesize wall_s" {
		t.Fatalf("regressed = %v, want only core.synthesize: %+v", got, rep)
	}
	var b strings.Builder
	rep.Render(&b)
	if !strings.Contains(b.String(), "REGRESSION") || !strings.Contains(b.String(), "FAIL") {
		t.Fatalf("render lacks verdict:\n%s", b.String())
	}
}

// TestDiffMinSecondsFloor checks the absolute floor: a 10x relative blowup
// of a sub-millisecond stage is noise, not a regression.
func TestDiffMinSecondsFloor(t *testing.T) {
	h := []Record{
		testRecord(1, map[string]float64{"tiny": 0.001}),
		testRecord(1, map[string]float64{"tiny": 0.010}),
	}
	rep, err := Diff(h, StageRules(75, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 0 {
		t.Fatalf("sub-floor jitter flagged: %+v", rep)
	}
}

// TestDiffTolerancesAsGiven checks zero tolerances gate any slowdown and
// a negative tolerance is an error, not a silent default.
func TestDiffTolerancesAsGiven(t *testing.T) {
	h := []Record{
		testRecord(10, map[string]float64{"a": 4}),
		testRecord(10, map[string]float64{"a": 4.04}), // 1% slower
	}
	rep, err := Diff(h, StageRules(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := regressed(rep); len(got) != 1 || got[0] != "a wall_s" {
		t.Fatalf("zero tolerances: regressed = %v, want a 1%% slower stage", got)
	}
	for _, rules := range []map[string]Rule{StageRules(-1, 0.1), StageRules(75, -0.1)} {
		if _, err := Diff(h, rules); err == nil || !strings.Contains(err.Error(), "a negative tolerance") {
			t.Errorf("rules %v: err = %v, want a negative-tolerance error", rules, err)
		}
	}
}

// TestDiffZeroBaseline checks a failure count rising from a zero median
// regresses and renders an infinite change, not +0.0%.
func TestDiffZeroBaseline(t *testing.T) {
	rec := func(n float64) Record {
		r := testRecord(10, nil)
		r.Metrics = map[string]float64{"driver load failures": n}
		return r
	}
	rep, err := Diff([]Record{rec(0), rec(1)}, map[string]Rule{"failures": {RelPct: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if got := regressed(rep); len(got) != 1 || got[0] != "driver load failures" {
		t.Fatalf("regressed = %v, want the failure count: %+v", got, rep.Metrics)
	}
	var b strings.Builder
	rep.Render(&b)
	if !strings.Contains(b.String(), "+Inf%  << REGRESSION") {
		t.Fatalf("render lacks an infinite delta:\n%s", b.String())
	}
}

// TestDiffEnvMismatchNoBaseline checks records from a different machine
// or of another component never form a baseline.
func TestDiffEnvMismatchNoBaseline(t *testing.T) {
	otherMachine := testRecord(5, map[string]float64{"a": 5})
	otherMachine.Env.GOMAXPROCS = 2
	otherComponent := testRecord(5, map[string]float64{"a": 5})
	otherComponent.Component = "bench"
	h := []Record{otherMachine, otherComponent, testRecord(10, map[string]float64{"a": 10})}
	rep, err := Diff(h, defaultRules)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaselineRuns != 0 || rep.Regressions != 0 {
		t.Fatalf("other machine or component formed a baseline: %+v", rep)
	}
	var b strings.Builder
	rep.Render(&b)
	if !strings.Contains(b.String(), "no comparable baseline") {
		t.Fatalf("render lacks no-baseline notice:\n%s", b.String())
	}
}

// TestDiffMedianBaseline checks one outlier baseline run doesn't mask (or
// manufacture) a regression: the median, not the mean, is the reference.
func TestDiffMedianBaseline(t *testing.T) {
	h := []Record{
		testRecord(10, map[string]float64{"a": 1}),
		testRecord(10, map[string]float64{"a": 1}),
		testRecord(60, map[string]float64{"a": 50}), // one anomalous slow run
		testRecord(10, map[string]float64{"a": 1.1}),
	}
	rep, err := Diff(h, defaultRules)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 0 {
		t.Fatalf("median baseline should absorb the outlier: %+v", rep)
	}
	// Against the mean (17.3s) a 3s run would pass; the median (1s) is
	// what flags it.
	h[3] = testRecord(12, map[string]float64{"a": 3})
	if rep, err = Diff(h, defaultRules); err != nil {
		t.Fatal(err)
	}
	if got := regressed(rep); len(got) != 1 || got[0] != "a wall_s" {
		t.Fatalf("regressed = %v, want a against its 1s median: %+v", got, rep.Metrics)
	}
}

// TestDiffSkipsNewMetric checks a metric no baseline record has is left
// out rather than compared against nothing, and an ungated measure (CPU
// seconds) never shows in the diff.
func TestDiffSkipsNewMetric(t *testing.T) {
	newest := testRecord(10, map[string]float64{"a": 4, "fresh": 9})
	newest.Metrics["a cpu_s"] = 40
	h := []Record{testRecord(10, map[string]float64{"a": 4}), newest}
	rep, err := Diff(h, defaultRules)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Metrics {
		if strings.HasPrefix(d.Metric, "fresh") || strings.HasSuffix(d.Metric, "cpu_s") {
			t.Fatalf("diff compared %s: %+v", d.Metric, rep.Metrics)
		}
	}
	if len(rep.Metrics) != 2 || rep.Regressions != 0 {
		t.Fatalf("diff = %+v, want (total) and a, clean", rep.Metrics)
	}
}

// TestBuildRecord flattens a nested RunReport: same-name spans sum, and
// CPU seconds carry over when present.
func TestBuildRecord(t *testing.T) {
	rep := &telemetry.RunReport{
		Component: "clgen",
		Seconds:   12,
		Env:       testEnv(),
		Stages: []telemetry.StageNode{{
			Name: "world.build", Seconds: 12,
			Children: []telemetry.StageNode{
				{Name: "driver.check", Seconds: 2, Attrs: map[string]any{"cpu_s": 1.5}},
				{Name: "driver.check", Seconds: 3, Attrs: map[string]any{"cpu_s": 2.5}},
			},
		}},
	}
	rec := BuildRecord(rep, "deadbee")
	if rec.GitRev != "deadbee" || rec.Component != "clgen" || rec.Env != testEnv() {
		t.Fatalf("record header mangled: %+v", rec)
	}
	want := map[string]float64{
		"(total) wall_s": 12, "world.build wall_s": 12,
		"driver.check wall_s": 5, "driver.check cpu_s": 4,
	}
	if len(rec.Metrics) != len(want) {
		t.Fatalf("metrics = %v, want %v", rec.Metrics, want)
	}
	for name, v := range want {
		if rec.Metrics[name] != v {
			t.Errorf("%s = %v, want %v", name, rec.Metrics[name], v)
		}
	}
}

// TestBuildRecordStampsEnv checks a pre-Env report gets the recording
// machine's stamp so diff has a comparability key.
func TestBuildRecordStampsEnv(t *testing.T) {
	rec := BuildRecord(&telemetry.RunReport{Component: "clgen"}, "")
	if rec.Env == (telemetry.EnvInfo{}) {
		t.Fatal("record left without an env stamp")
	}
}
