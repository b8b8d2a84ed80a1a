// End-to-end gates: each test below builds the commands it drives and
// checks their exit codes and the journals and run histories they leave,
// through the same packages (internal/journal, internal/perf) the
// commands use.
package clgen_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"clgen/internal/journal"
	"clgen/internal/perf"
	"clgen/internal/telemetry"
)

// bins holds the commands the gate tests build: each at most once per
// test process, into one temporary directory TestMain removes.
var bins struct {
	sync.Mutex
	dir   string
	paths map[string]string
}

func TestMain(m *testing.M) {
	code := m.Run()
	if bins.dir != "" {
		os.RemoveAll(bins.dir)
	}
	os.Exit(code)
}

// command builds ./cmd/<name> on first use and returns the binary's path.
// The go test cache cannot see what a child go build reads, so command
// stats the sources that only the commands link, cmd/<name> and
// internal/cli: a change there then reruns the gates. Changes to the rest
// of internal/ already do, through this package's imports.
func command(t *testing.T, name string) string {
	t.Helper()
	bins.Lock()
	defer bins.Unlock()
	if p, ok := bins.paths[name]; ok {
		return p
	}
	for _, dir := range []string{filepath.Join("cmd", name), filepath.Join("internal", "cli")} {
		srcs, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(srcs) == 0 {
			t.Fatalf("no sources in %s: %v", dir, err)
		}
		for _, src := range srcs {
			if _, err := os.Stat(src); err != nil {
				t.Fatal(err)
			}
		}
	}
	var err error
	if bins.dir == "" {
		if bins.dir, err = os.MkdirTemp("", "clgen-gates-"); err != nil {
			t.Fatal(err)
		}
		bins.paths = map[string]string{}
	}
	p := filepath.Join(bins.dir, name)
	if out, err := exec.Command("go", "build", "-o", p, "./cmd/"+name).CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/%s: %v\n%s", name, err, out)
	}
	bins.paths[name] = p
	return p
}

// run runs a command with env added to the test's environment, fails the
// test unless it exits with want, and returns its stdout.
func run(t *testing.T, want int, env []string, name string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(command(t, name), args...)
	cmd.Env = append(os.Environ(), env...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if code != want {
		t.Fatalf("%s %s: exit %d, want %d\nstdout:\n%s\nstderr:\n%s",
			name, strings.Join(args, " "), code, want, stdout.Bytes(), stderr.Bytes())
	}
	return stdout.Bytes()
}

func readJournal(t *testing.T, path string) []journal.Event {
	t.Helper()
	events, err := journal.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// sample returns the small seeded synthesis run the clgen gates repeat,
// followed by args; a flag repeated in args overrides the default.
func sample(args ...string) []string {
	return append([]string{"-mode", "sample", "-n", "3", "-repos", "15", "-seed", "9", "-quiet"}, args...)
}

// TestProvenanceGate: same-seed runs journal the same events and cltrace
// diff passes them; a smaller corpus trips it; a negative threshold is an
// error.
func TestProvenanceGate(t *testing.T) {
	dir := t.TempDir()
	run1, run2, small := filepath.Join(dir, "run1.jsonl"), filepath.Join(dir, "run2.jsonl"), filepath.Join(dir, "small.jsonl")
	run(t, 0, nil, "clgen", sample("-journal", run1)...)
	run(t, 0, nil, "clgen", sample("-journal", run2)...)
	run(t, 0, nil, "clgen", sample("-repos", "10", "-journal", small)...)
	if !journal.Equivalent(readJournal(t, run1), readJournal(t, run2)) {
		t.Error("same-seed journals differ")
	}
	run(t, 0, nil, "cltrace", "funnel", run1)
	run(t, 0, nil, "cltrace", "diff", run1, run2)
	run(t, 1, nil, "cltrace", "diff", run1, small)
	run(t, 2, nil, "cltrace", "diff", "-threshold", "-1", run1, run2)
}

// TestCacheGate: a warm -cache-dir run prints what the cold run printed,
// journals the same events, and serves stage results from the cache.
func TestCacheGate(t *testing.T) {
	dir := t.TempDir()
	cache, cold, warm := filepath.Join(dir, "cache"), filepath.Join(dir, "cold.jsonl"), filepath.Join(dir, "warm.jsonl")
	coldOut := run(t, 0, nil, "clgen", sample("-cache-dir", cache, "-journal", cold)...)
	warmOut := run(t, 0, nil, "clgen", sample("-cache-dir", cache, "-journal", warm)...)
	if !bytes.Equal(coldOut, warmOut) {
		t.Errorf("warm stdout differs from cold:\n--- cold ---\n%s--- warm ---\n%s", coldOut, warmOut)
	}
	warmEvents := readJournal(t, warm)
	if !journal.Equivalent(readJournal(t, cold), warmEvents) {
		t.Error("warm journal differs from cold")
	}
	hits := 0
	for _, n := range journal.Funnel(warmEvents).CacheHits {
		hits += n
	}
	if hits == 0 {
		t.Error("warm run served nothing from cache")
	}
}

// TestModelGate: a model history of one evaluation recorded twice passes
// cltrace model diff; the same journal with every predicted device
// flipped trips it.
func TestModelGate(t *testing.T) {
	dir := t.TempDir()
	runPath, flipped, hist := filepath.Join(dir, "run.jsonl"), filepath.Join(dir, "flipped.jsonl"), filepath.Join(dir, "hist.jsonl")
	run(t, 0, nil, "clexp", "-scale", "test", "-run", "fig7,fig8", "-seed", "9", "-quiet", "-journal", runPath)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	predictions := 0
	for _, e := range readJournal(t, runPath) {
		if e.Stage == journal.StagePredicted {
			predictions++
			e.Predicted = map[string]string{"CPU": "GPU", "GPU": "CPU"}[e.Predicted]
		}
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	if predictions == 0 {
		t.Fatal("evaluation journaled no predicted events")
	}
	if err := os.WriteFile(flipped, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	run(t, 0, nil, "cltrace", "model", "report", runPath)
	run(t, 0, nil, "cltrace", "model", "record", "-history", hist, runPath)
	run(t, 0, nil, "cltrace", "model", "record", "-history", hist, runPath)
	run(t, 0, nil, "cltrace", "model", "diff", hist)
	run(t, 0, nil, "cltrace", "model", "record", "-history", hist, flipped)
	run(t, 1, nil, "cltrace", "model", "diff", hist)
	run(t, 0, nil, "cltrace", "model", "history", hist)
}

// TestFeatureGate: -precise-features journals agree across worker counts
// and hold feature-agreement events; Table 1 prediction accuracy moves by
// at most 2 percentage points between heuristic and precise features.
func TestFeatureGate(t *testing.T) {
	dir := t.TempDir()
	w1, wN := filepath.Join(dir, "w1.jsonl"), filepath.Join(dir, "wN.jsonl")
	run(t, 0, nil, "clgen", sample("-workers", "1", "-precise-features", "-journal", w1)...)
	run(t, 0, nil, "clgen", sample("-precise-features", "-journal", wN)...)
	events := readJournal(t, wN)
	if !journal.Equivalent(readJournal(t, w1), events) {
		t.Error("precise-features journals differ between -workers 1 and the default")
	}
	if journal.Funnel(events).FeatureKernels == 0 {
		t.Error("run journaled no feature-agreement events")
	}
	accuracy := func(name string, extra ...string) float64 {
		path := filepath.Join(dir, name+".jsonl")
		args := append([]string{"-scale", "test", "-run", "table1", "-seed", "9", "-quiet", "-journal", path}, extra...)
		run(t, 0, nil, "clexp", args...)
		f := journal.Funnel(readJournal(t, path))
		if f.Predictions == 0 {
			t.Fatalf("%s Table 1 run journaled no predictions", name)
		}
		return f.PredictionAccuracy() * 100
	}
	heur, prec := accuracy("heuristic"), accuracy("precise", "-precise-features")
	if math.Abs(heur-prec) > 2 {
		t.Errorf("Table 1 accuracy moved %.2f pp between heuristic (%.2f%%) and precise (%.2f%%) features",
			math.Abs(heur-prec), heur, prec)
	}
}

// TestFootprintGate: the strided fixture kernel crashes under the §5.1
// buffer sizes and is rescued by -footprint-sizing, and its footprint
// journals agree across worker counts.
func TestFootprintGate(t *testing.T) {
	const stride = "internal/driver/testdata/stride.cl"
	dir := t.TempDir()
	w1, wN := filepath.Join(dir, "w1.jsonl"), filepath.Join(dir, "wN.jsonl")
	run(t, 2, nil, "cldrive", "-quiet", stride)
	run(t, 0, nil, "cldrive", "-quiet", "-footprint-sizing", stride)
	run(t, 0, nil, "cldrive", "-quiet", "-footprint-sizing", "-workers", "1", "-journal", w1, stride)
	run(t, 0, nil, "cldrive", "-quiet", "-footprint-sizing", "-journal", wN, stride)
	events := readJournal(t, wN)
	if !journal.Equivalent(readJournal(t, w1), events) {
		t.Error("footprint journals differ between -workers 1 and the default")
	}
	if got := journal.Funnel(events).FootprintRescued; got != 1 {
		t.Errorf("FootprintRescued = %d, want 1", got)
	}
}

// TestPerfGate: two same-seed -perf runs pass clperf diff, a run with an
// injected sleep in core.synthesize trips it on that stage, and a
// single-worker run under a longer sleep leaves a stall dump naming the
// stage and its in-flight artifact. The floor of 1 s keeps the clean pair
// from flapping when other tests load the CPUs; the injected 2 s is twice
// that. -workers 1 is needed for the stall: with more workers the others
// keep advancing and the watchdog, correctly, does not fire.
func TestPerfGate(t *testing.T) {
	dir := t.TempDir()
	hist, dump := filepath.Join(dir, "hist.jsonl"), filepath.Join(dir, "stall.txt")
	gate := []string{"diff", "-threshold", "100", "-min-seconds", "1", hist}
	record := sample("-perf", "-perf-history", hist)
	run(t, 0, nil, "clgen", record...)
	run(t, 0, nil, "clgen", record...)
	run(t, 0, nil, "clperf", gate...)
	run(t, 0, []string{telemetry.FaultSleepEnv + "=core.synthesize=2s"}, "clgen", record...)
	run(t, 1, nil, "clperf", gate...)
	run(t, 0, nil, "clperf", "history", hist)
	history, err := perf.ReadHistory(hist)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := perf.Diff(history, perf.StageRules(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	slowed := false
	for _, m := range rep.Metrics {
		slowed = slowed || (m.Metric == "core.synthesize wall_s" && m.Regressed)
	}
	if !slowed {
		t.Errorf("core.synthesize slept 2 s but did not regress: %+v", rep.Metrics)
	}

	run(t, 0, []string{telemetry.FaultSleepEnv + "=core.synthesize=3s"}, "clgen",
		sample("-workers", "1", "-stall-timeout", "1s", "-stall-dump", dump)...)
	text, err := os.ReadFile(dump)
	if err != nil {
		t.Fatalf("stall watchdog left no dump: %v", err)
	}
	for _, want := range []string{"core.synthesize", "attempt-"} {
		if !bytes.Contains(text, []byte(want)) {
			t.Errorf("stall dump does not name %q:\n%s", want, text)
		}
	}
}

// TestLintExitCodes: cllint runs no pipeline, so each pipeline flag is a
// usage error (exit 2), and a -report or -perf-history it cannot write is
// an I/O failure (exit 2).
func TestLintExitCodes(t *testing.T) {
	dir := t.TempDir()
	kernel := filepath.Join(dir, "k.cl")
	if err := os.WriteFile(kernel, []byte("__kernel void A(__global float* a) {\n  a[get_global_id(0)] = 1.0f;\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	run(t, 0, nil, "cllint", "-quiet", kernel)
	missing := filepath.Join(dir, "missing")
	for _, args := range [][]string{
		{"-journal", filepath.Join(dir, "run.jsonl")},
		{"-cache-dir", filepath.Join(dir, "cache")},
		{"-static-checks"},
		{"-precise-features"},
		{"-footprint-sizing"},
		{"-workers", "2"},
		{"-report", filepath.Join(missing, "report.json")},
		{"-perf-history", filepath.Join(missing, "hist.jsonl")},
	} {
		run(t, 2, nil, "cllint", append(append([]string{"-quiet"}, args...), kernel)...)
	}
}
