// End-to-end gates: each test below builds the commands or examples it
// drives and checks their exit codes and the journals and run histories
// they leave, through the same packages (internal/journal, internal/perf)
// the commands use.
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

// bins holds the binaries the gate tests build: each at most once per
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
func command(t *testing.T, name string) string {
	return build(t, filepath.Join("cmd", name), filepath.Join("internal", "cli"))
}

// build builds the main package in dir on first use and returns the
// binary's path. The go test cache cannot see what a child go build
// reads, so build stats the sources of dir and of extra, the packages
// only the binaries link (internal/cli for the commands): a change there
// then reruns the test instead of serving (cached). Changes to the rest
// of internal/ already do, through this package's imports.
func build(t *testing.T, dir string, extra ...string) string {
	t.Helper()
	bins.Lock()
	defer bins.Unlock()
	if p, ok := bins.paths[dir]; ok {
		return p
	}
	for _, d := range append([]string{dir}, extra...) {
		srcs, err := filepath.Glob(filepath.Join(d, "*.go"))
		if err != nil || len(srcs) == 0 {
			t.Fatalf("no sources in %s: %v", d, err)
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
	p := filepath.Join(bins.dir, filepath.Base(dir))
	if out, err := exec.Command("go", "build", "-o", p, "./"+filepath.ToSlash(dir)).CombinedOutput(); err != nil {
		t.Fatalf("go build ./%s: %v\n%s", dir, err, out)
	}
	bins.paths[dir] = p
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

// TestStaticGate: under -static-checks cldrive prints the analyzer's
// forecast for a kernel that writes past its buffer, then executes the
// checker as it does without the flag: the same verdict, cause and fault
// lines, exit 2, and one static_filter and one checked event, which
// cltrace funnel joins into one agreement cell.
func TestStaticGate(t *testing.T) {
	dir := t.TempDir()
	kernel, path := filepath.Join(dir, "oob.cl"), filepath.Join(dir, "run.jsonl")
	src := "__kernel void A(__global float* a, __global float* b) {\n  int i = get_global_id(0);\n  b[i+5] = a[i];\n}\n"
	if err := os.WriteFile(kernel, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	plain := run(t, 2, nil, "cldrive", "-quiet", kernel)
	for _, want := range []string{"dynamic checker: run failure\n", "  cause: ", "  fault: argument 1 (b) write"} {
		if !bytes.Contains(plain, []byte(want)) {
			t.Fatalf("cldrive stdout lacks %q:\n%s", want, plain)
		}
	}
	static := run(t, 2, nil, "cldrive", "-quiet", "-static-checks", "-journal", path, kernel)
	forecast := []byte("static forecast: run failure (static: oob-index)\n")
	if !bytes.Contains(static, forecast) {
		t.Errorf("-static-checks stdout lacks %q:\n%s", forecast, static)
	}
	if got := bytes.Replace(static, forecast, nil, 1); !bytes.Equal(got, plain) {
		t.Errorf("-static-checks changed the checker's output:\n--- without ---\n%s--- with ---\n%s", plain, static)
	}
	events := readJournal(t, path)
	stages := map[journal.Stage]int{}
	for _, e := range events {
		stages[e.Stage]++
	}
	if stages[journal.StageStaticFilter] != 1 || stages[journal.StageChecked] != 1 {
		t.Errorf("journaled %d static_filter and %d checked events, want 1 and 1",
			stages[journal.StageStaticFilter], stages[journal.StageChecked])
	}
	cell := journal.AgreementCell{Predicted: "run failure", Actual: "run failure"}
	if got := journal.Funnel(events).Agreement; got[cell] != 1 || len(got) != 1 {
		t.Errorf("agreement table %v, want only %+v once", got, cell)
	}
}

// TestPerfGate: two same-seed -perf runs pass clperf diff, and a run with
// an injected sleep at the start of the core.synthesize span trips it on
// that stage. The floor of 1 s keeps the clean pair from flapping when
// other tests load the CPUs; the injected 2 s is twice that.
func TestPerfGate(t *testing.T) {
	hist := filepath.Join(t.TempDir(), "hist.jsonl")
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
}

// TestLintExitCodes: cllint runs no pipeline, so each pipeline flag is a
// usage error (exit 2), as is -json (-format alone picks the output
// format), and a -report or -perf-history it cannot write is an I/O
// failure (exit 2).
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
		{"-json"},
		{"-report", filepath.Join(missing, "report.json")},
		{"-perf-history", filepath.Join(missing, "hist.jsonl")},
	} {
		run(t, 2, nil, "cllint", append(append([]string{"-quiet"}, args...), kernel)...)
	}
}

// campaignOutput is the stdout of `clexp -scale test -run all`: every
// table and figure of the test-scale campaign. It has no timings and is
// the same at every -workers.
const campaignOutput = "examples/clexp_test_output.txt"

// TestCampaignOutput runs the test-scale campaign and compares its stdout
// with campaignOutput byte for byte, so that a change that moves any table
// or figure fails here. Regenerate with UPDATE_GOLDEN=1 only for a
// deliberate change of results.
func TestCampaignOutput(t *testing.T) {
	got := run(t, 0, nil, "clexp", "-scale", "test", "-run", "all", "-quiet")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(campaignOutput, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(campaignOutput)
	if err != nil {
		t.Fatalf("read %s (run with UPDATE_GOLDEN=1 to regenerate): %v", campaignOutput, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("line %d of the campaign's stdout differs from %s:\n got %q\nwant %q", i+1, campaignOutput, gl[i], wl[i])
		}
	}
	t.Fatalf("the campaign's stdout has %d lines, %s %d", len(gl), campaignOutput, len(wl))
}

// TestUsageExitCodes: a usage error exits 1 before any work, and the
// flags that select work are applied at every scale.
func TestUsageExitCodes(t *testing.T) {
	// noFile fails the test if a usage error left the file at path.
	noFile := func(t *testing.T, path string) {
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("the usage error left %s (stat: %v)", filepath.Base(path), err)
		}
	}
	t.Run("clexp-seed", func(t *testing.T) {
		corpus := func(args ...string) []byte {
			return run(t, 0, nil, "clexp", append([]string{"-scale", "test", "-run", "corpus", "-quiet"}, args...)...)
		}
		def := corpus()
		if !bytes.Equal(def, corpus("-seed", "7")) {
			t.Error("clexp -scale test without -seed no longer runs seed 7")
		}
		if bytes.Equal(def, corpus("-seed", "9")) {
			t.Error("clexp -scale test -seed 9 printed what seed 7 prints")
		}
	})
	t.Run("clexp-run", func(t *testing.T) {
		if out := run(t, 1, nil, "clexp", "-scale", "test", "-run", "tabel1", "-quiet"); len(out) != 0 {
			t.Errorf("clexp -run tabel1 printed:\n%s", out)
		}
	})
	t.Run("clexp-scale", func(t *testing.T) {
		hist := filepath.Join(t.TempDir(), "hist.jsonl")
		if out := run(t, 1, nil, "clexp", "-scale", "tset", "-run", "table2", "-quiet", "-perf-history", hist); len(out) != 0 {
			t.Errorf("clexp -scale tset printed:\n%s", out)
		}
		noFile(t, hist)
	})
	t.Run("clgen-mode", func(t *testing.T) {
		hist := filepath.Join(t.TempDir(), "hist.jsonl")
		run(t, 1, nil, "clgen", "-mode", "bogus", "-quiet", "-perf-history", hist)
		noFile(t, hist)
	})
	t.Run("clgen-model", func(t *testing.T) {
		hist := filepath.Join(t.TempDir(), "hist.jsonl")
		run(t, 1, nil, "clgen", "-mode", "train", "-repos", "15", "-quiet", "-perf-history", hist)
		noFile(t, hist)
	})
	t.Run("cldrive-size", func(t *testing.T) {
		dir := t.TempDir()
		kernel, path := filepath.Join(dir, "k.cl"), filepath.Join(dir, "run.jsonl")
		if err := os.WriteFile(kernel, []byte("__kernel void A(__global float* a) {\n  a[get_global_id(0)] = 1.0f;\n}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, size := range []string{"0", "-1"} {
			run(t, 1, nil, "cldrive", "-quiet", "-size", size, "-journal", path, kernel)
			noFile(t, path)
		}
	})
}

// TestExamplesRun: every program under examples/ runs to exit 0. The
// examples are the only callers of corpus.Build, corpus.FilterSample and
// Profile.ComputeOps outside tests, so they must run, not just compile.
func TestExamplesRun(t *testing.T) {
	mains, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no examples: %v", err)
	}
	for _, src := range mains {
		dir := filepath.Dir(src)
		t.Run(filepath.Base(dir), func(t *testing.T) {
			cmd := exec.Command(build(t, dir))
			cmd.Dir = t.TempDir()
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("%s: %v\n%s", dir, err, out)
			}
		})
	}
}
