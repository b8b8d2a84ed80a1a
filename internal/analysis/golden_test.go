package analysis_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clgen/internal/analysis"
	"clgen/internal/clc"
	"clgen/internal/corpus"
	"clgen/internal/github"
	"clgen/internal/suites"
)

// checkGolden compares got against testdata/name, regenerating the file
// when UPDATE_GOLDEN is set (the repo-wide golden convention).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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

// TestSuitesGolden is the false-positive gate over the seven benchmark
// suites: every diagnostic the analyzer emits on real (hand-audited)
// kernels is pinned in the golden file, and none may be Error severity —
// an Error here would make the strict filter reject a kernel the dynamic
// checker demonstrably accepts. cllint -suites runs the same sweep
// (cmd/cllint's TestLintSuites).
func TestSuitesGolden(t *testing.T) {
	var sb strings.Builder
	for _, b := range suites.All() {
		f, err := clc.Parse(b.Src)
		if err != nil {
			t.Fatalf("%s: parse: %v", b.ID(), err)
		}
		if err := clc.Check(f); err != nil {
			t.Fatalf("%s: check: %v", b.ID(), err)
		}
		rep := analysis.Analyze(f)
		sb.WriteString(rep.Render(b.ID()))
		for _, d := range rep.Errors() {
			t.Errorf("%s: unjustified Error diagnostic on a working benchmark: %s",
				b.ID(), analysis.FormatDiagnostic(b.ID(), d))
		}
		if rep.PredictedVerdict(f.Kernels()[0].Name) != "" {
			t.Errorf("%s: analyzer predicts a checker failure for a working benchmark", b.ID())
		}
	}
	checkGolden(t, "suites.golden", sb.String())
}

// TestCorpusAcceptedGolden pins the analyzer's verdict over the seed
// corpus: every content file the base (non-static) rejection filter
// accepts is analyzed, and the Error-severity diagnostics — exactly the
// ones strict mode would additionally reject on — are golden-checked.
// Files are keyed by mined index (the miner is seeded), so a diff here
// means the analyzer changed behavior on real corpus input.
func TestCorpusAcceptedGolden(t *testing.T) {
	files := github.Mine(github.MinerConfig{Seed: 1, Repos: 60, FilesPerRepo: 8})
	var sb strings.Builder
	accepted, flagged := 0, 0
	for i, cf := range files {
		res := corpus.Filter(cf.Text, true)
		if !res.OK {
			continue
		}
		accepted++
		rep := analysis.Analyze(res.File)
		errs := rep.Errors()
		if len(errs) == 0 {
			continue
		}
		flagged++
		prefix := fmt.Sprintf("file%03d", i)
		for _, d := range errs {
			// The access-region lints gate harder than the golden diff: any
			// Error from them on real accepted corpus code is a false
			// positive, never a new baseline to pin.
			if d.Lint == "work-item-race" || d.Lint == "addr-space-misuse" {
				t.Errorf("%s: access-region lint fired on accepted corpus code: %s",
					prefix, analysis.FormatDiagnostic(prefix, d))
			}
			sb.WriteString(analysis.FormatDiagnostic(prefix, d))
			sb.WriteByte('\n')
		}
	}
	fmt.Fprintf(&sb, "accepted=%d flagged=%d\n", accepted, flagged)
	if accepted == 0 {
		t.Fatal("no corpus file survived the base filter")
	}
	checkGolden(t, "corpus.golden", sb.String())
}
