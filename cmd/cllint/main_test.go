package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
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

// lintTestSrc exercises every SARIF level: an Error (buffer-overrun via
// the strided store), a Warn (unused kernel argument), and clean code.
const lintTestSrc = `
__kernel void stride(__global int* a) {
    int gid = get_global_id(0);
    a[2 * gid] = gid;
}

__kernel void map(__global const float* in, __global float* out, __global float* dead) {
    int gid = get_global_id(0);
    out[gid] = in[gid] * 2.0f;
}
`

// TestSarifGolden pins the SARIF 2.1.0 envelope: schema/version header,
// tool.driver with the sorted rule table, and one result per diagnostic
// with level and region.
func TestSarifGolden(t *testing.T) {
	var buf bytes.Buffer
	p := newPrinter(&buf, "sarif", false)
	if failed := lintSource(p, "test.cl", lintTestSrc, true); !failed {
		t.Fatal("expected the strided kernel to produce an Error diagnostic")
	}
	if err := p.flush(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sarif.golden", buf.String())
}

// TestSarifEmpty checks a clean input still yields a well-formed
// document (runs[0].results must be [] rather than null).
func TestSarifEmpty(t *testing.T) {
	var buf bytes.Buffer
	p := newPrinter(&buf, "sarif", false)
	if err := p.flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"results": []`)) {
		t.Errorf("empty SARIF document lacks an empty results array:\n%s", buf.String())
	}
}

// TestFootprintsGolden pins -footprints text output: per-kernel symbolic
// extents with written/overrun markers, kernels in name order.
func TestFootprintsGolden(t *testing.T) {
	var buf bytes.Buffer
	p := newPrinter(&buf, "text", true)
	lintSource(p, "test.cl", lintTestSrc, true)
	checkGolden(t, "footprints.golden", buf.String())
}

// TestLintSuites is cllint -suites' false-positive gate: no hand-audited
// benchmark kernel draws an Error diagnostic.
func TestLintSuites(t *testing.T) {
	var buf bytes.Buffer
	if lintSuites(newPrinter(&buf, "text", false), true) {
		t.Errorf("a suite kernel failed to analyze or drew an Error diagnostic:\n%s", buf.String())
	}
}
