package driver

import (
	"math/rand"
	"strings"
	"testing"

	"clgen/internal/clc"
	"clgen/internal/platform"
)

const zipSrc = `__kernel void A(__global float* a, __global float* b, __global float* c, const int d) {
  int e = get_global_id(0);
  if (e >= d) {
    return;
  }
  c[e] = a[e] + b[e] + 2 * a[e] + b[e] + 4;
}`

func TestLoadKernel(t *testing.T) {
	k, err := Load(zipSrc)
	if err != nil {
		t.Fatal(err)
	}
	if k.Name != "A" || k.Static.Mem == 0 {
		t.Errorf("kernel: %+v", k.Static)
	}
}

func TestLoadRejectsIrregularTypes(t *testing.T) {
	src := `struct P { int a; };
__kernel void A(__global struct P* p) {
  p[get_global_id(0)].a = 1;
}`
	if _, err := Load(src); err == nil || !strings.Contains(err.Error(), "irregular") {
		t.Errorf("err = %v", err)
	}
}

func TestGeneratePayloadRules(t *testing.T) {
	src := `__kernel void A(__global float* in, __global float* out, __local float* scratch, const int n, const float alpha) {
  int i = get_global_id(0);
  if (i < n) { out[i] = in[i] * alpha; }
}`
	k, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	p, err := GeneratePayload(k, 256, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Args) != 5 {
		t.Fatalf("args = %d", len(p.Args))
	}
	// Global buffers have Sg elements.
	if got := p.Args[0].Ptr.Buf.Len(); got != 256 {
		t.Errorf("in buffer len = %d", got)
	}
	// Local buffer is device-only scratch sized to the work-group.
	if got := p.Args[2].Ptr.Buf.Len(); got != p.LocalSize {
		t.Errorf("local buffer len = %d, want %d", got, p.LocalSize)
	}
	if p.Args[2].Ptr.Buf.Space != clc.Local {
		t.Error("local buffer space wrong")
	}
	// Integral scalars get the value Sg.
	if p.Args[3].Int() != 256 {
		t.Errorf("n = %d, want 256", p.Args[3].Int())
	}
	// Transfers: in and out are both non-const non-write-only globals, so
	// each moves host→device and device→host: 4 × 256 × 4 bytes.
	if p.TransferBytes != 4*256*4 {
		t.Errorf("transfer = %d", p.TransferBytes)
	}
	// Random data actually randomized.
	var nonzero int
	for _, f := range p.Args[0].Ptr.Buf.F {
		if f != 0 {
			nonzero++
		}
	}
	if nonzero < 200 {
		t.Errorf("buffer barely randomized: %d nonzero", nonzero)
	}
}

func TestPayloadConstPointerNotReadBack(t *testing.T) {
	src := `__kernel void A(__global const float* in, __global float* out, const int n) {
  int i = get_global_id(0);
  if (i < n) { out[i] = in[i]; }
}`
	k, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := GeneratePayload(k, 64, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Outputs()) != 1 {
		t.Errorf("outputs = %d, want 1 (const input not read back)", len(p.Outputs()))
	}
}

func TestCheckUsefulWork(t *testing.T) {
	k, err := Load(zipSrc)
	if err != nil {
		t.Fatal(err)
	}
	res := Check(k, 128, 7, RunConfig{})
	if !res.OK() {
		t.Fatalf("verdict = %s (%v)", res.Verdict, res.Err)
	}
	if res.Profile == nil || res.Profile.GlobalLoads == 0 {
		t.Error("no profile captured")
	}
}

func TestCheckNoOutput(t *testing.T) {
	src := `__kernel void A(__global float* a, const int n) {
  int i = get_global_id(0);
  float x = a[i % n] * 2.0f;
  x = x + 1.0f;
}`
	k, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	res := Check(k, 64, 1, RunConfig{})
	if res.Verdict != NoOutput {
		t.Errorf("verdict = %s, want %s", res.Verdict, NoOutput)
	}
}

func TestCheckInputInsensitive(t *testing.T) {
	src := `__kernel void A(__global float* a, const int n) {
  int i = get_global_id(0);
  if (i < n) { a[i] = 42.0f; }
}`
	k, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	res := Check(k, 64, 1, RunConfig{})
	if res.Verdict != InputInsensitive {
		t.Errorf("verdict = %s, want %s", res.Verdict, InputInsensitive)
	}
}

func TestCheckRunFailureOnNonTermination(t *testing.T) {
	src := `__kernel void A(__global float* a, const int n) {
  while (1) { a[0] += 1.0f; }
}`
	k, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	res := Check(k, 8, 1, RunConfig{MaxSteps: 50000})
	if res.Verdict != RunFailure {
		t.Errorf("verdict = %s, want %s", res.Verdict, RunFailure)
	}
}

func TestCheckRunFailureOnOOB(t *testing.T) {
	src := `__kernel void A(__global float* a, const int n) {
  a[get_global_id(0) * n] = 1.0f;
}`
	k, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	res := Check(k, 64, 1, RunConfig{})
	if res.Verdict != RunFailure {
		t.Errorf("verdict = %s, want %s", res.Verdict, RunFailure)
	}
}

func TestCheckDeterministicKernelPasses(t *testing.T) {
	// Barrier kernel: lockstep execution must stay deterministic.
	src := `__kernel void A(__global float* a, __local float* s, const int n) {
  int lid = get_local_id(0);
  int gid = get_global_id(0);
  s[lid] = a[gid];
  barrier(CLK_LOCAL_MEM_FENCE);
  a[gid] = s[(lid + 1) % get_local_size(0)] * 0.5f;
}`
	k, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	res := Check(k, 128, 3, RunConfig{})
	if !res.OK() {
		t.Errorf("verdict = %s (%v)", res.Verdict, res.Err)
	}
}

func TestMeasureProducesOracle(t *testing.T) {
	k, err := Load(zipSrc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Measure(k, 512, platform.SystemAMD, 11, MeasureConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.CPUTime <= 0 || m.GPUTime <= 0 {
		t.Errorf("times: %g %g", m.CPUTime, m.GPUTime)
	}
	if m.Vector.Transfer == 0 || m.Vector.WgSize == 0 {
		t.Errorf("dynamic features missing: %+v", m.Vector.Dynamic)
	}
	// Tiny streaming kernel: CPU must win on the AMD system.
	if m.Oracle != platform.CPU {
		t.Errorf("oracle = %s for 512-element zip", m.Oracle)
	}
}

func TestMeasureRejectsUselessKernel(t *testing.T) {
	src := `__kernel void A(__global float* a, const int n) {
  int i = get_global_id(0);
  if (i < n) { a[i] = 1.0f; }
}`
	k, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Measure(k, 64, platform.SystemAMD, 1, MeasureConfig{}); err == nil {
		t.Error("input-insensitive kernel measured")
	}
}
