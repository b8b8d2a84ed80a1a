package interp_test

import (
	"errors"
	"strings"
	"testing"

	"clgen/internal/clc"
	"clgen/internal/interp"
)

// boundFixtures are the synthesis campaign's two step-limit shapes, with
// loop bounds scaled so that they exceed FuzzRun's budget on its 8-item
// NDRange, and near misses that BoundSteps must not settle. FuzzRun seeds
// from every kernel in this file.
var boundFixtures = []struct {
	name string
	src  string
	// proven: BoundSteps proves the launch runs out of budget. exact: the
	// bound equals the steps of a run with budget to spare. ends: how the
	// launch ends before its budget runs out, "fault" or "ok"; empty when
	// it runs out.
	proven, exact bool
	ends          string
}{
	{name: "sum shape", proven: true, src: `__kernel void A(__global const float* a, __global float* b, const int c, const int d) {
  int e = get_global_id(0);
  float f = 0.0f;
  for (int g = 0; g < c * 256; g++) {
    int h = e * c + g;
    if (h < d) {
      f += a[h];
      b[h] = f;
    }
  }
}`},
	{name: "iterate shape", proven: true, exact: true, src: `__kernel void A(__global const uint* a, __global uint* b, const int c, const int d) {
  uint e = get_global_id(0);
  if (e >= c * 2) {
    return;
  }
  float f = a[e];
  for (int g = 0; g < d * 64; g++) {
    f = 0.5f * (f + a[e] / (f + 1.0f));
  }
  b[e] = f;
}`},
	{name: "iterate shape, guarded", proven: true, exact: true, src: `__kernel void A(__global const double* a, __global double* b, const int c, const int d) {
  int e = get_global_id(0);
  if (e < c * 2) {
    double f = a[e];
    for (int g = 0; g < d * 64; g++) {
      f = 0.5f * (f + a[e] / (f + 1.0f));
    }
    b[e] = f;
  }
}`},
	{name: "bound that grows with the work-item id", src: `__kernel void A(__global const float* a, __global float* b, const int c, const int d) {
  int e = get_global_id(0);
  float f = a[e];
  for (int g = 0; g < e * 512; g++) {
    f = 0.5f * (f + a[e] / (f + 1.0f));
  }
  b[e] = f;
}`},
	{name: "out-of-bounds store after the loop", src: `__kernel void A(__global const float* a, __global float* b, const int c, const int d) {
  int e = get_global_id(0);
  float f = a[e];
  for (int g = 0; g < d * 256; g++) {
    f = 0.5f * (f + a[e] / (f + 1.0f));
  }
  b[e + 57] = f;
}`},
	{name: "out-of-bounds store before the loop", ends: "fault", src: `__kernel void A(__global const float* a, __global float* b, const int c, const int d) {
  int e = get_global_id(0);
  b[e + 57] = 0.0f;
  float f = a[e];
  for (int g = 0; g < d * 25; g++) {
    f = 0.5f * (f + a[e] / (f + 1.0f));
  }
  b[e] = f;
}`},
	{name: "pointer test after an undecided if", ends: "ok", src: `__kernel void A(__global const float* a, __global float* b, const int c, const int d) {
  int e = get_global_id(0);
  if (e < 4) {
    e = e + 0;
  }
  if (b) {
    return;
  }
  float f = 0.0f;
  for (int g = 0; g < d * 256; g++) {
    f = f * 0.5f;
  }
}`},
	{name: "faulting store under a pointer test", ends: "fault", src: `__kernel void A(__global const float* a, __global float* b, const int c, const int d) {
  int e = get_global_id(0);
  if (e < 4) {
    e = e + 0;
  }
  if (b) {
    b[e + 100000] = 0.0f;
  }
  float f = 0.0f;
  for (int g = 0; g < d * 256; g++) {
    f = f * 0.5f;
  }
}`},
	{name: "break in the loop", src: `__kernel void A(__global const float* a, __global float* b, const int c, const int d) {
  int e = get_global_id(0);
  float f = a[e];
  for (int g = 0; g < d * 64; g++) {
    f = 0.5f * (f + a[e] / (f + 1.0f));
    if (f > 1000.0f) {
      break;
    }
  }
  b[e] = f;
}`},
	{name: "return in the loop", src: `__kernel void A(__global const float* a, __global float* b, const int c, const int d) {
  int e = get_global_id(0);
  float f = a[e];
  for (int g = 0; g < d * 64; g++) {
    f = 0.5f * (f + a[e] / (f + 1.0f));
    if (f > 1000.0f) {
      return;
    }
  }
  b[e] = f;
}`},
	{name: "bound written in the loop", src: `__kernel void A(__global const float* a, __global float* b, const int c, const int d) {
  int e = get_global_id(0);
  float f = a[e];
  int n = d * 64;
  for (int g = 0; g < n; g++) {
    f = 0.5f * (f + a[e] / (f + 1.0f));
    n = n + 0;
  }
  b[e] = f;
}`},
	{name: "index loaded from a buffer", src: `__kernel void A(__global const int* a, __global float* b, const int c, const int d) {
  int e = get_global_id(0);
  float f = 0.0f;
  for (int g = 0; g < c * 256; g++) {
    f += b[a[e]];
  }
  b[e] = f;
}`},
	{name: "user call", src: `float B(float x) { return 0.5f * (x + 1.0f / (x + 1.0f)); }
__kernel void A(__global const float* a, __global float* b, const int c, const int d) {
  int e = get_global_id(0);
  float f = a[e];
  for (int g = 0; g < d * 64; g++) {
    f = B(f);
  }
  b[e] = f;
}`},
	{name: "barrier", src: `__kernel void A(__global const float* a, __global float* b, const int c, const int d) {
  int e = get_global_id(0);
  float f = a[e];
  for (int g = 0; g < d * 64; g++) {
    f = 0.5f * (f + a[e] / (f + 1.0f));
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  b[e] = f;
}`},
}

// TestBoundStepsFixtures runs every fixture on FuzzRun's launch: each one
// runs out of budget, faults first or ends first, as the fixture says, and
// BoundSteps proves exactly the shapes run out. With budget to spare, no
// bound exceeds the steps of the run, and an exact fixture's bound equals
// them.
func TestBoundStepsFixtures(t *testing.T) {
	for _, fx := range boundFixtures {
		t.Run(fx.name, func(t *testing.T) {
			file, err := clc.Parse(fx.src)
			if err != nil {
				t.Fatal(err)
			}
			if err := clc.Check(file); err != nil {
				t.Fatal(err)
			}
			env, err := interp.NewEnv(file)
			if err != nil {
				t.Fatal(err)
			}
			fd, _ := env.Kernel("A")
			args, _ := fuzzArgs(fd, argsDeclared)
			cfg := interp.RunConfig{GlobalSize: [3]int{8, 1, 1}, LocalSize: [3]int{4, 1, 1}, MaxSteps: fuzzSteps}
			b := env.BoundSteps("A", args, cfg)
			prof, err := env.Run("A", args, cfg)
			var mf *interp.MemFault
			ends := ""
			switch {
			case errors.As(err, &mf):
				ends = "fault"
			case err == nil:
				ends = "ok"
			case !errors.Is(err, interp.ErrStepLimit) || prof.Steps != fuzzSteps+1:
				t.Fatalf("run: %v after %d steps", err, prof.Steps)
			}
			if ends != fx.ends {
				t.Fatalf("run ended %q (%v), want %q", ends, err, fx.ends)
			}
			if b.RunsOut() != fx.proven {
				t.Errorf("proven = %v (bound %d, safe %v), want %v", b.RunsOut(), b.Steps, b.Safe, fx.proven)
			}
			cfg.MaxSteps = 1 << 24
			b = env.BoundSteps("A", args, cfg)
			prof, err = env.Run("A", args, cfg)
			if b.Steps > prof.Steps || fx.exact && (err != nil || !b.Safe || b.Steps != prof.Steps) {
				t.Errorf("bound %d (safe %v), run %d steps, err %v", b.Steps, b.Safe, prof.Steps, err)
			}
		})
	}
}

// TestGoldenStepBound holds BoundSteps to the outcomes runs.golden
// records for its 917 launches: a bound never exceeds the steps of a
// launch that did not run out, a launch proven free of other errors ended
// with none or with the step limit, and only step-limit launches are
// proven to run out, every one of the synthesis campaign's among them. It
// logs how many step-limit launches the proof covers.
func TestGoldenStepBound(t *testing.T) {
	want, err := readGolden(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	runs := goldenRuns(t)
	if len(runs) != len(want) {
		t.Fatalf("%d runs, the golden has %d", len(runs), len(want))
	}
	proven, limits, safe, exact := 0, 0, 0, 0
	for i, r := range runs {
		rec := want[i]
		b := r.env.BoundSteps(r.name, r.args, r.cfg)
		limit := rec.Class == "step-limit"
		switch {
		case b.Safe && rec.Err != "" && !limit:
			t.Errorf("%s: proven free of other errors, failed with %q", rec.ID, rec.Err)
		case b.RunsOut() && !limit:
			t.Errorf("%s: proven to run out (bound %d), ended without the step limit", rec.ID, b.Steps)
		case !limit && rec.Profile != nil && b.Steps > rec.Profile.Steps:
			t.Errorf("%s: bound %d exceeds the %d steps recorded", rec.ID, b.Steps, rec.Profile.Steps)
		case limit && strings.HasPrefix(rec.ID, "synth/") && !b.RunsOut():
			t.Errorf("%s: campaign step-limit launch not proven (bound %d, safe %v)", rec.ID, b.Steps, b.Safe)
		}
		if limit {
			limits++
		}
		if b.RunsOut() {
			proven++
		}
		if b.Safe {
			safe++
		}
		if b.Safe && !limit && b.Steps == rec.Profile.Steps {
			exact++
		}
	}
	t.Logf("the proof settles %d of the %d step-limit launches; %d launches proven free of other errors, %d bounds exact", proven, limits, safe, exact)
}
