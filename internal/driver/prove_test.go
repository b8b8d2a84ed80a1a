package driver

import (
	"errors"
	"math/rand"
	"testing"

	"clgen/internal/cache"
	"clgen/internal/interp"
	"clgen/internal/journal"
	"clgen/internal/telemetry"
)

// The synthesis campaign's two step-limit shapes, as the test-scale
// campaign synthesizes them. Under §5.1 payloads c and d both equal the
// global size.
const (
	sumShapeSrc = `__kernel void A(__global const double* a, __global double* b, const int c, const int d) {
  int e = get_global_id(0);
  float f = 0.0f;
  for (int g = 0; g < c; g++) {
    int h = e * c + g;
    if (h < d) {
      f += a[h];
      b[h] = f;
    }
  }
}`
	iterateShapeSrc = `__kernel void A(__global const uint* a, __global uint* b, const int c, const int d) {
  int e = get_global_id(0);
  if (e >= c) {
    return;
  }
  float f = a[e];
  for (int g = 0; g < d; g++) {
    f = 0.5f * (f + a[e] / (f + 1.0f));
  }
  b[e] = f;
}`
)

// TestProvenStepLimitMatchesRun: wherever the step-limit proof settles a
// check, Check returns what executing A1 returns: the verdict, the error's
// text and class (errors.Is ErrStepLimit), the steps, and no profile or
// fault, cold and served warm by the persistent memo, with equivalent
// checked events. driver_step_limit_proofs_total counts each check proven
// on a cold memo, and no memo hit.
func TestProvenStepLimitMatchesRun(t *testing.T) {
	if err := cache.SetDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.SetDir("") })
	cache.FlushMemory()

	const size, seed = 64, 1
	cfg := RunConfig{MaxSteps: failureSteps}
	proofs := telemetry.Default().Counter("driver_step_limit_proofs_total", "")
	type kernel struct {
		name, src string
		proven    bool
	}
	kernels := []kernel{{"sum shape", sumShapeSrc, true}, {"iterate shape", iterateShapeSrc, true}}
	for _, fk := range failureKernels {
		kernels = append(kernels, kernel{fk.name, fk.src, false})
	}
	for _, tc := range kernels {
		t.Run(tc.name, func(t *testing.T) {
			k, err := Load(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			// Check's first payload, executed.
			a1, err := GeneratePayload(k, size, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			prof, err := k.Run(a1, cfg)
			if err == nil {
				t.Fatal("A1 ran to completion")
			}
			want := runFailure(err)
			want.Steps = prof.Steps

			n := proofs.Value()
			var cold, warm CheckResult
			coldEvents := captureJournal(t, func() { cold = Check(k, size, seed, cfg) })
			proven := proofs.Value() - n
			cache.FlushMemory() // only the persistent tier stays warm
			n = proofs.Value()
			warmEvents := captureJournal(t, func() { warm = Check(k, size, seed, cfg) })
			if cold.CacheHit || !warm.CacheHit {
				t.Fatalf("cache hits: cold %v, warm %v", cold.CacheHit, warm.CacheHit)
			}
			wantProofs := int64(0)
			if tc.proven {
				wantProofs = 1
			}
			if proven != wantProofs || proofs.Value() != n {
				t.Errorf("proofs counted: %d cold, %d warm; proven %v", proven, proofs.Value()-n, tc.proven)
			}
			if !journal.Equivalent(coldEvents, warmEvents) {
				t.Error("cold and warm check journals not equivalent")
			}
			if !tc.proven {
				return
			}
			for _, res := range []CheckResult{cold, warm} {
				if res.Verdict != want.Verdict || res.Err.Error() != want.Err.Error() ||
					!errors.Is(res.Err, interp.ErrStepLimit) || errClass(res.Err) != errClass(want.Err) ||
					res.Steps != want.Steps || res.Profile != nil || res.Fault != nil {
					t.Errorf("check %+v, A1 executed %+v", res, want)
				}
			}
		})
	}
}
