package interp

import (
	"errors"
	"testing"

	"clgen/internal/clc"
)

// stepLimitSrc is the shape of the synthesis campaign's kernels that
// exhaust their step budget: a per-work-item loop of scalar arithmetic,
// one load and one store through pointer parameters.
const stepLimitSrc = `__kernel void A(__global const float* a, __global float* b, const int c, const int d) {
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

// BenchmarkStepLimit runs the step-limit shape until it exhausts a fixed
// budget and reports the interpreter's cost per step.
func BenchmarkStepLimit(b *testing.B) {
	const steps, n = 1 << 20, 1 << 16
	f, err := clc.Parse(stepLimitSrc)
	if err != nil {
		b.Fatal(err)
	}
	if err := clc.Check(f); err != nil {
		b.Fatal(err)
	}
	env, err := NewEnv(f)
	if err != nil {
		b.Fatal(err)
	}
	a := NewBuffer(clc.Float, n, clc.Global)
	for i := range a.F {
		a.F[i] = float64(i%7) - 2.5
	}
	args := []Value{
		PtrValue(&Pointer{Buf: a, Elem: clc.TypeFloat}),
		PtrValue(&Pointer{Buf: NewBuffer(clc.Float, n, clc.Global), Elem: clc.TypeFloat}),
		IntValue(clc.Int, 1<<30), IntValue(clc.Int, n),
	}
	cfg := RunConfig{GlobalSize: [3]int{64, 1, 1}, MaxSteps: steps}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Run("A", args, cfg); !errors.Is(err, ErrStepLimit) {
			b.Fatalf("err = %v, want ErrStepLimit", err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/steps, "ns/step")
}
