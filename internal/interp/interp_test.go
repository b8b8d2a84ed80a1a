package interp

import (
	"errors"
	"math"
	"strings"
	"testing"

	"clgen/internal/clc"
)

// buildEnv compiles source and prepares an Env.
func buildEnv(t *testing.T, src string) *Env {
	t.Helper()
	f, err := clc.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := clc.Check(f); err != nil {
		t.Fatalf("check: %v", err)
	}
	env, err := NewEnv(f)
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	return env
}

// floatBuf wraps data in a global float buffer.
func floatBuf(data []float64) *Buffer {
	b := NewBuffer(clc.Float, len(data), clc.Global)
	copy(b.F, data)
	return b
}

func intBuf(data []int64) *Buffer {
	b := NewBuffer(clc.Int, len(data), clc.Global)
	copy(b.I, data)
	return b
}

func ptrArg(b *Buffer, elem clc.Type) Value {
	return PtrValue(&Pointer{Buf: b, Off: 0, Elem: elem})
}

func TestRunSaxpy(t *testing.T) {
	env := buildEnv(t, `__kernel void A(__global float* a, __global float* b, const int c) {
  int d = get_global_id(0);
  if (d < c) {
    b[d] += 3.5f * a[d];
  }
}`)
	n := 8
	a := floatBuf([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	b := floatBuf(make([]float64, n))
	prof, err := env.Run("A", []Value{
		ptrArg(a, clc.TypeFloat), ptrArg(b, clc.TypeFloat), IntValue(clc.Int, int64(n)),
	}, RunConfig{GlobalSize: [3]int{n, 1, 1}, LocalSize: [3]int{4, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := 3.5 * float64(i+1)
		if math.Abs(b.F[i]-want) > 1e-6 {
			t.Errorf("b[%d] = %g, want %g", i, b.F[i], want)
		}
	}
	if prof.WorkItems != int64(n) {
		t.Errorf("work items = %d", prof.WorkItems)
	}
	if prof.GlobalLoads != int64(n)*2 || prof.GlobalStores != int64(n) {
		t.Errorf("mem profile: loads=%d stores=%d", prof.GlobalLoads, prof.GlobalStores)
	}
	if prof.FloatOps == 0 || prof.Branches != int64(n) {
		t.Errorf("op profile: fpu=%d branches=%d", prof.FloatOps, prof.Branches)
	}
}

func TestRunFigure6b(t *testing.T) {
	// Paper Figure 6(b): zip computing c_i = 3a_i + 2b_i + 4.
	env := buildEnv(t, `__kernel void A(__global float* a, __global float* b, __global float* c, const int d) {
  int e = get_global_id(0);
  if (e >= d) {
    return;
  }
  c[e] = a[e] + b[e] + 2 * a[e] + b[e] + 4;
}`)
	a := floatBuf([]float64{1, 2, 3, 4})
	b := floatBuf([]float64{10, 20, 30, 40})
	c := floatBuf(make([]float64, 4))
	_, err := env.Run("A", []Value{
		ptrArg(a, clc.TypeFloat), ptrArg(b, clc.TypeFloat), ptrArg(c, clc.TypeFloat), IntValue(clc.Int, 4),
	}, RunConfig{GlobalSize: [3]int{4, 1, 1}, LocalSize: [3]int{4, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		want := 3*a.F[i] + 2*b.F[i] + 4
		if math.Abs(c.F[i]-want) > 1e-6 {
			t.Errorf("c[%d] = %g, want %g", i, c.F[i], want)
		}
	}
}

func TestRunFigure6cVectorReduction(t *testing.T) {
	// Paper Figure 6(c): partial reduction over reinterpreted float16.
	env := buildEnv(t, `__kernel void A(__global float* a, __global float* b, __global float* c, const int d) {
  unsigned int e = get_global_id(0);
  float16 f = (float16)(0.0);
  for (unsigned int g = 0; g < d; g++) {
    float16 h = a[g];
    f.s0 += h.s0;
    f.s1 += h.s1;
  }
  b[e] = f.s0 + f.s1;
}`)
	a := floatBuf([]float64{1, 2, 3, 4})
	b := floatBuf(make([]float64, 1))
	c := floatBuf(make([]float64, 1))
	_, err := env.Run("A", []Value{
		ptrArg(a, clc.TypeFloat), ptrArg(b, clc.TypeFloat), ptrArg(c, clc.TypeFloat), IntValue(clc.Int, 4),
	}, RunConfig{GlobalSize: [3]int{1, 1, 1}, LocalSize: [3]int{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	// h = splat(a[g]); f.s0 and f.s1 both accumulate sum(a) = 10; b[0] = 20.
	if b.F[0] != 20 {
		t.Errorf("b[0] = %g, want 20", b.F[0])
	}
}

func TestBarrierReduction(t *testing.T) {
	env := buildEnv(t, `__kernel void A(__global float* in, __global float* out, __local float* scratch) {
  int gid = get_global_id(0);
  int lid = get_local_id(0);
  int lsz = get_local_size(0);
  scratch[lid] = in[gid];
  barrier(CLK_LOCAL_MEM_FENCE);
  for (int offset = lsz / 2; offset > 0; offset /= 2) {
    if (lid < offset) {
      scratch[lid] += scratch[lid + offset];
    }
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  if (lid == 0) {
    out[get_group_id(0)] = scratch[0];
  }
}`)
	n, wg := 16, 8
	in := floatBuf([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	out := floatBuf(make([]float64, n/wg))
	scratch := NewBuffer(clc.Float, wg, clc.Local)
	prof, err := env.Run("A", []Value{
		ptrArg(in, clc.TypeFloat), ptrArg(out, clc.TypeFloat), ptrArg(scratch, clc.TypeFloat),
	}, RunConfig{GlobalSize: [3]int{n, 1, 1}, LocalSize: [3]int{wg, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if out.F[0] != 36 || out.F[1] != 100 {
		t.Errorf("group sums = %v, want [36 100]", out.F)
	}
	if prof.Barriers == 0 || prof.LocalLoads == 0 || prof.LocalStores == 0 {
		t.Errorf("profile: %+v", prof)
	}
}

func TestLocalArrayInKernel(t *testing.T) {
	env := buildEnv(t, `__kernel void A(__global float* a) {
  __local float tile[8];
  int lid = get_local_id(0);
  tile[lid] = a[get_global_id(0)];
  barrier(CLK_LOCAL_MEM_FENCE);
  a[get_global_id(0)] = tile[7 - lid];
}`)
	a := floatBuf([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	_, err := env.Run("A", []Value{ptrArg(a, clc.TypeFloat)},
		RunConfig{GlobalSize: [3]int{8, 1, 1}, LocalSize: [3]int{8, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	// NOTE: each work-item has its own __local array copy in this subset
	// when declared in-body? No — OpenCL __local declared in kernel body is
	// shared per group. Verify reversal happened.
	for i := 0; i < 8; i++ {
		if a.F[i] != float64(7-i) {
			t.Errorf("a[%d] = %g, want %d", i, a.F[i], 7-i)
		}
	}
}

func TestUserFunctionCall(t *testing.T) {
	env := buildEnv(t, `float square(float x) { return x * x; }
float plus(float x, float y) { return x + y; }
__kernel void A(__global float* a) {
  int i = get_global_id(0);
  a[i] = plus(square(a[i]), 1.0f);
}`)
	a := floatBuf([]float64{2, 3})
	_, err := env.Run("A", []Value{ptrArg(a, clc.TypeFloat)},
		RunConfig{GlobalSize: [3]int{2, 1, 1}, LocalSize: [3]int{2, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if a.F[0] != 5 || a.F[1] != 10 {
		t.Errorf("a = %v", a.F[:2])
	}
}

func TestIntegerOpsAndTypes(t *testing.T) {
	env := buildEnv(t, `__kernel void A(__global int* a) {
  int i = get_global_id(0);
  uint x = 7u;
  a[i] = (a[i] << 2) | (a[i] & 3);
  a[i] = a[i] % 100;
  a[i] += (int)(x / 2u);
}`)
	a := intBuf([]int64{5, 6})
	_, err := env.Run("A", []Value{ptrArg(a, clc.TypeInt)},
		RunConfig{GlobalSize: [3]int{2, 1, 1}, LocalSize: [3]int{2, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	// 5: (5<<2)|(5&3) = 20|1 = 21; 21%100=21; +3 = 24.
	// 6: (6<<2)|(6&3) = 24|2 = 26; +3 = 29.
	if a.I[0] != 24 || a.I[1] != 29 {
		t.Errorf("a = %v", a.I[:2])
	}
}

func TestDivisionByZeroSaturates(t *testing.T) {
	env := buildEnv(t, `__kernel void A(__global int* a) {
  a[0] = a[0] / a[1];
  a[2] = a[2] % a[1];
}`)
	a := intBuf([]int64{10, 0, 7})
	_, err := env.Run("A", []Value{ptrArg(a, clc.TypeInt)},
		RunConfig{GlobalSize: [3]int{1, 1, 1}, LocalSize: [3]int{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if a.I[0] != 0 || a.I[2] != 0 {
		t.Errorf("a = %v, want zeros", a.I)
	}
}

func TestVectorOps(t *testing.T) {
	env := buildEnv(t, `__kernel void A(__global float4* a, __global float* out) {
  float4 v = a[0];
  float4 w = v * 2.0f + (float4)(1.0f, 2.0f, 3.0f, 4.0f);
  out[0] = w.x + w.y + w.z + w.w;
  out[1] = dot(v, v);
  out[2] = length((float2)(3.0f, 4.0f));
  float4 r = v.wzyx;
  out[3] = r.x;
}`)
	a := floatBuf([]float64{1, 2, 3, 4})
	out := floatBuf(make([]float64, 4))
	vecT := &clc.VectorType{Elem: clc.Float, Len: 4}
	_, err := env.Run("A", []Value{ptrArg(a, vecT), ptrArg(out, clc.TypeFloat)},
		RunConfig{GlobalSize: [3]int{1, 1, 1}, LocalSize: [3]int{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	// w = (2,4,6,8)+(1,2,3,4) = (3,6,9,12); sum=30. dot(v,v)=30. length=5. r.x=4.
	want := []float64{30, 30, 5, 4}
	for i, w := range want {
		if math.Abs(out.F[i]-w) > 1e-5 {
			t.Errorf("out[%d] = %g, want %g", i, out.F[i], w)
		}
	}
}

func TestSwizzleAssignment(t *testing.T) {
	env := buildEnv(t, `__kernel void A(__global float* out) {
  float4 v = (float4)(0.0f);
  v.x = 1.0f;
  v.s3 = 4.0f;
  v.yz = (float2)(2.0f, 3.0f);
  out[0] = v.x; out[1] = v.y; out[2] = v.z; out[3] = v.w;
}`)
	out := floatBuf(make([]float64, 4))
	_, err := env.Run("A", []Value{ptrArg(out, clc.TypeFloat)},
		RunConfig{GlobalSize: [3]int{1, 1, 1}, LocalSize: [3]int{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if out.F[i] != float64(i+1) {
			t.Errorf("out[%d] = %g, want %d", i, out.F[i], i+1)
		}
	}
}

func TestMathBuiltins(t *testing.T) {
	env := buildEnv(t, `__kernel void A(__global float* a) {
  a[0] = sqrt(16.0f);
  a[1] = fabs(-3.0f);
  a[2] = fmin(2.0f, 5.0f);
  a[3] = fmax(2.0f, 5.0f);
  a[4] = clamp(7.0f, 0.0f, 5.0f);
  a[5] = mad(2.0f, 3.0f, 4.0f);
  a[6] = pow(2.0f, 10.0f);
  a[7] = floor(3.7f);
  a[8] = exp(0.0f);
  a[9] = max(3, 9);
  a[10] = min(-2, 4);
  a[11] = mix(0.0f, 10.0f, 0.25f);
}`)
	a := floatBuf(make([]float64, 12))
	_, err := env.Run("A", []Value{ptrArg(a, clc.TypeFloat)},
		RunConfig{GlobalSize: [3]int{1, 1, 1}, LocalSize: [3]int{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4, 3, 2, 5, 5, 10, 1024, 3, 1, 9, -2, 2.5}
	for i, w := range want {
		if math.Abs(a.F[i]-w) > 1e-5 {
			t.Errorf("a[%d] = %g, want %g", i, a.F[i], w)
		}
	}
}

func TestAtomics(t *testing.T) {
	env := buildEnv(t, `__kernel void A(__global int* counter) {
  atomic_add(&counter[0], 1);
  atomic_max(&counter[1], get_global_id(0));
}`)
	c := intBuf(make([]int64, 2))
	prof, err := env.Run("A", []Value{ptrArg(c, clc.TypeInt)},
		RunConfig{GlobalSize: [3]int{32, 1, 1}, LocalSize: [3]int{8, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if c.I[0] != 32 {
		t.Errorf("counter = %d, want 32", c.I[0])
	}
	if c.I[1] != 31 {
		t.Errorf("max gid = %d, want 31", c.I[1])
	}
	if prof.Atomics != 64 {
		t.Errorf("atomics = %d, want 64", prof.Atomics)
	}
}

func TestStepLimitNonTermination(t *testing.T) {
	env := buildEnv(t, `__kernel void A(__global int* a) {
  while (1) {
    a[0] += 1;
  }
}`)
	a := intBuf(make([]int64, 1))
	_, err := env.Run("A", []Value{ptrArg(a, clc.TypeInt)},
		RunConfig{GlobalSize: [3]int{1, 1, 1}, LocalSize: [3]int{1, 1, 1}, MaxSteps: 10000})
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
}

func TestStepLimitInLockstepKernel(t *testing.T) {
	env := buildEnv(t, `__kernel void A(__global int* a) {
  barrier(CLK_LOCAL_MEM_FENCE);
  while (1) {
    a[0] += 1;
  }
}`)
	a := intBuf(make([]int64, 1))
	_, err := env.Run("A", []Value{ptrArg(a, clc.TypeInt)},
		RunConfig{GlobalSize: [3]int{4, 1, 1}, LocalSize: [3]int{4, 1, 1}, MaxSteps: 20000})
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
}

func TestBarrierDivergenceDetected(t *testing.T) {
	env := buildEnv(t, `__kernel void A(__global int* a) {
  if (get_local_id(0) == 0) {
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  a[get_global_id(0)] = 1;
}`)
	a := intBuf(make([]int64, 4))
	_, err := env.Run("A", []Value{ptrArg(a, clc.TypeInt)},
		RunConfig{GlobalSize: [3]int{4, 1, 1}, LocalSize: [3]int{4, 1, 1}})
	if !errors.Is(err, ErrBarrierDivergence) {
		t.Fatalf("err = %v, want ErrBarrierDivergence", err)
	}
}

func TestOutOfBoundsReported(t *testing.T) {
	env := buildEnv(t, `__kernel void A(__global int* a) {
  a[100] = 1;
}`)
	a := intBuf(make([]int64, 4))
	_, err := env.Run("A", []Value{ptrArg(a, clc.TypeInt)},
		RunConfig{GlobalSize: [3]int{1, 1, 1}, LocalSize: [3]int{1, 1, 1}})
	if err == nil {
		t.Fatal("expected out-of-bounds error")
	}
}

func TestPrivateArraysAndLoops(t *testing.T) {
	env := buildEnv(t, `__kernel void A(__global float* out) {
  float acc[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  float sum = 0.0f;
  for (int i = 0; i < 4; i++) {
    sum += acc[i] * acc[i];
  }
  out[get_global_id(0)] = sum;
}`)
	out := floatBuf(make([]float64, 2))
	_, err := env.Run("A", []Value{ptrArg(out, clc.TypeFloat)},
		RunConfig{GlobalSize: [3]int{2, 1, 1}, LocalSize: [3]int{2, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if out.F[0] != 30 || out.F[1] != 30 {
		t.Errorf("out = %v, want 30s", out.F)
	}
}

func TestMultiDimArrays(t *testing.T) {
	env := buildEnv(t, `__kernel void A(__global float* out) {
  float m[2][3];
  for (int i = 0; i < 2; i++) {
    for (int j = 0; j < 3; j++) {
      m[i][j] = i * 10 + j;
    }
  }
  out[0] = m[1][2];
  out[1] = m[0][1];
}`)
	out := floatBuf(make([]float64, 2))
	_, err := env.Run("A", []Value{ptrArg(out, clc.TypeFloat)},
		RunConfig{GlobalSize: [3]int{1, 1, 1}, LocalSize: [3]int{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if out.F[0] != 12 || out.F[1] != 1 {
		t.Errorf("out = %v, want [12 1]", out.F)
	}
}

func TestTwoDimensionalNDRange(t *testing.T) {
	env := buildEnv(t, `__kernel void A(__global int* out, const int w) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  out[y * w + x] = x + y * 100;
}`)
	out := intBuf(make([]int64, 12))
	_, err := env.Run("A", []Value{ptrArg(out, clc.TypeInt), IntValue(clc.Int, 4)},
		RunConfig{GlobalSize: [3]int{4, 3, 1}, LocalSize: [3]int{2, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if out.I[0] != 0 || out.I[5] != 101 || out.I[11] != 203 {
		t.Errorf("out = %v", out.I)
	}
}

func TestVloadVstore(t *testing.T) {
	env := buildEnv(t, `__kernel void A(__global float* in, __global float* out) {
  float4 v = vload4(0, in);
  vstore4(v * 2.0f, 0, out);
}`)
	in := floatBuf([]float64{1, 2, 3, 4})
	out := floatBuf(make([]float64, 4))
	_, err := env.Run("A", []Value{ptrArg(in, clc.TypeFloat), ptrArg(out, clc.TypeFloat)},
		RunConfig{GlobalSize: [3]int{1, 1, 1}, LocalSize: [3]int{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if out.F[i] != float64(i+1)*2 {
			t.Errorf("out[%d] = %g", i, out.F[i])
		}
	}
}

func TestSelectAndConversions(t *testing.T) {
	env := buildEnv(t, `__kernel void A(__global float* out) {
  int i = 7;
  float f = convert_float(i);
  out[0] = f / 2.0f;
  out[1] = select(1.0f, 2.0f, 1);
  uint bits = as_uint(1.0f);
  out[2] = (bits == 0x3F800000u) ? 1.0f : 0.0f;
}`)
	out := floatBuf(make([]float64, 3))
	_, err := env.Run("A", []Value{ptrArg(out, clc.TypeFloat)},
		RunConfig{GlobalSize: [3]int{1, 1, 1}, LocalSize: [3]int{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if out.F[0] != 3.5 || out.F[1] != 2 || out.F[2] != 1 {
		t.Errorf("out = %v", out.F)
	}
}

func TestPointerWalk(t *testing.T) {
	env := buildEnv(t, `__kernel void A(__global float* a, const int n) {
  __global float* p = a;
  float sum = 0.0f;
  for (int i = 0; i < n; i++) {
    sum += *p;
    p = p + 1;
  }
  a[0] = sum;
}`)
	a := floatBuf([]float64{1, 2, 3, 4})
	_, err := env.Run("A", []Value{ptrArg(a, clc.TypeFloat), IntValue(clc.Int, 4)},
		RunConfig{GlobalSize: [3]int{1, 1, 1}, LocalSize: [3]int{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if a.F[0] != 10 {
		t.Errorf("sum = %g, want 10", a.F[0])
	}
}

func TestSwitchFallthrough(t *testing.T) {
	env := buildEnv(t, `__kernel void A(__global int* a) {
  int i = get_global_id(0);
  int r = 0;
  switch (i) {
  case 0: r = 10; break;
  case 1:
  case 2: r = 20; break;
  default: r = 99;
  }
  a[i] = r;
}`)
	a := intBuf(make([]int64, 4))
	_, err := env.Run("A", []Value{ptrArg(a, clc.TypeInt)},
		RunConfig{GlobalSize: [3]int{4, 1, 1}, LocalSize: [3]int{4, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{10, 20, 20, 99}
	for i, w := range want {
		if a.I[i] != w {
			t.Errorf("a[%d] = %d, want %d", i, a.I[i], w)
		}
	}
}

func TestGlobalConstants(t *testing.T) {
	env := buildEnv(t, `__constant float scale = 2.5f;
__constant int lut[4] = {10, 20, 30, 40};
__kernel void A(__global float* out) {
  int i = get_global_id(0);
  out[i] = lut[i] * scale;
}`)
	out := floatBuf(make([]float64, 4))
	_, err := env.Run("A", []Value{ptrArg(out, clc.TypeFloat)},
		RunConfig{GlobalSize: [3]int{4, 1, 1}, LocalSize: [3]int{4, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{25, 50, 75, 100}
	for i, w := range want {
		if out.F[i] != w {
			t.Errorf("out[%d] = %g, want %g", i, out.F[i], w)
		}
	}
}

func TestTernaryShortCircuit(t *testing.T) {
	env := buildEnv(t, `__kernel void A(__global int* a, const int n) {
  int i = get_global_id(0);
  a[i] = (i < n && a[i] > 0) ? a[i] * 2 : -1;
}`)
	a := intBuf([]int64{5, -3, 7, 0})
	_, err := env.Run("A", []Value{ptrArg(a, clc.TypeInt), IntValue(clc.Int, 4)},
		RunConfig{GlobalSize: [3]int{4, 1, 1}, LocalSize: [3]int{4, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{10, -1, 14, -1}
	for i, w := range want {
		if a.I[i] != w {
			t.Errorf("a[%d] = %d, want %d", i, a.I[i], w)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	src := `__kernel void A(__global float* a, __local float* s) {
  int lid = get_local_id(0);
  s[lid] = a[get_global_id(0)];
  barrier(CLK_LOCAL_MEM_FENCE);
  a[get_global_id(0)] = s[(lid + 1) % get_local_size(0)];
}`
	run := func() []float64 {
		env := buildEnv(t, src)
		a := floatBuf([]float64{1, 2, 3, 4, 5, 6, 7, 8})
		s := NewBuffer(clc.Float, 4, clc.Local)
		_, err := env.Run("A", []Value{ptrArg(a, clc.TypeFloat), ptrArg(s, clc.TypeFloat)},
			RunConfig{GlobalSize: [3]int{8, 1, 1}, LocalSize: [3]int{4, 1, 1}})
		if err != nil {
			t.Fatal(err)
		}
		return a.F
	}
	r1, r2 := run(), run()
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("non-deterministic: run1=%v run2=%v", r1, r2)
		}
	}
}

func TestBufferEqualEpsilon(t *testing.T) {
	a := floatBuf([]float64{1, 2, 3})
	b := floatBuf([]float64{1 + 1e-9, 2, 3})
	if !a.Equal(b, 1e-6) {
		t.Error("epsilon equality failed")
	}
	c := floatBuf([]float64{1.1, 2, 3})
	if a.Equal(c, 1e-6) {
		t.Error("distinct buffers compared equal")
	}
	if !a.Equal(a.Clone(), 0) {
		t.Error("clone not equal")
	}
}

func TestProfileAdd(t *testing.T) {
	p := &Profile{IntOps: 1, FloatOps: 2, GlobalLoads: 3, Barriers: 4}
	q := &Profile{IntOps: 10, FloatOps: 20, GlobalLoads: 30, Barriers: 40}
	p.Add(q)
	if p.IntOps != 11 || p.FloatOps != 22 || p.GlobalLoads != 33 || p.Barriers != 44 {
		t.Errorf("Add: %+v", p)
	}
}

func TestKernelArgValidation(t *testing.T) {
	env := buildEnv(t, `__kernel void A(__global float* a, const int n) { a[0] = n; }`)
	if _, err := env.Run("A", nil, RunConfig{GlobalSize: [3]int{1, 1, 1}}); err == nil {
		t.Error("missing args accepted")
	}
	if _, err := env.Run("B", nil, RunConfig{}); err == nil {
		t.Error("unknown kernel accepted")
	}
	a := floatBuf(make([]float64, 1))
	if _, err := env.Run("A", []Value{IntValue(clc.Int, 0), IntValue(clc.Int, 1)}, RunConfig{GlobalSize: [3]int{1, 1, 1}}); err == nil {
		t.Error("non-buffer for pointer param accepted")
	}
	if _, err := env.Run("A", []Value{ptrArg(a, clc.TypeFloat), IntValue(clc.Int, 1)},
		RunConfig{GlobalSize: [3]int{5, 1, 1}, LocalSize: [3]int{2, 1, 1}}); err == nil {
		t.Error("indivisible NDRange accepted")
	}
}

func TestProfileSteps(t *testing.T) {
	// One budget unit per executed statement, loop iteration and
	// expression node. Per work-item:
	//   int s = 0;                          decl 1 + literal 1          =  2
	//   for (...)                           statement                   =  1
	//     int i = 0                         decl 1 + literal 1          =  2
	//     each of 2 iterations              iteration 1 + (i < 2) 3
	//                                       + block 1 + expr stmt 1
	//                                       + (s += i) 2 + i++ 1        = 18
	//     exit                              iteration 1 + (i < 2) 3     =  4
	//   a[0] = s;                           expr stmt 1 + assign 1
	//                                       + s 1 + a 1 + 0 1           =  5
	// Total 32, so two work-items consume 64.
	env := buildEnv(t, `__kernel void A(__global int* a) {
  int s = 0;
  for (int i = 0; i < 2; i++) { s += i; }
  a[0] = s;
}`)
	a := intBuf(make([]int64, 1))
	prof, err := env.Run("A", []Value{ptrArg(a, clc.TypeInt)},
		RunConfig{GlobalSize: [3]int{2, 1, 1}, LocalSize: [3]int{2, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Steps != 64 {
		t.Errorf("Steps = %d, want 64", prof.Steps)
	}
	// Running out of budget reports one step past it.
	_, err = env.Run("A", []Value{ptrArg(a, clc.TypeInt)},
		RunConfig{GlobalSize: [3]int{2, 1, 1}, LocalSize: [3]int{2, 1, 1}, MaxSteps: 40})
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
	prof, _ = env.Run("A", []Value{ptrArg(a, clc.TypeInt)},
		RunConfig{GlobalSize: [3]int{2, 1, 1}, LocalSize: [3]int{2, 1, 1}, MaxSteps: 40})
	if prof.Steps != 41 {
		t.Errorf("Steps at the limit = %d, want 41", prof.Steps)
	}
}

func TestAddressOfScalar(t *testing.T) {
	// Accesses by name are not memory operations; accesses through the
	// pointer are private ones.
	for _, tc := range []struct {
		name, body string
		want       []float64
		private    int64
	}{
		{"fract out-parameter", `float y = 7.0f;
  float f = fract(2.25f, &y);
  a[0] = f; a[1] = y; a[2] = y + 1.0f;`, []float64{0.25, 2, 3}, 1},
		{"store through pointer", `float y = 1.0f;
  float* p = &y;
  *p = 5.0f;
  a[0] = y; a[1] = *p; y = 6.0f; a[2] = *p;`, []float64{5, 5, 6}, 3},
	} {
		env := buildEnv(t, "__kernel void A(__global float* a) {\n  "+tc.body+"\n}")
		a := floatBuf(make([]float64, 3))
		prof, err := env.Run("A", []Value{ptrArg(a, clc.TypeFloat)},
			RunConfig{GlobalSize: [3]int{1, 1, 1}, LocalSize: [3]int{1, 1, 1}})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, w := range tc.want {
			if a.F[i] != w {
				t.Errorf("%s: a[%d] = %g, want %g", tc.name, i, a.F[i], w)
			}
		}
		if prof.PrivateOps != tc.private {
			t.Errorf("%s: PrivateOps = %d, want %d", tc.name, prof.PrivateOps, tc.private)
		}
	}
}

func TestWideBraceInitializerIsAnError(t *testing.T) {
	env := buildEnv(t, `__kernel void A(__global int* a) {
  int x = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17};
  a[0] = x;
}`)
	a := intBuf(make([]int64, 1))
	_, err := env.Run("A", []Value{ptrArg(a, clc.TypeInt)},
		RunConfig{GlobalSize: [3]int{1, 1, 1}, LocalSize: [3]int{1, 1, 1}})
	if err == nil {
		t.Fatal("17-element brace initializer ran without error")
	}
}

// TestFirstDefinitionWins pins which of two same-named definitions runs:
// the first, the one clc.File.Function and the driver resolve.
func TestFirstDefinitionWins(t *testing.T) {
	env := buildEnv(t, `__kernel void A(__global int* a) { a[0] = 1; }
__kernel void A(__global int* a, __global int* b) { a[0] = 2; b[0] = 2; }`)
	fd, err := env.Kernel("A")
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.Params) != 1 {
		t.Fatalf("Kernel(A) has %d parameters, want the first definition's 1", len(fd.Params))
	}
	a := intBuf([]int64{0})
	if _, err := env.Run("A", []Value{ptrArg(a, clc.TypeInt)}, RunConfig{}); err != nil {
		t.Fatal(err)
	}
	if a.I[0] != 1 {
		t.Errorf("a[0] = %d, want 1 from the first definition", a.I[0])
	}
}

// fellBack reports whether a call of the named function broke one of its
// entry guards, so that it ran without static kinds.
func fellBack(env *Env, name string) bool { return env.funcs[name].plainFn != nil }

func TestGuardPointerInScalarParameter(t *testing.T) {
	env := buildEnv(t, `__kernel void A(__global int* a, int n) { a[0] = n + 1; }`)
	a := intBuf(make([]int64, 1))
	n := PtrValue(&Pointer{Buf: intBuf(make([]int64, 8)), Off: 5, Elem: clc.TypeInt})
	if _, err := env.Run("A", []Value{ptrArg(a, clc.TypeInt), n}, RunConfig{}); err != nil {
		t.Fatal(err)
	}
	// n + 1 is pointer arithmetic; storing the pointer keeps its offset.
	if a.I[0] != 6 {
		t.Errorf("a[0] = %d, want 6", a.I[0])
	}
	if !fellBack(env, "A") {
		t.Error("a pointer in a scalar parameter did not break the guard")
	}
}

func TestGuardNilPointerParameter(t *testing.T) {
	env := buildEnv(t, `int first(__global int* p) { return p[0]; }
__kernel void A(__global int* a) { a[0] = first(0); }`)
	_, err := env.Run("A", []Value{ptrArg(intBuf(make([]int64, 1)), clc.TypeInt)}, RunConfig{})
	if err == nil || !strings.Contains(err.Error(), "cannot index non-pointer") {
		t.Errorf("err = %v, want indexing a null pointer to fail", err)
	}
	if !fellBack(env, "first") || fellBack(env, "A") {
		t.Error("only the call passing a null pointer should break a guard")
	}
}

func TestGuardPointerToOtherKind(t *testing.T) {
	env := buildEnv(t, `__kernel void A(__global float* a, __global float* b) { b[0] = a[0] / 2; }`)
	b := floatBuf(make([]float64, 1))
	args := []Value{ptrArg(intBuf([]int64{3}), clc.TypeInt), ptrArg(b, clc.TypeFloat)}
	if _, err := env.Run("A", args, RunConfig{}); err != nil {
		t.Fatal(err)
	}
	// Through an int pointer a[0] is the int 3, and 3 / 2 divides integers.
	if b.F[0] != 1 {
		t.Errorf("b[0] = %g, want 1", b.F[0])
	}
	if !fellBack(env, "A") {
		t.Error("a pointer to another kind did not break the guard")
	}
}

func TestGuardUserCallMismatchedPointer(t *testing.T) {
	// A reassigns a, so its own body assumes nothing about a's pointee.
	env := buildEnv(t, `float half_of(__global float* p) { return p[0] / 2; }
__kernel void A(__global float* a, __global float* b) { a = a + 0; b[0] = half_of(a); }`)
	b := floatBuf(make([]float64, 1))
	args := []Value{ptrArg(intBuf([]int64{3}), clc.TypeInt), ptrArg(b, clc.TypeFloat)}
	if _, err := env.Run("A", args, RunConfig{}); err != nil {
		t.Fatal(err)
	}
	if b.F[0] != 1 {
		t.Errorf("b[0] = %g, want 1", b.F[0])
	}
	if !fellBack(env, "half_of") || fellBack(env, "A") {
		t.Error("only the call of half_of should break a guard")
	}
}

func TestWellTypedCallsKeepStaticKinds(t *testing.T) {
	env := buildEnv(t, `float half_of(__global float* p, int i) { return p[i] / 2; }
__kernel void A(__global float* a, __global float* b, int n) {
  int i = get_global_id(0);
  if (i < n) b[i] = half_of(a, i);
}`)
	a, b := floatBuf([]float64{1, 2, 3, 4}), floatBuf(make([]float64, 4))
	args := []Value{ptrArg(a, clc.TypeFloat), ptrArg(b, clc.TypeFloat), IntValue(clc.Int, 4)}
	if _, err := env.Run("A", args, RunConfig{GlobalSize: [3]int{4, 1, 1}}); err != nil {
		t.Fatal(err)
	}
	if b.F[3] != 2 || fellBack(env, "A") || fellBack(env, "half_of") {
		t.Errorf("b = %v, fell back: A %v, half_of %v", b.F, fellBack(env, "A"), fellBack(env, "half_of"))
	}
}

// TestStaticKindRules pins the interpreter's kind rules that the typed
// compilation must follow rather than C's, in both compilations.
func TestStaticKindRules(t *testing.T) {
	src := `__kernel void A(__global float* out, __global int* iout, __global float* fin, __global int* iin) {
  int i;
  float f;
  f = i = 3.7f;
  out[0] = f;
  iout[0] = i;
  char c = 100;
  iout[1] = c + c;
  float g = 0.5f;
  iout[2] = (g < 1.0f) + (g > 1.0f);
  int k = 5;
  iout[3] = k++;
  iout[4] = ++k;
  char d = 127;
  iout[5] = ++d;
  iout[6] = d;
  f = 1.5f;
  out[1] = (f += 1);
  i = 7;
  out[2] = (i += 0.5f);
  iout[7] = i;
  out[3] = fin[0];
  iout[8] = iin[0];
}`
	f, err := clc.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := clc.Check(f); err != nil {
		t.Fatal(err)
	}
	var profs []*Profile
	for _, newEnv := range []func(*clc.File) (*Env, error){NewEnv, NewUntypedEnv} {
		env, err := newEnv(f)
		if err != nil {
			t.Fatal(err)
		}
		out, iout := floatBuf(make([]float64, 4)), intBuf(make([]int64, 9))
		// fin holds ints and iin floats: loads convert from the buffer's kind.
		args := []Value{ptrArg(out, clc.TypeFloat), ptrArg(iout, clc.TypeInt),
			ptrArg(intBuf([]int64{3}), clc.TypeFloat), ptrArg(floatBuf([]float64{-2.75}), clc.TypeInt)}
		prof, err := env.Run("A", args, RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		profs = append(profs, prof)
		wantF := []float64{float64(float32(3.7)), 2.5, 7.5, 3}
		wantI := []int64{
			3,    // i = 3.7f converts; the assignment yields 3.7f
			-56,  // char + char stays char
			1,    // comparisons yield int 0/1
			5, 7, // postfix yields the old value, prefix the new
			128,  // ++ on a char yields the promoted int
			-128, // and stores the char
			7,    // i += 0.5f yields the float 7.5 and stores 7
			-2,   // a float buffer read as int truncates
		}
		for j, w := range wantF {
			if out.F[j] != w {
				t.Errorf("out[%d] = %g, want %g", j, out.F[j], w)
			}
		}
		for j, w := range wantI {
			if iout.I[j] != w {
				t.Errorf("iout[%d] = %d, want %d", j, iout.I[j], w)
			}
		}
	}
	if *profs[0] != *profs[1] {
		t.Errorf("typed profile %+v, untyped %+v", *profs[0], *profs[1])
	}
}
