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

// iterateSrc is the campaign's other step-limit shape: a guard on the
// work-item id, then a fixed-point iteration as long as the payload size.
const iterateSrc = `__kernel void A(__global const uint* a, __global uint* b, const int c, const int d) {
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

// cfdSrc is Rodinia's cfd kernel from the suites: far inside its budget,
// and outside the fragment BoundSteps analyzes at its first %.
const cfdSrc = `__kernel void cfd_flux(__global const float* density,
                       __global const float* momentum,
                       __global float* fluxes,
                       const int n) {
  int gid = get_global_id(0);
  float d = density[gid];
  float m = momentum[gid];
  float pressure = 0.4f * (m - 0.5f * d * d);
  float flux = 0.0f;
  for (int nb = 0; nb < 4; nb++) {
    int j = (gid + nb * 33 + 1) % n;
    float dn = density[j];
    float mn = momentum[j];
    flux += (dn - d) * 0.25f + (mn - m) * 0.125f + pressure * 0.01f;
  }
  fluxes[gid] = flux;
}`

// benchEnv compiles src for a benchmark.
func benchEnv(b *testing.B, src string) *Env {
	f, err := clc.Parse(src)
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
	return env
}

// BenchmarkStepLimit runs the step-limit shape until it exhausts a fixed
// budget and reports the interpreter's cost per step.
func BenchmarkStepLimit(b *testing.B) {
	const steps, n = 1 << 20, 1 << 16
	env := benchEnv(b, stepLimitSrc)
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

// BenchmarkProveStepLimit times BoundSteps per proof on §5.1 payloads of
// 2048 work-items and the campaign's budget: on both step-limit shapes,
// which it proves to run out, and on the cfd kernel, where the proof gives
// up, the cost every other check pays.
func BenchmarkProveStepLimit(b *testing.B) {
	const n = 2048
	for _, bc := range []struct {
		name, src string
		proven    bool
	}{{"sum", stepLimitSrc, true}, {"iterate", iterateSrc, true}, {"cfd", cfdSrc, false}} {
		b.Run(bc.name, func(b *testing.B) {
			env := benchEnv(b, bc.src)
			name := env.Kernels()[0]
			fd, _ := env.Kernel(name)
			args := make([]Value, len(fd.Params))
			for i, p := range fd.Params {
				if pt, ok := p.Type.(*clc.PointerType); ok {
					args[i] = PtrValue(&Pointer{Buf: NewBuffer(elemKind(pt), n, clc.Global), Elem: pt.Elem})
				} else {
					args[i] = IntValue(clc.Int, n)
				}
			}
			cfg := RunConfig{GlobalSize: [3]int{n, 1, 1}, LocalSize: [3]int{64, 1, 1}, MaxSteps: 16 << 20}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if env.BoundSteps(name, args, cfg).RunsOut() != bc.proven {
					b.Fatalf("proven = %v, want %v", !bc.proven, bc.proven)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/proof")
		})
	}
}

// lockstepSrc is the suites' reduction shape: a tree sum in local memory
// with a barrier after every step.
const lockstepSrc = `__kernel void A(__global const float* in, __global float* out, __local float* sdata) {
  unsigned int lid = get_local_id(0);
  sdata[lid] = in[get_global_id(0)];
  barrier(CLK_LOCAL_MEM_FENCE);
  for (int s = get_local_size(0) / 2; s > 0; s >>= 1) {
    if (lid < s) sdata[lid] += sdata[lid + s];
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  if (lid == 0) out[get_group_id(0)] = sdata[0];
}`

// BenchmarkLockstep runs the reduction shape on work-groups of 128 and
// reports the interpreter's cost per work-item phase: one work-item's run
// up to its next barrier or its end.
func BenchmarkLockstep(b *testing.B) {
	const n, local = 1024, 128
	env := benchEnv(b, lockstepSrc)
	in := NewBuffer(clc.Float, n, clc.Global)
	for i := range in.F {
		in.F[i] = float64(i%7) - 2.5
	}
	args := []Value{
		PtrValue(&Pointer{Buf: in, Elem: clc.TypeFloat}),
		PtrValue(&Pointer{Buf: NewBuffer(clc.Float, n/local, clc.Global), Elem: clc.TypeFloat}),
		PtrValue(&Pointer{Buf: NewBuffer(clc.Float, local, clc.Local), Elem: clc.TypeFloat}),
	}
	cfg := RunConfig{GlobalSize: [3]int{n, 1, 1}, LocalSize: [3]int{local, 1, 1}}
	b.ReportAllocs()
	b.ResetTimer()
	var phases int64
	for i := 0; i < b.N; i++ {
		prof, err := env.Run("A", args, cfg)
		if err != nil {
			b.Fatal(err)
		}
		phases = prof.WorkItems + prof.Barriers
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(phases), "ns/phase")
}

// vectorSrc is the synthesis campaign's kernel 37, a float4 stencil: the
// vector shape of the campaign's useful-work kernels.
const vectorSrc = `__kernel void A(__global float4* a, __global float4* b, const int c) {
  int d = get_global_id(0);
  if (d > 0 && d < c - 1) {
    b[d] = (a[d - 1] + a[d] + a[d + 1]) / 3.0f;
  }
}`

// BenchmarkVectorLaunch runs the float4 stencil over 4096 work-items and
// reports the interpreter's cost per work-item.
func BenchmarkVectorLaunch(b *testing.B) { benchVectorLaunch(b, vectorSrc) }

// BenchmarkVectorBuiltins runs the campaign's float4 builtins over 4096
// work-items: kernel 36's sin and cos of a load, and kernel 16's dot of a
// vector variable with itself, then a vector times that scalar.
func BenchmarkVectorBuiltins(b *testing.B) {
	b.Run("sincos", func(b *testing.B) {
		benchVectorLaunch(b, `__kernel void A(__global float4* a, __global float4* b, const int c) {
  uint d = get_global_id(0);
  if (d < c) {
    b[d] = sin(a[d]) + cos(a[d]);
  }
}`)
	})
	b.Run("dot", func(b *testing.B) {
		benchVectorLaunch(b, `__kernel void A(__global float4* a, __global float4* b, const int c) {
  uint d = get_global_id(0);
  if (d < c) {
    float4 e = a[d];
    float f = dot(e, e);
    b[d] = e * f;
  }
}`)
	})
}

// benchVectorLaunch runs src's kernel A(float4* a, float4* b, int c) over
// 4096 work-items and reports the cost per work-item and the allocations
// per launch.
func benchVectorLaunch(b *testing.B, src string) {
	const n = 4096
	env := benchEnv(b, src)
	f4 := &clc.VectorType{Elem: clc.Float, Len: 4}
	a := NewBuffer(clc.Float, 4*n, clc.Global)
	for i := range a.F {
		a.F[i] = float64(i%7) - 2.5
	}
	args := []Value{
		PtrValue(&Pointer{Buf: a, Elem: f4}),
		PtrValue(&Pointer{Buf: NewBuffer(clc.Float, 4*n, clc.Global), Elem: f4}),
		IntValue(clc.Int, n),
	}
	cfg := RunConfig{GlobalSize: [3]int{n, 1, 1}, LocalSize: [3]int{64, 1, 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Run("A", args, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/workitem")
}
