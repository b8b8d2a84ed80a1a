package interp_test

import (
	"fmt"
	"slices"
	"testing"

	"clgen/internal/clc"
	"clgen/internal/interp"
)

// campaignVectorKernels are the kernels of the test-scale synthesis
// campaign (experiments.TestConfig(): seed 7, synthesis seed 107) that
// declare a vector type, by their index among its 60 kernels.
var campaignVectorKernels = []struct {
	id  int
	src string
}{
	{10, `__kernel void A(__global float4* a, __global float4* b, const int c) {
  uint d = get_global_id(0);
  if (d >= c) {
    return;
  }
  b[d] = a[d] * a[d];
}`},
	{15, `__kernel void A(__global const int* a, __global int* b, const int c) {
  uint d = get_global_id(0);
  if (d < c) {
    float4 e = a[d];
    float f = dot(e, e);
    b[d] = e * f;
  }
}`},
	{16, `__kernel void A(__global float4* a, __global float4* b, const int c) {
  uint d = get_global_id(0);
  if (d < c) {
    float4 e = a[d];
    float f = dot(e, e);
    b[d] = e * f;
  }
}`},
	{21, `__kernel void A(__global float4* a, __global float4* b, const int c) {
  int d = get_global_id(0);
  if (d < c) {
    b[d] = exp(a[d]);
  }
}`},
	{27, `__kernel void A(__global float4* a, __global float4* b, const int c) {
  int d = get_global_id(0);
  if (d < c) {
    float4 e = a[d];
    float f = dot(e, e);
    b[d] = e * f;
  }
}`},
	{35, `__kernel void A(__global float4* a, __global float4* b, const int c) {
  uint d = get_global_id(0);
  if (d < c) {
    b[d] = sqrt(fabs(a[d]));
  }
}`},
	{36, `__kernel void A(__global float4* a, __global float4* b, const int c) {
  uint d = get_global_id(0);
  if (d < c) {
    b[d] = sin(a[d]) + cos(a[d]);
  }
}`},
	{37, `__kernel void A(__global float4* a, __global float4* b, const int c) {
  int d = get_global_id(0);
  if (d > 0 && d < c - 1) {
    b[d] = (a[d - 1] + a[d] + a[d + 1]) / 3.0f;
  }
}`},
	{39, `__kernel void A(__global const float* a, __global float* b, const int c, const int d) {
  uint e = get_global_id(0);
  if (e >= c) {
    return;
  }
  float4 e = a[d];
  float f = dot(e, e);
  b[d] = e * f;
}`},
	{40, `__kernel void A(__global float4* a, __global float4* b, const int c) {
  uint d = get_global_id(0);
  if (d >= c) {
    return;
  }
  float4 e = a[d];
  b[d] = e.wzyx;
}`},
	{50, `__kernel void A(__global float4* a, __global float4* b, const int c) {
  int d = get_global_id(0);
  if (d >= c) {
    return;
  }
  float4 e = a[d];
  b[d] = e.wzyx;
}`},
	{53, `__kernel void A(__global float4* a, __global float4* b, const int c) {
  int d = get_global_id(0);
  if (d >= c) {
    return;
  }
  b[d] = log(fabs(a[d]) + 1.0f);
}`},
	{54, `__kernel void A(__global const float* a, __global float* b, const int c) {
  int d = get_global_id(0);
  if (d < c) {
    float4 e = a[d];
    float f = dot(e, e);
    b[d] = e * f;
  }
}`},
	{57, `__kernel void A(__global float4* a, __global float4* b, const int c) {
  uint d = get_global_id(0);
  if (d > 0 && d < c - 1) {
    b[d] = (a[d - 1] + a[d] + a[d + 1]) / 3.0f;
  }
}`},
	{58, `__kernel void A(__global const int* a, __global int* b, const int c) {
  int d = get_global_id(0);
  if (d >= c) {
    return;
  }
  float4 e = a[d];
  b[d] = e.wzyx;
}`},
}

// vectorCase is a kernel TestVectorKindsMatchPlain runs under NewEnv and
// NewUntypedEnv, with arguments vectorArgs builds.
type vectorCase struct {
	name, src string
	slots     map[int]int      // scalar slots of a pointer argument's buffer
	elem      map[int]clc.Type // the pointee a pointer argument claims instead
	class     string           // the error class the launch must end with
}

// vectorEdges are the edge shapes of the typed vector fragment: widths 3,
// 8 and 16, integer wrapping and division by zero, scalars that a splat
// converts to their own kind (an unrounded half; an unwrapped abs, which
// a scalar computes on the Value path), loads and stores that fault at
// lane 2, a name declared both int and float4, and arguments that break
// each kind of guard of a float4* parameter.
var vectorEdges = []vectorCase{
	{name: "float3", src: `__kernel void A(__global float3* a, __global float3* b, const int c) {
  int d = get_global_id(0);
  float3 e = a[d] * 2.0f - 1.0f;
  b[d] = e.zyx + sqrt(fabs(e)) - (float3)(0.5f, e.y, 1.0f);
}`},
	{name: "float8", src: `__kernel void A(__global float8* a, __global float8* b, const float s) {
  int d = get_global_id(0);
  float8 e = a[d];
  float8 f = e * s + e.s76543210;
  f += (float8)(1.0f);
  b[d] = exp(f.even.s0 + f) / (float8)(e.lo, e.hi) + fmax(e, s) - mad(f, 0.5f, e);
}`},
	{name: "float16", src: `__kernel void A(__global float16* a, __global float16* b, const int c) {
  int d = get_global_id(0);
  float16 e = a[d];
  b[d] = e / 3.0f + e.sfedcba9876543210 * dot(e, e) - c;
}`},
	{name: "int4 wrap", src: `__kernel void A(__global int4* a, __global int4* b, const int c) {
  int d = get_global_id(0);
  int4 e = a[d];
  int4 f = e * 2147483647 + (int4)(1, 2, 3, 4) << 3;
  f ^= e >> 1;
  b[d] = abs(f) | -e & ~f;
}`},
	{name: "uchar4 wrap", src: `__kernel void A(__global uchar4* a, __global uchar4* b, const int c) {
  int d = get_global_id(0);
  uchar4 e = a[d] + (uchar4)(250, 251, 252, 253);
  b[d] = e * e + e;
  b[d + 1] += (uchar4)(200);
}`},
	{name: "int4 divide by zero", src: `__kernel void A(__global int4* a, __global int4* b, const int c) {
  int d = get_global_id(0);
  int4 e = a[d];
  b[d] = e / (int4)(0, 1, 0, 2) + e % 0 + e / c;
}`},
	{name: "half splat rounds", src: `__kernel void A(__global half4* a, __global half4* b, const int c) {
  int d = get_global_id(0);
  half4 e = a[d] * sqrt((half)(d + 2));
  e += sqrt((half)(d + 3));
  b[d] = e + sqrt(e) * (half4)(sqrt((half)d));
}`},
	{name: "abs splat wraps", src: `__kernel void A(__global int4* a, __global int4* b, const int c) {
  int d = get_global_id(0);
  int m = c * 0 - 2147483647 - 1;
  int4 e = a[d] / abs(m);
  e -= abs(m);
  b[d] = e + abs(m) / (int4)(2);
}`},
	{name: "load faults at lane 2", src: `__kernel void A(__global float4* a, __global float4* b, const int c) {
  int d = get_global_id(0);
  b[d] = a[d] + 1.0f;
}`, slots: map[int]int{0: 4*8 + 2}, class: "fault"},
	{name: "store faults at lane 2", src: `__kernel void A(__global float4* a, __global float4* b, const int c) {
  int d = get_global_id(0);
  b[d] = a[d] * 2.0f;
}`, slots: map[int]int{1: 4*8 + 2}, class: "fault"},
	{name: "compound store faults at lane 2", src: `__kernel void A(__global float4* a, __global float4* b, const int c) {
  int d = get_global_id(0);
  b[d] += a[d];
}`, slots: map[int]int{1: 4*8 + 2}, class: "fault"},
	{name: "int and float4", src: `__kernel void A(__global float4* a, __global float* b, const int c) {
  int d = get_global_id(0);
  {
    int e = d * 2;
    b[e] = e;
  }
  {
    float4 e = a[d];
    b[d] = e.y;
  }
}`},
	{name: "guard float*", src: stencilSrc, elem: map[int]clc.Type{0: clc.TypeFloat}},
	{name: "guard float2*", src: stencilSrc, elem: map[int]clc.Type{0: &clc.VectorType{Elem: clc.Float, Len: 2}}, class: "other"},
	{name: "guard int4*", src: stencilSrc, elem: map[int]clc.Type{1: &clc.VectorType{Elem: clc.Int, Len: 4}}},
	{name: "guard nil", src: `float4 first(__global float4* p) {
  return p[0];
}
__kernel void A(__global float4* a, __global float4* b, const int c) {
  int d = get_global_id(0);
  b[d] = first(a) + first(0);
}`, class: "other"},
	{name: "guard scalar", src: `float4 first(__global float4* p) {
  return p[0];
}
__kernel void A(__global float4* a, __global float4* b, const int c) {
  int d = get_global_id(0);
  b[d] = first(a) + first(c);
}`, class: "other"},
}

// stencilSrc is campaign kernel 37.
const stencilSrc = `__kernel void A(__global float4* a, __global float4* b, const int c) {
  int d = get_global_id(0);
  if (d > 0 && d < c - 1) {
    b[d] = (a[d - 1] + a[d] + a[d + 1]) / 3.0f;
  }
}`

// vectorArgs builds the arguments of a vectorCase launch: buffers of 64
// elements, or vc.slots scalar slots, holding negative, fractional and
// large values, and scalars 12 and 1.5.
func vectorArgs(fd *clc.FuncDecl, vc vectorCase) []interp.Value {
	args := make([]interp.Value, len(fd.Params))
	for i, p := range fd.Params {
		switch t := p.Type.(type) {
		case *clc.PointerType:
			kind, per := clc.ScalarKind(0), 1
			switch e := t.Elem.(type) {
			case *clc.ScalarType:
				kind = e.Kind
			case *clc.VectorType:
				kind, per = e.Elem, e.Len
			}
			n, ok := vc.slots[i]
			if !ok {
				n = 64 * per
			}
			buf := interp.NewBuffer(kind, n, t.Space)
			for j := range buf.F {
				buf.F[j] = float64(j%11)*0.75 - 3.1
			}
			for j := range buf.I {
				buf.I[j] = int64(j%9-4) * 536870911
			}
			elem, ok := vc.elem[i]
			if !ok {
				elem = t.Elem
			}
			args[i] = interp.PtrValue(&interp.Pointer{Buf: buf, Elem: elem})
		case *clc.ScalarType:
			if t.Kind.IsFloat() {
				args[i] = interp.FloatValue(t.Kind, 1.5)
			} else {
				args[i] = interp.IntValue(t.Kind, 12)
			}
		}
	}
	return args
}

// TestVectorKindsMatchPlain runs the test-scale campaign's vector kernels
// and the vector fragment's edge shapes under NewEnv and NewUntypedEnv,
// whose bodies run every vector on the Value path, and requires identical
// buffers, MaxSlot, Profile and error text, class and fault. Every pointer
// parameter of a campaign kernel must be guarded, so that its loads,
// stores and the vectors built from them run typed rather than falling
// back to the Value path unnoticed.
func TestVectorKindsMatchPlain(t *testing.T) {
	cases := slices.Clone(vectorEdges)
	for _, k := range campaignVectorKernels {
		cases = append(cases, vectorCase{name: fmt.Sprintf("campaign %d", k.id), src: k.src})
	}
	cfg := interp.RunConfig{GlobalSize: [3]int{16, 1, 1}, LocalSize: [3]int{4, 1, 1}, MaxSteps: 1 << 16}
	for i, vc := range cases {
		t.Run(vc.name, func(t *testing.T) {
			f, err := clc.Parse(vc.src)
			if err != nil {
				t.Fatal(err)
			}
			if err := clc.Check(f); err != nil {
				t.Fatal(err)
			}
			typed, err := interp.NewEnv(f)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := interp.NewUntypedEnv(f)
			if err != nil {
				t.Fatal(err)
			}
			fd, err := typed.Kernel("A")
			if err != nil {
				t.Fatal(err)
			}
			guarded := typed.Guarded("A")
			for j, p := range fd.Params {
				_, isPtr := p.Type.(*clc.PointerType)
				if isPtr && i >= len(vectorEdges) && !slices.Contains(guarded, j) {
					t.Errorf("pointer parameter %d (%s) is not guarded: guarded %v", j, p.Name, guarded)
				}
			}
			for j := range vc.elem {
				if !slices.Contains(guarded, j) {
					t.Errorf("parameter %d, whose guard the case breaks, is not guarded: guarded %v", j, guarded)
				}
			}
			args := vectorArgs(fd, vc)
			prof, err := typed.Run("A", args, cfg)
			got := outcome("A", prof, err, args)
			plainArgs := vectorArgs(fd, vc)
			plainProf, plainErr := plain.Run("A", plainArgs, cfg)
			for _, d := range diffRecords(got, outcome("A", plainProf, plainErr, plainArgs)) {
				t.Errorf("typed %s (untyped)", d)
			}
			if got.Class != vc.class {
				t.Errorf("error class %q (%v), want %q", got.Class, err, vc.class)
			}
		})
	}
}
