package interp_test

import (
	"sync"
	"testing"

	"clgen/internal/clc"
	"clgen/internal/interp"
)

// allocKernels are the shapes TestWorkItemsAllocateNothing launches: scalar
// code; float4 code through a vector load, arithmetic, division by a
// scalar, a swizzle, a lane-wise builtin, dot, a helper's vector return
// and a store; and float8 code.
var allocKernels = []struct {
	name, src string
	elem      clc.Type
	per       int // scalar slots per element
}{
	{"scalar", `__kernel void A(__global const float* a, __global float* b, const float s) {
  int i = get_global_id(0);
  float x = a[i] * s + 1.0f;
  if (x > 2.0f) {
    x = x / s;
  }
  b[i] = x;
}`, clc.TypeFloat, 1},
	{"float4", `float4 twice(float4 v) {
  return v + v;
}
__kernel void A(__global const float4* a, __global float4* b, const float s) {
  int i = get_global_id(0);
  float4 v = a[i];
  float4 w = (v + v) / s;
  float4 z = sin(w.wzyx);
  float d = dot(v, z);
  b[i] = twice(z) + d;
}`, &clc.VectorType{Elem: clc.Float, Len: 4}, 4},
	{"float8", `__kernel void A(__global const float8* a, __global float8* b, const float s) {
  int i = get_global_id(0);
  float8 v = a[i];
  float8 w = v * s + v.s76543210;
  b[i] = w.even.s0 + w;
}`, &clc.VectorType{Elem: clc.Float, Len: 8}, 8},
}

// TestWorkItemsAllocateNothing launches each allocKernels shape at two
// global sizes and requires the allocations of one launch not to grow with
// its work-items: a launch binds its arguments once and its work-items
// build their vectors in the sequential path's lane arena, so the larger
// launch may add at most a small constant per extra work-group.
func TestWorkItemsAllocateNothing(t *testing.T) {
	const small, large, local, perGroup = 256, 4096, 64, 2
	for _, k := range allocKernels {
		t.Run(k.name, func(t *testing.T) {
			env := parseEnv(t, k.src)
			a := interp.NewBuffer(clc.Float, large*k.per, clc.Global)
			for i := range a.F {
				a.F[i] = float64(i%9) - 3.5
			}
			args := []interp.Value{
				interp.PtrValue(&interp.Pointer{Buf: a, Elem: k.elem}),
				interp.PtrValue(&interp.Pointer{Buf: interp.NewBuffer(clc.Float, large*k.per, clc.Global), Elem: k.elem}),
				interp.FloatValue(clc.Float, 1.5),
			}
			allocs := func(n int) float64 {
				cfg := interp.RunConfig{GlobalSize: [3]int{n, 1, 1}, LocalSize: [3]int{local, 1, 1}}
				return testing.AllocsPerRun(5, func() {
					if _, err := env.Run("A", args, cfg); err != nil {
						t.Fatal(err)
					}
				})
			}
			lo, hi := allocs(small), allocs(large)
			if extra := float64(perGroup * (large - small) / local); hi > lo+extra {
				t.Errorf("%v allocations per launch of %d work-items, %v of %d: more than %v per extra work-group",
					hi, large, lo, small, perGroup)
			}
		})
	}
}

// parseEnv compiles src into an Env.
func parseEnv(tb testing.TB, src string) *interp.Env {
	tb.Helper()
	f, err := clc.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	if err := clc.Check(f); err != nil {
		tb.Fatal(err)
	}
	env, err := interp.NewEnv(f)
	if err != nil {
		tb.Fatal(err)
	}
	return env
}

// lifetimeSrc builds a different vector in each work-item from its global
// id and passes it through a helper's return value, a reassigned vector
// parameter, nested calls whose frames the next work-item reuses on
// another path, and a loop of n iterations, each building at least four
// lanes, before reading the first vector again. A runs sequentially,
// building its lanes in the lane arena; B computes the same behind a
// barrier, so its work-items run in lockstep, building theirs on the heap.
const lifetimeSrc = `float4 scale(float4 v, float s) {
  return v * s;
}
float4 shift(float4 v, int n) {
  v = v + (float4)(n, n, n, n);
  v.y = v.x - 1.0f;
  return v;
}
float4 inner(float4 v) {
  float4 t = v.wzyx;
  return t + 1.0f;
}
float4 outer(float4 v, int i) {
  float4 u = inner(v);
  if (i % 2 == 0) {
    u = inner(u);
  }
  return u * 2.0f;
}
float4 body(int i, int n) {
  float4 v = (float4)(i, i + 1, i + 2, i + 3);
  float4 c = outer(shift(scale(v, 0.5f), i), i);
  float4 acc = (float4)(0.0f);
  for (int k = 0; k < n; k++) {
    acc = acc + c * (float)(k % 3);
  }
  return acc + v;
}
__kernel void A(__global float4* out, const int n) {
  int i = get_global_id(0);
  out[i] = body(i, n);
}
__kernel void B(__global float4* out, const int n) {
  int i = get_global_id(0);
  float4 r = body(i, n);
  barrier(CLK_GLOBAL_MEM_FENCE);
  out[i] = r;
}`

// lifetimeWant computes lifetimeSrc's output for work-item i in float32,
// each operation rounded as the kernel rounds it. Every value is a
// multiple of 0.5 far below 2^23, so the arithmetic is exact.
func lifetimeWant(i, n int) [4]float32 {
	inner := func(x [4]float32) [4]float32 {
		return [4]float32{x[3] + 1, x[2] + 1, x[1] + 1, x[0] + 1}
	}
	fi := float32(i)
	v := [4]float32{fi, fi + 1, fi + 2, fi + 3}
	var b [4]float32
	for l := range b {
		b[l] = float32(v[l]*0.5) + fi
	}
	b[1] = b[0] - 1
	u := inner(b)
	if i%2 == 0 {
		u = inner(u)
	}
	var acc [4]float32
	for k := 0; k < n; k++ {
		for l := range acc {
			acc[l] += float32(float32(u[l]*2) * float32(k%3))
		}
	}
	for l := range acc {
		acc[l] += v[l]
	}
	return acc
}

// TestLaneLifetimes runs lifetimeSrc's kernels, whose loop builds four
// times the lanes the arena holds, so that the heap fallback runs. Each
// work-item's output must be the one computed in Go, and the typed, plain
// and goroutine Envs must agree on every launch, as in FuzzRun.
func TestLaneLifetimes(t *testing.T) {
	const items, n = 96, interp.ArenaLanes
	f, err := clc.Parse(lifetimeSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := clc.Check(f); err != nil {
		t.Fatal(err)
	}
	envs := map[string]func(*clc.File) (*interp.Env, error){
		"typed": interp.NewEnv, "plain": interp.NewUntypedEnv, "goroutine": interp.NewGoroutineEnv,
	}
	cfg := interp.RunConfig{GlobalSize: [3]int{items, 1, 1}, LocalSize: [3]int{32, 1, 1}}
	for _, kernel := range []string{"A", "B"} {
		var want runRecord
		for _, name := range []string{"typed", "plain", "goroutine"} {
			env, err := envs[name](f)
			if err != nil {
				t.Fatal(err)
			}
			out := interp.NewBuffer(clc.Float, 4*items, clc.Global)
			args := []interp.Value{
				interp.PtrValue(&interp.Pointer{Buf: out, Elem: &clc.VectorType{Elem: clc.Float, Len: 4}}),
				interp.IntValue(clc.Int, n),
			}
			prof, err := env.Run(kernel, args, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", name, kernel, err)
			}
			if i, l, ok := lifetimesHold(out, n); !ok {
				t.Fatalf("%s %s: work-item %d lane %d = %g, want %g", name, kernel, i, l, out.F[4*i+l], lifetimeWant(i, n)[l])
			}
			got := outcome(kernel, prof, err, args)
			if name == "typed" {
				want = got
				continue
			}
			for _, d := range diffRecords(got, want) {
				t.Errorf("%s %s: %s (typed)", name, kernel, d)
			}
		}
	}
}

// lifetimesHold reports whether out holds lifetimeSrc's output for loops
// of n iterations, or else the first work-item and lane that differ.
func lifetimesHold(out *interp.Buffer, n int) (item, lane int, ok bool) {
	for i := 0; i < out.Len()/4; i++ {
		w := lifetimeWant(i, n)
		for l := range w {
			if out.F[4*i+l] != float64(w[l]) {
				return i, l, false
			}
		}
	}
	return 0, 0, true
}

// TestConcurrentLaunchesKeepTheirLanes runs lifetimeSrc's sequential
// kernel from several goroutines at once on one Env: each launch binds its
// own frame image and builds its vectors in its own lane arena, so every
// output must still be the one computed in Go.
func TestConcurrentLaunchesKeepTheirLanes(t *testing.T) {
	const launches, items, n = 4, 64, 40
	env := parseEnv(t, lifetimeSrc)
	cfg := interp.RunConfig{GlobalSize: [3]int{items, 1, 1}, LocalSize: [3]int{16, 1, 1}}
	outs := make([]*interp.Buffer, launches)
	errs := make([]error, launches)
	var wg sync.WaitGroup
	for g := range outs {
		outs[g] = interp.NewBuffer(clc.Float, 4*items, clc.Global)
		args := []interp.Value{
			interp.PtrValue(&interp.Pointer{Buf: outs[g], Elem: &clc.VectorType{Elem: clc.Float, Len: 4}}),
			interp.IntValue(clc.Int, n),
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, errs[g] = env.Run("A", args, cfg)
		}(g)
	}
	wg.Wait()
	for g, out := range outs {
		if errs[g] != nil {
			t.Fatalf("launch %d: %v", g, errs[g])
		}
		if i, l, ok := lifetimesHold(out, n); !ok {
			t.Errorf("launch %d: work-item %d lane %d = %g, want %g", g, i, l, out.F[4*i+l], lifetimeWant(i, n)[l])
		}
	}
}
