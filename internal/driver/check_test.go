package driver

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"clgen/internal/telemetry"
)

// stencilSrc is the synthesis campaign's kernel 37, a float4 stencil: the
// vector shape of the campaign's useful-work kernels.
const stencilSrc = `__kernel void A(__global float4* a, __global float4* b, const int c) {
  int d = get_global_id(0);
  if (d > 0 && d < c - 1) {
    b[d] = (a[d - 1] + a[d] + a[d + 1]) / 3.0f;
  }
}`

// stencilSize is the global size the campaign checks kernel 37 at.
const stencilSize = 2048

// BenchmarkCheck runs the §5.2 check of the float4 stencil at 2,048
// work-items, calling check directly so that the memo serves nothing, and
// reports the time, bytes and allocations of one check.
func BenchmarkCheck(b *testing.B) {
	k, err := Load(stencilSrc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := check(k, stencilSize, 1, RunConfig{}); !res.OK() {
			b.Fatalf("verdict %s (%v)", res.Verdict, res.Err)
		}
	}
}

// TestCheckAllocatesLittle: a warm check of the float4 stencil recycles
// its payloads' storage and its launches' contexts, so it allocates a
// small fraction of its payloads' 512 KB. The least of several checks
// is taken, since a collection empties the pools.
func TestCheckAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of what it is given under -race")
	}
	const limit = 64 << 10
	k, err := Load(stencilSrc)
	if err != nil {
		t.Fatal(err)
	}
	check(k, stencilSize, 1, RunConfig{}) // warm the pools
	least := uint64(1 << 62)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := check(k, stencilSize, 1, RunConfig{})
		runtime.ReadMemStats(&after)
		if !res.OK() {
			t.Fatalf("verdict %s (%v)", res.Verdict, res.Err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= limit {
		t.Errorf("a warm check allocates %d bytes, want under %d", least, limit)
	}
}

// reuseKernels differ in buffer kind (float, double, int, float4 and
// __local scratch), so that their checks recycle storage of several kinds
// and lengths, and cover every verdict but non-determinism.
var reuseKernels = []struct {
	name, src string
	want      CheckVerdict
}{
	{"float", zipSrc, UsefulWork},
	{"double", `__kernel void A(__global const double* a, __global double* b, const int n) {
  int i = get_global_id(0);
  b[i] = a[i] * 0.5 + a[(i + 1) % n];
}`, UsefulWork},
	{"int", `__kernel void A(__global int* a, __global const int* b) {
  int i = get_global_id(0);
  a[i] = a[i] ^ (b[i] << 1);
}`, UsefulWork},
	{"float4", stencilSrc, UsefulWork},
	{"local", `__kernel void A(__global float* a, __local float* s, const int n) {
  int lid = get_local_id(0);
  s[lid] = a[get_global_id(0)];
  barrier(CLK_LOCAL_MEM_FENCE);
  a[get_global_id(0)] = s[(lid + 1) % get_local_size(0)] * 0.5f;
}`, UsefulWork},
	{"no output", `__kernel void A(__global float* a, const int n) {
  float x = a[get_global_id(0) % n] * 2.0f;
}`, NoOutput},
	{"input insensitive", `__kernel void A(__global int* a, const int n) {
  a[get_global_id(0)] = 7;
}`, InputInsensitive},
	{"fault", `__kernel void A(__global float* a, const int n) {
  a[get_global_id(0) + n] = 1.0f;
}`, RunFailure},
}

// TestReseededRandDrawsFreshPayloads: check draws its payloads from a
// pooled *rand.Rand re-seeded per payload. Payloads drawn that way, from
// one generator used over and over, equal those drawn from fresh sources.
func TestReseededRandDrawsFreshPayloads(t *testing.T) {
	reused := rand.New(rand.NewSource(0))
	for _, tc := range reuseKernels {
		k, err := Load(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{8, 256} {
			for _, seed := range []int64{3, 4} {
				want, err := GeneratePayload(k, size, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				reused.Seed(seed)
				got, err := GeneratePayload(k, size, reused)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Args, want.Args) {
					t.Errorf("%s@%d seed %d: the re-seeded generator drew another payload", tc.name, size, seed)
				}
			}
		}
	}
}

// TestChecksStableUnderReuse checks every reuseKernels kernel at
// three sizes, interleaved, twice over, calling check directly so that
// each check executes. Every result must be DeepEqual to the kernel's
// first check at that size and have the kernel's verdict. Then several
// goroutines check one kernel at once, which -race also watches.
func TestChecksStableUnderReuse(t *testing.T) {
	sizes := []int{8, 256, 2048}
	first := map[string]CheckResult{}
	for round := 0; round < 2; round++ {
		for _, size := range sizes {
			for _, tc := range reuseKernels {
				k, err := Load(tc.src)
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("%s@%d", tc.name, size)
				res := check(k, size, 3, RunConfig{})
				if res.Verdict != tc.want {
					t.Errorf("%s: verdict %s (%v), want %s", key, res.Verdict, res.Err, tc.want)
				}
				if round == 0 {
					first[key] = res
				} else if !reflect.DeepEqual(res, first[key]) {
					t.Errorf("%s: check differs from the first:\n%+v\nvs\n%+v", key, res, first[key])
				}
			}
		}
	}

	const goroutines, each = 4, 3
	for _, tc := range reuseKernels[3:5] {
		k, err := Load(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		want := check(k, 256, 3, RunConfig{})
		got := make([]CheckResult, goroutines*each)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					got[g*each+i] = check(k, 256, 3, RunConfig{})
				}
			}(g)
		}
		wg.Wait()
		for i, res := range got {
			if !reflect.DeepEqual(res, want) {
				t.Errorf("%s: concurrent check %d differs:\n%+v\nvs\n%+v", tc.name, i, res, want)
			}
		}
	}
}

// TestCheckRunsA2B2OnlyWhenUndecided: A1 and B1 decide a no-output or an
// input-insensitive verdict, so its check executes those two payloads
// only and its Steps are theirs. A useful-work check executes all four,
// A2 and B2 repeating A1 and B1 step for step. The expected steps come
// from payloads drawn from fresh sources at seed and seed+1, so the
// kernel whose loop count is read from its input also pins the payloads
// check draws from its pooled generator.
func TestCheckRunsA2B2OnlyWhenUndecided(t *testing.T) {
	runs := telemetry.Default().Counter("driver_kernel_runs_total", "")
	for _, tc := range []struct {
		name, src string
		want      CheckVerdict
		runs      int64
	}{
		{"no output", reuseKernels[5].src, NoOutput, 2},
		{"input insensitive", reuseKernels[6].src, InputInsensitive, 2},
		{"useful work", zipSrc, UsefulWork, 4},
		{"input-dependent steps", `__kernel void A(__global int* a, __global int* b) {
  int i = get_global_id(0);
  int s = 0;
  for (int j = 0; j < (a[i] & 15); j++) s += j;
  b[i] = s + a[i];
}`, UsefulWork, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, err := Load(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			const size, seed = 128, 5
			var steps int64 // A1's and B1's, executed here
			for _, s := range []int64{seed, seed + 1} {
				p, err := GeneratePayload(k, size, rand.New(rand.NewSource(s)))
				if err != nil {
					t.Fatal(err)
				}
				prof, err := k.Run(p, RunConfig{})
				if err != nil {
					t.Fatal(err)
				}
				steps += prof.Steps
			}
			n := runs.Value()
			res := check(k, size, seed, RunConfig{})
			if res.Verdict != tc.want {
				t.Fatalf("verdict %s, want %s", res.Verdict, tc.want)
			}
			if d := runs.Value() - n; d != tc.runs {
				t.Errorf("driver_kernel_runs_total rose by %d, want %d", d, tc.runs)
			}
			if want := steps * tc.runs / 2; res.Steps != want {
				t.Errorf("steps = %d, want %d", res.Steps, want)
			}
		})
	}
}
