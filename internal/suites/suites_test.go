package suites

import (
	"reflect"
	"strings"
	"testing"

	"clgen/internal/cache"
	"clgen/internal/driver"
	"clgen/internal/platform"
	"clgen/internal/telemetry"
)

func TestInventoryMatchesTable3(t *testing.T) {
	want := map[string]int{
		"NPB": 7, "Rodinia": 14, "NVIDIA": 6, "AMD": 12,
		"Parboil": 6, "PolyBench": 14, "SHOC": 12,
	}
	total := 0
	for suite, n := range want {
		got := len(BySuite(suite))
		if got != n {
			t.Errorf("%s: %d benchmarks, want %d", suite, got, n)
		}
		total += got
	}
	if total != 71 {
		t.Errorf("total benchmarks %d, want 71 (Table 3)", total)
	}
	if len(All()) != total {
		t.Errorf("All() = %d", len(All()))
	}
}

func TestAllBenchmarksCompile(t *testing.T) {
	for _, b := range All() {
		if _, err := b.Load(); err != nil {
			t.Errorf("%s: %v", b.ID(), err)
		}
	}
}

func TestAllBenchmarksHaveDatasetsAndPlans(t *testing.T) {
	for _, b := range All() {
		if len(b.Datasets) == 0 {
			t.Errorf("%s: no datasets", b.ID())
			continue
		}
		for _, d := range b.Datasets {
			if d.N <= 0 {
				t.Errorf("%s/%s: bad size %d", b.ID(), d.Name, d.N)
			}
			l := b.Plan(d.N)
			if l.GlobalSize <= 0 || len(l.Args) == 0 {
				t.Errorf("%s/%s: degenerate launch %+v", b.ID(), d.Name, l)
			}
		}
	}
}

func TestNPBDatasetClasses(t *testing.T) {
	for _, b := range NPB() {
		if len(b.Datasets) < 4 {
			t.Errorf("NPB.%s has only %d classes", b.Name, len(b.Datasets))
		}
	}
	// CG carries all five classes S..C.
	var cg *Benchmark
	for _, b := range NPB() {
		if b.Name == "CG" {
			cg = b
		}
	}
	if cg == nil || len(cg.Datasets) != 5 {
		t.Fatalf("CG datasets: %+v", cg)
	}
}

func TestParboilPackagedDatasets(t *testing.T) {
	counts := map[string]int{}
	for _, b := range Parboil() {
		counts[b.Name] = len(b.Datasets)
		if len(b.Datasets) < 1 || len(b.Datasets) > 4 {
			t.Errorf("Parboil.%s: %d datasets, want 1-4", b.Name, len(b.Datasets))
		}
	}
	if counts["spmv"] != 4 {
		t.Errorf("spmv datasets = %d", counts["spmv"])
	}
}

// TestMeasureAllSmall executes every benchmark once at a reduced size and
// checks a sane measurement comes back. This is the suites' integration
// test against interp + platform.
func TestMeasureAllSmall(t *testing.T) {
	for _, b := range All() {
		k, err := b.Load()
		if err != nil {
			t.Errorf("%s: %v", b.ID(), err)
			continue
		}
		ds := Dataset{Name: "test", N: 1024}
		m, err := b.Measure(k, ds, platform.SystemAMD, 1)
		if err != nil {
			t.Errorf("%s: %v", b.ID(), err)
			continue
		}
		if m.CPUTime <= 0 || m.GPUTime <= 0 {
			t.Errorf("%s: degenerate times %g %g", b.ID(), m.CPUTime, m.GPUTime)
		}
		if m.Profile.ComputeOps() == 0 && m.Profile.GlobalMemOps() == 0 {
			t.Errorf("%s: empty profile", b.ID())
		}
		if m.Vector.Transfer <= 0 {
			t.Errorf("%s: no transfer bytes", b.ID())
		}
	}
}

func TestSuiteCharacteristics(t *testing.T) {
	// NPB must be local-memory heavy and branch-light relative to Rodinia
	// (the §8.2 observations the experiments depend on).
	localRatio := func(bs []*Benchmark) (local, branch float64) {
		var lm, mem, br, comp int
		for _, b := range bs {
			k, err := b.Load()
			if err != nil {
				t.Fatalf("%s: %v", b.ID(), err)
			}
			lm += k.Static.LocalMem
			mem += k.Static.Mem + k.Static.LocalMem
			br += k.Static.Branches
			comp += k.Static.Comp
		}
		return float64(lm) / float64(mem), float64(br) / float64(comp+1)
	}
	npbLocal, npbBranch := localRatio(NPB())
	rodLocal, rodBranch := localRatio(Rodinia())
	if npbLocal <= rodLocal {
		t.Errorf("NPB local-mem ratio %.2f not above Rodinia %.2f", npbLocal, rodLocal)
	}
	if npbBranch >= rodBranch {
		t.Errorf("NPB branch density %.3f not below Rodinia %.3f", npbBranch, rodBranch)
	}
}

func TestMeasureDeterministic(t *testing.T) {
	b := NVIDIA()[0]
	k, err := b.Load()
	if err != nil {
		t.Fatal(err)
	}
	ds := Dataset{Name: "t", N: 2048}
	m1, err := b.Measure(k, ds, platform.SystemNVIDIA, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Without the flush the second call is a memo hit, and the test would
	// compare the stored run with itself.
	cache.FlushMemory()
	m2, err := b.Measure(k, ds, platform.SystemNVIDIA, 9)
	if err != nil {
		t.Fatal(err)
	}
	if m1.CPUTime != m2.CPUTime || m1.GPUTime != m2.GPUTime {
		t.Error("measurement not deterministic")
	}
}

// TestMeasureZeroSize: a dataset whose plan launches no work-items is an
// error naming the benchmark and dataset, for every benchmark.
func TestMeasureZeroSize(t *testing.T) {
	for _, b := range All() {
		k, err := b.Load()
		if err != nil {
			t.Fatalf("%s: %v", b.ID(), err)
		}
		m, err := b.Measure(k, Dataset{Name: "empty", N: 0}, platform.SystemAMD, 1)
		if err == nil {
			t.Errorf("%s: zero-size dataset measured: %+v", b.ID(), m)
		} else if want := b.ID() + " (empty)"; !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name %q", b.ID(), err, want)
		}
	}
}

// TestMeasureRunsEachLaunchOnce sweeps every suite job, from a cold memo,
// at the exec caps of TestConfig() and of the default campaign. A job
// whose capped launch an earlier job of its benchmark already ran is a
// suite-launch memo hit, and must equal its measurement from a cold memo.
// A miss is that cold computation already: the run reads nothing from
// the memo.
func TestMeasureRunsEachLaunchOnce(t *testing.T) {
	defer func(c int) { ExecCap = c }(ExecCap)
	counter := func(name string) *telemetry.Counter {
		return telemetry.Default().Counter(telemetry.Label(name, "cache", "suite-launch"), "")
	}
	hits, misses := counter("cache_hits_total"), counter("cache_misses_total")
	type job struct {
		b   *Benchmark
		k   *driver.Kernel
		ds  Dataset
		m   *driver.Measurement
		hit bool
	}
	for _, tc := range []struct {
		cap          int
		misses, hits int64
	}{{2048, 77, 83}, {16384, 109, 51}} {
		ExecCap = tc.cap
		cache.FlushMemory()
		h0, m0 := hits.Value(), misses.Value()
		var jobs []job
		for _, b := range All() {
			k, err := b.Load()
			if err != nil {
				t.Fatalf("%s: %v", b.ID(), err)
			}
			for _, ds := range b.Datasets {
				h := hits.Value()
				m, err := b.Measure(k, ds, platform.SystemAMD, 1)
				if err != nil {
					t.Fatalf("%s: %v", b.ID(), err)
				}
				jobs = append(jobs, job{b, k, ds, m, hits.Value() > h})
			}
		}
		if len(jobs) != 160 {
			t.Fatalf("cap %d: %d jobs, want 160", tc.cap, len(jobs))
		}
		if dm, dh := misses.Value()-m0, hits.Value()-h0; dm != tc.misses || dh != tc.hits {
			t.Errorf("cap %d: %d misses and %d hits, want %d and %d", tc.cap, dm, dh, tc.misses, tc.hits)
		}
		for _, j := range jobs {
			if !j.hit {
				continue
			}
			cache.FlushMemory()
			cold, err := j.b.Measure(j.k, j.ds, platform.SystemAMD, 1)
			if err != nil {
				t.Fatalf("%s: %v", j.b.ID(), err)
			}
			if !reflect.DeepEqual(j.m, cold) {
				t.Errorf("cap %d: %s: swept measurement %+v, cold %+v", tc.cap, j.m.Kernel, j.m, cold)
			}
		}
	}

	// A dataset at the cap runs the launch a larger dataset ran and scaled:
	// the hit must hand out the unscaled profile.
	ExecCap = 2048
	b := NPB()[0]
	k, err := b.Load()
	if err != nil {
		t.Fatal(err)
	}
	cache.FlushMemory()
	atCap, err := b.Measure(k, Dataset{Name: "cap", N: 2048}, platform.SystemAMD, 1)
	if err != nil {
		t.Fatal(err)
	}
	cache.FlushMemory()
	if _, err := b.Measure(k, Dataset{Name: "big", N: 8192}, platform.SystemAMD, 1); err != nil {
		t.Fatal(err)
	}
	h0 := hits.Value()
	hit, err := b.Measure(k, Dataset{Name: "cap", N: 2048}, platform.SystemAMD, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hits.Value() != h0+1 {
		t.Fatal("dataset at the cap was not a memo hit")
	}
	if *hit.Profile != *atCap.Profile {
		t.Errorf("hit after a scaled dataset: profile %+v, want %+v", *hit.Profile, *atCap.Profile)
	}
}
