package driver

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"clgen/internal/cache"
	"clgen/internal/interp"
	"clgen/internal/journal"
	"clgen/internal/platform"
	"clgen/internal/telemetry"
)

func captureJournal(t *testing.T, fn func()) []journal.Event {
	t.Helper()
	var buf bytes.Buffer
	w := journal.NewWriter(&buf, 0)
	journal.SetActive(w)
	defer journal.SetActive(nil)
	fn()
	journal.SetActive(nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := journal.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// TestCheckColdWarmIdentical: a memoized §5.2 check must return the same
// verdict, profile, and payload quantities as the execution it skipped,
// the warm StageChecked event must carry the cache_hit annotation, and
// the annotation count must equal the cache_hits_total{cache="check"}
// delta exactly (the checker runs under pool.Map fan-outs, which never
// overshoot, so the invariant is exact here).
func TestCheckColdWarmIdentical(t *testing.T) {
	if err := cache.SetDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.SetDir("") })
	cache.FlushMemory()

	k, err := Load(zipSrc)
	if err != nil {
		t.Fatal(err)
	}
	hitsC := telemetry.Default().Counter(telemetry.Label("cache_hits_total", "cache", "check"), "")
	verdictsC := telemetry.Default().Counter(
		telemetry.Label("driver_checker_verdicts_total", "verdict", string(UsefulWork)), "")

	var cold CheckResult
	coldEvents := captureJournal(t, func() { cold = Check(k, 256, 1, RunConfig{}) })
	if !cold.OK() || cold.CacheHit {
		t.Fatalf("cold check: %+v", cold)
	}

	cache.FlushMemory() // only the persistent tier stays warm
	hits0, verdicts0 := hitsC.Value(), verdictsC.Value()
	var warm CheckResult
	warmEvents := captureJournal(t, func() { warm = Check(k, 256, 1, RunConfig{}) })

	if !warm.CacheHit {
		t.Fatal("warm check did not hit the persistent tier")
	}
	warm.CacheHit = false
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm check result differs:\ncold %+v\nwarm %+v", cold, warm)
	}
	if !journal.Equivalent(coldEvents, warmEvents) {
		t.Error("cold and warm check journals not equivalent")
	}
	if got := journal.Funnel(warmEvents).CacheHits[journal.StageChecked]; got != 1 {
		t.Errorf("warm funnel cache hits = %d, want 1", got)
	}
	if d := hitsC.Value() - hits0; d != 1 {
		t.Errorf("cache_hits_total{cache=check} delta = %d, want 1", d)
	}
	// The funnel==telemetry invariant: a memoized check still counts a
	// verdict.
	if d := verdictsC.Value() - verdicts0; d != 1 {
		t.Errorf("verdict counter delta on warm run = %d, want 1", d)
	}
}

// TestMeasureStableUnderMemoization: Measure aggregates profiles in place
// (Add/Scale), so cached check outcomes must hand every caller a fresh
// profile copy. Repeated measurements — first cold, then served from the
// memo — must agree exactly; a shared profile would be scaled twice and
// drift.
func TestMeasureStableUnderMemoization(t *testing.T) {
	k, err := Load(zipSrc)
	if err != nil {
		t.Fatal(err)
	}
	sys := platform.SystemAMD
	cfg := MeasureConfig{Repeats: 3, ExecCap: 128}
	var runs []*Measurement
	for i := 0; i < 3; i++ {
		m, err := Measure(k, 4096, sys, 9, cfg)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, m)
	}
	for i := 1; i < len(runs); i++ {
		if !reflect.DeepEqual(runs[0], runs[i]) {
			t.Errorf("measurement %d differs from the first:\n%+v\nvs\n%+v", i, runs[0], runs[i])
		}
	}
}

// failureKernels fail their §5.2 check with each class of run failure
// on a 64-item payload and a budget of failureSteps.
var failureKernels = []struct {
	name, src, want string
	class           func(error) bool
}{
	{"step limit", `__kernel void A(__global int* a) { while (1) { a[0] = 1; } }`, classStepLimit,
		func(err error) bool { return errors.Is(err, interp.ErrStepLimit) }},
	{"fault", `__kernel void A(__global int* a) { a[get_global_id(0) + 100000] = 1; }`, classFault,
		func(err error) bool { var mf *interp.MemFault; return errors.As(err, &mf) && mf.Write && mf.Arg == 0 }},
	{"barrier divergence", `__kernel void A(__global int* a) {
  if (get_local_id(0) == 0) { barrier(CLK_LOCAL_MEM_FENCE); }
  a[get_global_id(0)] = 1;
}`, classBarrier, func(err error) bool { return errors.Is(err, interp.ErrBarrierDivergence) }},
	{"other", `int f(int x) { return f(x + 1); }
__kernel void A(__global int* a) { a[get_global_id(0)] = f(1); }`, classOther,
		func(err error) bool { return strings.Contains(err.Error(), "call depth limit") }},
}

const failureSteps = 1 << 14

// TestCheckFailureClassSurvivesMemo: a run failure's Err unwraps to the
// interpreter error of its class (errors.Is / errors.As) whether the check
// executed or the persistent memo served it, with the same text; Steps,
// the budget its executions consumed, is the same both ways, and the
// checked journal events carry it and the class, equivalent cold and warm.
func TestCheckFailureClassSurvivesMemo(t *testing.T) {
	if err := cache.SetDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.SetDir("") })
	cache.FlushMemory()

	for _, tc := range failureKernels {
		t.Run(tc.name, func(t *testing.T) {
			k, err := Load(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			var cold, warm CheckResult
			coldEvents := captureJournal(t, func() { cold = Check(k, 64, 1, RunConfig{MaxSteps: failureSteps}) })
			cache.FlushMemory() // only the persistent tier stays warm
			warmEvents := captureJournal(t, func() { warm = Check(k, 64, 1, RunConfig{MaxSteps: failureSteps}) })
			if cold.CacheHit || !warm.CacheHit {
				t.Fatalf("cache hits: cold %v, warm %v", cold.CacheHit, warm.CacheHit)
			}
			for _, res := range []CheckResult{cold, warm} {
				if res.Verdict != RunFailure || !tc.class(res.Err) {
					t.Errorf("verdict %q, err %v (%T): wrong class", res.Verdict, res.Err, res.Err)
				}
			}
			if cold.Err.Error() != warm.Err.Error() || cold.Steps != warm.Steps || cold.Steps <= 0 {
				t.Errorf("cold %q after %d steps, warm %q after %d", cold.Err, cold.Steps, warm.Err, warm.Steps)
			}
			if tc.name == "step limit" && cold.Steps != failureSteps+1 {
				t.Errorf("steps = %d, want %d", cold.Steps, failureSteps+1)
			}
			if !journal.Equivalent(coldEvents, warmEvents) {
				t.Error("cold and warm check journals not equivalent")
			}
			for _, ev := range append(coldEvents, warmEvents...) {
				if ev.Stage == journal.StageChecked && (ev.Steps != cold.Steps || ev.Class != tc.want) {
					t.Errorf("checked event: %d steps, class %q; want %d, %q", ev.Steps, ev.Class, cold.Steps, tc.want)
				}
			}
		})
	}
}
