package telemetry

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scriptedSampler returns base on its first call and base+delta afterwards,
// so a start/end span pair observes a known resource delta.
func scriptedSampler(base, delta ResourceSample) func() ResourceSample {
	var calls atomic.Int64
	return func() ResourceSample {
		if calls.Add(1) == 1 {
			return base
		}
		return ResourceSample{
			CPUSeconds:     base.CPUSeconds + delta.CPUSeconds,
			AllocBytes:     base.AllocBytes + delta.AllocBytes,
			GCPauseSeconds: base.GCPauseSeconds + delta.GCPauseSeconds,
			GCCycles:       base.GCCycles + delta.GCCycles,
			Goroutines:     delta.Goroutines,
		}
	}
}

func withFakeSampler(t *testing.T, fn func() ResourceSample) {
	t.Helper()
	EnablePerfSampling(fn)
	t.Cleanup(func() { EnablePerfSampling(nil) })
}

// TestSpanPerfAttrs checks that with sampling enabled a span's End attaches
// the resource deltas as attrs and feeds the perf_stage_* gauges.
func TestSpanPerfAttrs(t *testing.T) {
	withFakeSampler(t, scriptedSampler(
		ResourceSample{CPUSeconds: 10, AllocBytes: 1 << 20, GCPauseSeconds: 0.25, GCCycles: 3, Goroutines: 4},
		ResourceSample{CPUSeconds: 1.5, AllocBytes: 4096, GCPauseSeconds: 0.125, GCCycles: 2, Goroutines: 7},
	))
	reg := NewRegistry()
	tr := NewTracer(reg)
	clk := newFakeClock()
	tr.SetClock(clk.now)

	s := tr.Start("corpus.build")
	clk.advance(2 * time.Second)
	s.End()

	stages := tr.Stages()
	if len(stages) != 1 {
		t.Fatalf("got %d stages, want 1", len(stages))
	}
	attrs := stages[0].Attrs
	wantAttrs := map[string]any{
		"cpu_s":       1.5,
		"alloc_bytes": int64(4096),
		"gc_pause_s":  0.125,
		"gc_cycles":   2,
		"goroutines":  7,
	}
	for k, want := range wantAttrs {
		if got, ok := attrs[k]; !ok {
			t.Errorf("attr %s missing; attrs=%v", k, attrs)
		} else if got != want {
			t.Errorf("attr %s = %v (%T), want %v (%T)", k, got, got, want, want)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Gauges[`perf_stage_cpu_seconds{stage="corpus.build"}`]; got != 1.5 {
		t.Errorf("perf_stage_cpu_seconds = %v, want 1.5", got)
	}
	if got := snap.Gauges[`perf_stage_alloc_bytes{stage="corpus.build"}`]; got != 4096 {
		t.Errorf("perf_stage_alloc_bytes = %v, want 4096", got)
	}
	if got := snap.Gauges[`perf_stage_gc_pause_seconds{stage="corpus.build"}`]; got != 0.125 {
		t.Errorf("perf_stage_gc_pause_seconds = %v, want 0.125", got)
	}
}

// TestSpanPerfDisabled checks that once sampling is turned off no sampler
// runs and spans stay attr-free: the accounting must be overhead-free when
// off.
func TestSpanPerfDisabled(t *testing.T) {
	calls := 0
	EnablePerfSampling(func() ResourceSample { calls++; return ResourceSample{} })
	EnablePerfSampling(nil)
	if PerfSamplingEnabled() {
		t.Fatal("sampling still enabled after EnablePerfSampling(nil)")
	}
	tr := NewTracer(NewRegistry())
	s := tr.Start("stage")
	s.End()
	if calls != 0 {
		t.Fatalf("sampler ran %d times with -perf off, want 0", calls)
	}
	if attrs := tr.Stages()[0].Attrs; len(attrs) != 0 {
		t.Fatalf("unexpected attrs with -perf off: %v", attrs)
	}
}

// TestSpanPerfAttrMerge checks that perf deltas merge with user-set attrs
// by upsert: user attrs survive, colliding keys are overwritten once (no
// duplicate keys in the export), and the RunReport carries the union.
func TestSpanPerfAttrMerge(t *testing.T) {
	withFakeSampler(t, scriptedSampler(
		ResourceSample{CPUSeconds: 2},
		ResourceSample{CPUSeconds: 0.5, Goroutines: 3},
	))
	reg := NewRegistry()
	tr := NewTracer(reg)
	clk := newFakeClock()
	tr.SetClock(clk.now)

	s := tr.Start("core.synthesize")
	s.SetAttr("kernels", 42)
	s.SetAttr("cpu_s", 999.0) // stale user value: End must overwrite it
	clk.advance(time.Second)
	s.End()

	rep := BuildReport("test", clk.now().Add(-time.Minute), reg, tr)
	if len(rep.Stages) != 1 {
		t.Fatalf("got %d stages, want 1", len(rep.Stages))
	}
	attrs := rep.Stages[0].Attrs
	if got := attrs["kernels"]; got != 42 {
		t.Errorf("user attr kernels = %v, want 42", got)
	}
	if got := attrs["cpu_s"]; got != 0.5 {
		t.Errorf("cpu_s = %v, want measured 0.5 (user value overwritten)", got)
	}
	if got := attrs["goroutines"]; got != 3 {
		t.Errorf("goroutines = %v, want 3", got)
	}
}

// TestReportEnv checks every RunReport is stamped with the machine env.
func TestReportEnv(t *testing.T) {
	rep := BuildReport("test", time.Now(), NewRegistry(), NewTracer(nil))
	if rep.Env.GoVersion == "" || rep.Env.GOMAXPROCS <= 0 || rep.Env.NumCPU <= 0 {
		t.Fatalf("report env incomplete: %+v", rep.Env)
	}
	if rep.Env != Env() {
		t.Fatalf("report env %+v != current env %+v", rep.Env, Env())
	}
}

// TestSpanPerfConcurrent hammers span start/end from many goroutines with
// sampling enabled — run under -race this guards the lock-free res0
// handoff and the sampler pointer swap.
func TestSpanPerfConcurrent(t *testing.T) {
	withFakeSampler(t, func() ResourceSample {
		return ResourceSample{CPUSeconds: 1, AllocBytes: 1, Goroutines: 1}
	})
	reg := NewRegistry()
	tr := NewTracer(reg)
	root := tr.Start("root")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := root.Child("worker")
				c.SetAttr("i", i)
				c.End()
			}
		}()
	}
	// Concurrent readers: the exporter paths the HTTP server exercises.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.Stages()
				var b strings.Builder
				tr.WriteTree(&b)
				reg.Snapshot()
			}
		}()
	}
	wg.Wait()
	root.End()
	if n := len(tr.Stages()[0].Children); n != 8*200 {
		t.Fatalf("got %d children, want %d", n, 8*200)
	}
}
