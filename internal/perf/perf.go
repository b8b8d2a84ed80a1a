// Package perf is the resource-observability backend behind the
// binaries' -perf and -perf-history flags. It contributes two
// capabilities on top of internal/telemetry:
//
//   - Per-stage resource accounting: Sample reads process CPU time
//     (getrusage), heap allocations and GC pauses (runtime.ReadMemStats),
//     and the goroutine count. Handed to telemetry.EnablePerfSampling,
//     it lets every span attach cpu_s / alloc_bytes / gc_pause_s deltas
//     and feed the perf_stage_* metrics.
//   - Run history: the one JSONL history and median-baseline regression
//     gate. A record is a machine stamp plus named metrics, each gated by
//     its measure's Rule. -perf-history appends per-stage wall and CPU
//     seconds on exit and clperf records, prints and diffs them;
//     cltrace model does the same for evaluation accuracy and speedup
//     (internal/mlobs).
//
// internal/cli applies the flags: it passes Sample to telemetry and
// appends the history record on exit.
package perf

import (
	"runtime"

	"clgen/internal/telemetry"
)

// Sample captures the process-wide resource counters a span diffs against:
// cumulative CPU time (user+system), cumulative heap allocations and GC
// pauses, and the current goroutine count. It costs one getrusage syscall
// plus one ReadMemStats stop-the-world handshake — cheap enough per stage,
// not per artifact.
func Sample() telemetry.ResourceSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return telemetry.ResourceSample{
		CPUSeconds:     cpuSeconds(),
		AllocBytes:     ms.TotalAlloc,
		GCPauseSeconds: float64(ms.PauseTotalNs) / 1e9,
		GCCycles:       ms.NumGC,
		Goroutines:     runtime.NumGoroutine(),
	}
}
