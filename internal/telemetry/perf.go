package telemetry

import (
	"runtime"
	"sync/atomic"
)

// ResourceSample is a point-in-time snapshot of process-wide resource
// counters: CPU time consumed, cumulative heap allocations, total GC
// pause time, completed GC cycles, and live goroutines. Spans capture one
// sample at Start and one at End and attach the deltas as stage attrs —
// see the perf-sampling conventions in DESIGN.md for what a delta does
// (and does not) mean for concurrent stages.
//
// The sampler itself lives in internal/perf (it needs getrusage and
// runtime.ReadMemStats); EnablePerfSampling hands it to telemetry so the
// tracer stays dependency-free.
type ResourceSample struct {
	// CPUSeconds is process CPU time (user + system) since process start.
	CPUSeconds float64
	// AllocBytes is cumulative heap allocation (runtime.MemStats.TotalAlloc).
	AllocBytes uint64
	// GCPauseSeconds is total stop-the-world pause time since start.
	GCPauseSeconds float64
	// GCCycles is the number of completed GC cycles.
	GCCycles uint32
	// Goroutines is the current goroutine count.
	Goroutines int
}

var resourceSampler atomic.Pointer[func() ResourceSample]

// EnablePerfSampling turns per-stage resource accounting on with sample
// as the process resource sampler, or off when sample is nil. Off (the
// default) is overhead-free: spans never sample and carry no perf attrs.
// Binaries pass perf.Sample under the shared -perf flag; telemetry cannot
// import internal/perf, which depends on it for metrics and the stage
// tree.
func EnablePerfSampling(sample func() ResourceSample) {
	if sample == nil {
		resourceSampler.Store(nil)
		return
	}
	resourceSampler.Store(&sample)
}

// PerfSamplingEnabled reports whether spans are capturing resource deltas.
func PerfSamplingEnabled() bool { return resourceSampler.Load() != nil }

// SampleResources takes one resource sample for the spans and for
// instrumentation outside them (the nn training loop stamps per-epoch CPU
// deltas into its trained journal events). It returns ok=false when
// sampling is off; callers must treat the sample as optional.
func SampleResources() (ResourceSample, bool) {
	fp := resourceSampler.Load()
	if fp == nil {
		return ResourceSample{}, false
	}
	return (*fp)(), true
}

// EnvInfo stamps a measurement with the machine and toolchain that
// produced it. Every RunReport and run-history record carries one:
// wall times are comparable only between runs with the same stamp (a
// GOMAXPROCS=1 container shows no pool speedup at all).
type EnvInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// Env returns the current process's environment stamp.
func Env() EnvInfo {
	return EnvInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}
