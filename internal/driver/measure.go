package driver

import (
	"fmt"
	"time"

	"clgen/internal/features"
	"clgen/internal/interp"
	"clgen/internal/platform"
	"clgen/internal/telemetry"
)

// Measurement is one (kernel, dataset, system) performance observation:
// the model features and both device runtimes, from which the oracle
// mapping follows.
type Measurement struct {
	Kernel     string
	GlobalSize int
	Vector     features.Vector
	Profile    *interp.Profile
	CPUTime    float64
	GPUTime    float64
	Oracle     platform.DeviceType
}

// Speedup returns how much faster the better device is than the worse.
func (m *Measurement) Speedup() float64 {
	if m.CPUTime <= m.GPUTime {
		return m.GPUTime / m.CPUTime
	}
	return m.CPUTime / m.GPUTime
}

// TimeOn returns the runtime on the given device type.
func (m *Measurement) TimeOn(t platform.DeviceType) float64 {
	if t == platform.CPU {
		return m.CPUTime
	}
	return m.GPUTime
}

// MeasureConfig controls measurement.
type MeasureConfig struct {
	// ExecCap bounds the executed global size: kernels launched with a
	// larger nominal size run at the cap and have their profile and
	// transfer volume extrapolated linearly (exact for data-parallel
	// kernels whose per-item work does not depend on the payload size).
	// 0 disables capping.
	ExecCap int
	Run     RunConfig
}

// Measure runs the dynamic checker and, if the kernel does useful work,
// produces a Measurement on the given system. It measures the run at
// seed once: the paper averages five runs (§7.2), but the simulator is
// deterministic for a fixed payload.
func Measure(k *Kernel, globalSize int, sys *platform.System, seed int64, cfg MeasureConfig) (*Measurement, error) {
	start := time.Now()
	defer func() {
		telemetry.Default().Histogram("driver_measure_seconds",
			"Wall time of one Measure call (checker + execution).", nil).
			Observe(time.Since(start).Seconds())
	}()
	execSize := globalSize
	if cfg.ExecCap > 0 && execSize > cfg.ExecCap {
		execSize = cfg.ExecCap
	}
	res := Check(k, execSize, seed, cfg.Run)
	if !res.OK() {
		return nil, res.CheckError()
	}
	prof, transfer := res.Profile, res.TransferBytes
	if execSize != globalSize {
		factor := float64(globalSize) / float64(execSize)
		prof.Scale(factor)
		transfer = int64(float64(transfer) * factor)
	}
	return MeasureProfile(k, prof, transfer, globalSize, res.LocalSize, sys)
}

// MeasureProfile computes a Measurement from an existing execution profile
// (used by the suites, whose datasets come from the benchmark definitions
// rather than the payload generator).
func MeasureProfile(k *Kernel, prof *interp.Profile, transferBytes int64, globalSize, wgSize int, sys *platform.System) (*Measurement, error) {
	if prof == nil {
		return nil, fmt.Errorf("driver: nil profile for %q", k.Name)
	}
	coal := 0.0
	if k.Static.Mem > 0 {
		coal = float64(k.Static.Coalesced) / float64(k.Static.Mem)
	}
	w := platform.Workload{
		Profile:       prof,
		CoalescedFrac: coal,
		TransferBytes: transferBytes,
		WorkItems:     int64(globalSize),
	}
	_, cpuT, gpuT := sys.BestDevice(w)
	oracle := platform.CPU
	if gpuT < cpuT {
		oracle = platform.GPU
	}
	return &Measurement{
		Kernel:     k.Name,
		GlobalSize: globalSize,
		Vector: features.Vector{
			Static: k.Static,
			Dynamic: features.Dynamic{
				Transfer: transferBytes,
				WgSize:   int64(wgSize),
			},
		},
		Profile: prof,
		CPUTime: cpuT,
		GPUTime: gpuT,
		Oracle:  oracle,
	}, nil
}
