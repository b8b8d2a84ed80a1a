package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// RunReport is the machine-readable summary of one pipeline run: the
// per-stage duration tree plus every counter, gauge, and histogram. A
// completed clexp run writes one of these to the -report path, giving a
// JSON reproduction of the paper's Table 1-style corpus statistics with
// per-stage timings alongside.
type RunReport struct {
	Component string    `json:"component"`
	Start     time.Time `json:"start"`
	End       time.Time `json:"end"`
	Seconds   float64   `json:"seconds"`
	// Env stamps the machine and toolchain that produced the run, making
	// reports comparable across machines. clperf record carries it into
	// the perf history.
	Env EnvInfo `json:"env"`

	Stages     []StageNode                  `json:"stages,omitempty"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// BuildReport assembles a RunReport from a registry and tracer.
func BuildReport(component string, start time.Time, reg *Registry, tracer *Tracer) *RunReport {
	snap := reg.Snapshot()
	end := time.Now()
	return &RunReport{
		Component:  component,
		Start:      start,
		End:        end,
		Seconds:    end.Sub(start).Seconds(),
		Env:        Env(),
		Stages:     tracer.Stages(),
		Counters:   snap.Counters,
		Gauges:     snap.Gauges,
		Histograms: snap.Histograms,
	}
}

// WriteFile writes the report as indented JSON to path.
func (r *RunReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: marshal report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("telemetry: write report: %w", err)
	}
	return nil
}
