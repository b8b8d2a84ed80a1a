package perf

import (
	"io"
	"time"

	"clgen/internal/telemetry"
)

// start is the telemetry.SetPerfStarter hook: it turns the parsed
// -perf/-stall-timeout/-perf-history flags into running machinery and
// returns the closer Runtime.Close calls after the RunReport is written
// (so the history record sees every ended span).
func start(cfg telemetry.PerfConfig) (io.Closer, error) {
	c := &closer{cfg: cfg}
	if cfg.Perf {
		telemetry.EnablePerfSampling(true)
	}
	if cfg.StallTimeout > 0 {
		c.watchdog = StartWatchdog(WatchdogConfig{
			Component: cfg.Component,
			Deadline:  cfg.StallTimeout,
			DumpPath:  cfg.StallDump,
		})
	}
	return c, nil
}

type closer struct {
	cfg      telemetry.PerfConfig
	watchdog *Watchdog
}

func (c *closer) Close() error {
	if c.watchdog != nil {
		c.watchdog.Stop()
	}
	if c.cfg.Perf {
		telemetry.EnablePerfSampling(false)
	}
	if c.cfg.HistoryPath == "" {
		return nil
	}
	start := c.cfg.Start
	if start.IsZero() {
		start = time.Now()
	}
	rep := telemetry.BuildReport(c.cfg.Component, start, telemetry.Default(), telemetry.DefaultTracer())
	rec := BuildRecord(rep, GitRev())
	if err := Append(c.cfg.HistoryPath, rec); err != nil {
		return err
	}
	telemetry.Info("perf history appended", "path", c.cfg.HistoryPath, "metrics", len(rec.Metrics))
	return nil
}
