// Package cli is the binaries' one start-up path. It registers the shared
// flags, applies each one by calling the package that owns it, and
// finishes the run in a fixed order on exit.
//
// The flags come in two groups. Every binary takes the observability
// flags (Register); the binaries that run the pipeline (clgen, clexp,
// cldrive) also take the pipeline flags (RegisterPipeline).
package cli

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"clgen/internal/cache"
	"clgen/internal/driver"
	"clgen/internal/features"
	"clgen/internal/journal"
	"clgen/internal/perf"
	"clgen/internal/pool"
	"clgen/internal/telemetry"
)

// Flags are the parsed values of the shared flags. -workers has no field:
// parsing it sets pool.SetWorkers directly.
type Flags struct {
	// Observability flags.
	Verbose      bool          // -v: debug logging
	Quiet        bool          // -quiet: warnings and errors only
	JSONLog      bool          // -log-json: JSON log encoding
	MetricsAddr  string        // -metrics-addr: serve /metrics, /vars, /stages, /debug/pprof
	ReportPath   string        // -report: write a RunReport JSON on exit
	Perf         bool          // -perf: per-stage resource deltas in every span
	StallTimeout time.Duration // -stall-timeout: stall watchdog deadline (0 = off)
	StallDump    string        // -stall-dump: watchdog dump path ("" = <component>.stall.txt)
	PerfHistory  string        // -perf-history: append a run-history record on exit

	// Pipeline flags.
	JournalPath     string // -journal: per-artifact JSONL provenance journal
	CacheDir        string // -cache-dir: persistent tier of the stage memos
	PreciseFeatures bool   // -precise-features: analyzer-derived static features
	FootprintSizing bool   // -footprint-sizing: §5.1 buffers sized by the proven footprint
	// StaticChecks (-static-checks) turns on the static analyzer: strict
	// rejection filtering in clgen and clexp, the dynamic-checker
	// pre-screen in cldrive. Start does not apply it; each binary passes
	// it into its pipeline's config.
	StaticChecks bool
}

// Register installs the observability flags on fs and returns the values
// they parse into.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Verbose, "v", false, "enable debug logging")
	fs.BoolVar(&f.Quiet, "quiet", false, "suppress progress logging (warnings and errors only)")
	fs.BoolVar(&f.JSONLog, "log-json", false, "emit logs as JSON lines")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve /metrics, /vars and /debug/pprof on this address (e.g. :9090)")
	fs.StringVar(&f.ReportPath, "report", "", "write a JSON telemetry RunReport to this path on exit")
	fs.BoolVar(&f.Perf, "perf", false, "sample per-stage CPU time, heap allocations, GC pauses and goroutine counts into spans and perf_* metrics")
	fs.DurationVar(&f.StallTimeout, "stall-timeout", 0, "arm the stall watchdog: dump stacks, flight recorder and in-flight artifacts if no progress for this long (0 disables)")
	fs.StringVar(&f.StallDump, "stall-dump", "", "stall watchdog dump path (default <component>.stall.txt)")
	fs.StringVar(&f.PerfHistory, "perf-history", "", "append a machine-stamped per-stage run profile to this JSONL history on exit (inspect with clperf)")
	return f
}

// RegisterPipeline installs the observability flags and the pipeline
// flags on fs and returns the values they parse into.
func RegisterPipeline(fs *flag.FlagSet) *Flags {
	f := Register(fs)
	fs.StringVar(&f.JournalPath, "journal", "", "write a per-artifact JSONL provenance journal to this path (analyze with cltrace)")
	fs.StringVar(&f.CacheDir, "cache-dir", "", "persist content-addressed stage caches (filter/rewrite/feature/check results) under this directory; warm runs reuse them")
	fs.BoolVar(&f.StaticChecks, "static-checks", false, "run the CFG+dataflow static analyzer: strict rejection filtering and dynamic-checker pre-screening")
	fs.BoolVar(&f.PreciseFeatures, "precise-features", false, "derive static code features from the CFG+dataflow analyzer (precise coalescing/memory counts) instead of AST heuristics, and journal per-kernel feature-agreement events")
	fs.BoolVar(&f.FootprintSizing, "footprint-sizing", false, "size §5.1 payload buffers to max(Sg, proven symbolic footprint) so stride-past-gid kernels are rescued instead of crashing, and journal per-kernel footprint events")
	fs.Func("workers", "worker goroutines for parallel pipeline stages (default GOMAXPROCS)",
		func(v string) error {
			n, err := strconv.Atoi(v)
			if err != nil {
				return err
			}
			pool.SetWorkers(n)
			return nil
		})
	return f
}

// Runtime is a started binary's run: the configured logger, the optional
// metrics server, and what Close must finish.
type Runtime struct {
	Log       *telemetry.Logger
	Server    *telemetry.Server
	component string
	flags     *Flags
	start     time.Time
	journal   *journal.Writer
	watchdog  *perf.Watchdog
}

// Start applies the flags: it configures the default logger, opens and
// activates the journal, points the stage caches at -cache-dir, switches
// on the pipeline modes, turns on perf sampling, arms the watchdog and
// starts the metrics server. When a step fails, Start deactivates the
// journal, turns sampling off and stops the watchdog before it returns
// the error; no run-history record is appended.
func (f *Flags) Start(component string) (_ *Runtime, err error) {
	level := telemetry.LevelInfo
	if f.Verbose {
		level = telemetry.LevelDebug
	}
	if f.Quiet {
		level = telemetry.LevelWarn
	}
	enc := telemetry.EncodeText
	if f.JSONLog {
		enc = telemetry.EncodeJSON
	}
	log := telemetry.NewLogger(os.Stderr, level, enc).With("component", component)
	telemetry.SetDefaultLogger(log)

	rt := &Runtime{Log: log, component: component, flags: f, start: time.Now()}
	defer func() {
		if err != nil {
			rt.stopPerf()
			rt.closeJournal()
		}
	}()
	if f.JournalPath != "" {
		w, err := journal.Create(f.JournalPath)
		if err != nil {
			return nil, err
		}
		journal.SetActive(w)
		rt.journal = w
		log.Info("provenance journal open", "path", f.JournalPath)
	}
	if f.CacheDir != "" {
		if err := cache.SetDir(f.CacheDir); err != nil {
			return nil, err
		}
		log.Info("persistent stage cache enabled", "dir", f.CacheDir)
	}
	if f.PreciseFeatures {
		features.SetPrecise(true)
		log.Info("precise feature extraction enabled")
	}
	if f.FootprintSizing {
		driver.SetFootprintSizing(true)
		log.Info("footprint-aware payload sizing enabled")
	}
	if f.Perf {
		telemetry.EnablePerfSampling(perf.Sample)
	}
	if f.StallTimeout > 0 {
		rt.watchdog = perf.StartWatchdog(perf.WatchdogConfig{
			Component: component,
			Deadline:  f.StallTimeout,
			DumpPath:  f.StallDump,
		})
	}
	if f.MetricsAddr != "" {
		srv, err := telemetry.Serve(f.MetricsAddr, telemetry.Default(), telemetry.DefaultTracer())
		if err != nil {
			return nil, err
		}
		rt.Server = srv
		log.Info("telemetry server listening",
			"addr", srv.Addr, "endpoints", "/metrics /vars /stages /debug/pprof/")
	}
	return rt, nil
}

// Close finishes the run, in order: it prints the stage-tree run summary
// (unless -quiet or -log-json: the tree is plain text and would corrupt a
// JSON-lines stream), writes -report, stops the watchdog and sampling and
// appends the -perf-history record (which must see every ended span),
// closes the journal, and stops the metrics server. It logs each failure
// and returns the first.
func (rt *Runtime) Close() error {
	f := rt.flags
	var firstErr error
	fail := func(msg string, err error, kv ...any) {
		if firstErr == nil {
			firstErr = err
		}
		rt.Log.Error(msg, append(kv, "err", err)...)
	}
	if !f.Quiet && !f.JSONLog {
		if tree := telemetry.DefaultTracer().TreeString(); tree != "" {
			fmt.Fprintf(os.Stderr, "---- run summary (%s, %s) ----\n%s",
				rt.component, time.Since(rt.start).Round(time.Millisecond), tree)
		}
	}
	var rep *telemetry.RunReport
	if f.ReportPath != "" || f.PerfHistory != "" {
		rep = telemetry.BuildReport(rt.component, rt.start, telemetry.Default(), telemetry.DefaultTracer())
	}
	if f.ReportPath != "" {
		if err := rep.WriteFile(f.ReportPath); err != nil {
			fail("writing run report failed", err, "path", f.ReportPath)
		} else {
			rt.Log.Info("run report written", "path", f.ReportPath)
		}
	}
	rt.stopPerf()
	if f.PerfHistory != "" {
		rec := perf.BuildRecord(rep, perf.GitRev())
		if err := perf.Append(f.PerfHistory, rec); err != nil {
			fail("appending perf history failed", err, "path", f.PerfHistory)
		} else {
			rt.Log.Info("perf history appended", "path", f.PerfHistory, "metrics", len(rec.Metrics))
		}
	}
	if err := rt.closeJournal(); err != nil {
		fail("closing provenance journal failed", err)
	}
	if err := rt.Server.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// stopPerf disarms the watchdog and turns perf sampling off.
func (rt *Runtime) stopPerf() {
	if rt.watchdog != nil {
		rt.watchdog.Stop()
	}
	telemetry.EnablePerfSampling(nil)
}

// closeJournal deactivates the journal, then flushes and closes it.
func (rt *Runtime) closeJournal() error {
	if rt.journal == nil {
		return nil
	}
	journal.SetActive(nil)
	return rt.journal.Close()
}
