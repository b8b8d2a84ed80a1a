// Command clperf manages the per-stage perf run history the pipeline
// binaries append with -perf-history (see internal/perf): it records new
// profiles from RunReport JSON files, prints the per-stage trajectory,
// and gates noise-aware perf regressions in CI.
//
// Usage:
//
//	clperf record [-history H] [-component C] report.json
//	    Flatten a RunReport's stage tree into per-stage wall (and, under
//	    -perf, CPU) seconds, stamp it with the machine (GOMAXPROCS,
//	    NumCPU, go version) and git revision, and append it to the JSONL
//	    history (default PERF_HISTORY.jsonl).
//
//	clperf history [-stage S] H
//	    Print the run trajectory, one row per recorded run.
//
//	clperf diff [-threshold pct] [-min-seconds s] H
//	    Gate the newest record against the median of earlier runs from
//	    the same component AND the same machine stamp. A stage's wall
//	    time regresses only when it exceeds the baseline by both the
//	    relative threshold (default 75%) and the absolute floor (default
//	    0.1s) — so short noisy stages don't flap the gate. Tolerances are
//	    used as given; a negative one is an error. Exits 1 on regression,
//	    0 when clean or when no comparable baseline exists yet, 2 on an
//	    error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"clgen/internal/perf"
	"clgen/internal/telemetry"
)

// defaultHistory is where bench-snapshot and CI keep the run history.
const defaultHistory = "PERF_HISTORY.jsonl"

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = record(os.Args[2:])
	case "history":
		err = history(os.Args[2:])
	case "diff":
		var regressed bool
		regressed, err = diff(os.Args[2:])
		if err == nil && regressed {
			os.Exit(1)
		}
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "clperf: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "clperf:", err)
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  clperf record  [-history H] [-component C] <report.json>
  clperf history [-stage S] <history.jsonl>
  clperf diff    [-threshold pct] [-min-seconds s] <history.jsonl>`)
}

func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	historyPath := fs.String("history", defaultHistory, "JSONL history to append to")
	component := fs.String("component", "", "override the report's component name")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("record needs exactly one RunReport JSON path")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	var rep telemetry.RunReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("parse report %s: %w", fs.Arg(0), err)
	}
	if *component != "" {
		rep.Component = *component
	}
	rec := perf.BuildRecord(&rep, perf.GitRev())
	if err := perf.Append(*historyPath, rec); err != nil {
		return err
	}
	fmt.Printf("recorded %s: %d metric(s), %.3fs total -> %s\n",
		rec.Component, len(rec.Metrics), rep.Seconds, *historyPath)
	return nil
}

func history(args []string) error {
	fs := flag.NewFlagSet("history", flag.ExitOnError)
	stage := fs.String("stage", "", "show only this stage's trajectory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("history needs exactly one history path")
	}
	recs, err := perf.ReadHistory(fs.Arg(0))
	if err != nil {
		return err
	}
	perf.RenderHistory(os.Stdout, recs, *stage)
	return nil
}

func diff(args []string) (bool, error) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	threshold := fs.Float64("threshold", perf.DefaultThresholdPct,
		"relative regression threshold in percent")
	minSeconds := fs.Float64("min-seconds", perf.DefaultMinSeconds,
		"absolute regression floor in seconds (both must be exceeded)")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() != 1 {
		return false, fmt.Errorf("diff needs exactly one history path")
	}
	recs, err := perf.ReadHistory(fs.Arg(0))
	if err != nil {
		return false, err
	}
	rep, err := perf.Diff(recs, perf.StageRules(*threshold, *minSeconds))
	if err != nil {
		return false, err
	}
	rep.Render(os.Stdout)
	return rep.Regressions > 0, nil
}
