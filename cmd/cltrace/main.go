// Command cltrace analyzes the provenance journals the other binaries
// write with the shared -journal flag (see internal/journal): it turns a
// run's per-artifact lifecycle events back into the paper's funnel tables
// and gates run-to-run regressions in CI.
//
// Usage:
//
//	cltrace funnel [-json] run.jsonl
//	    §4.1 corpus discard breakdown, §4.3 sample acceptance, §5.2
//	    dynamic-checker verdicts, and per-stage latency percentiles.
//	    Runs journaled under -precise-features additionally render the
//	    feature-agreement table: per-feature mean |delta| and exact-match
//	    rate between the heuristic and analyzer-derived vectors.
//	    -json emits the same funnel as JSON with derived rates inlined.
//
//	cltrace show run.jsonl <id-prefix>
//	    Reconstruct one artifact's full history (events whose content-hash
//	    ID — or parent ID, for derived artifacts — starts with the prefix).
//
//	cltrace diff [-threshold pct] old.jsonl new.jsonl
//	    Compare two runs' funnels through the run-history gate clperf and
//	    cltrace model use (internal/perf): artifact counts, failure
//	    counts and modeled runtime means regress when more than -threshold
//	    percent worse (default 5), acceptance rates when more than
//	    -threshold percentage points lower; 0 flags any worsening. Exits 1
//	    on regression and 2 on an error such as a negative threshold —
//	    identical-seed runs always pass.
//
//	cltrace model report [-json] run.jsonl
//	    Learning-loop view of the journal: training curves (per-epoch
//	    loss/clip-rate from trained events) and evaluation summaries with
//	    per-suite confusion matrices (from predicted events).
//
//	cltrace model record -history h.jsonl run.jsonl
//	    Append the run's evaluation accuracies and geomean speedups as one
//	    record of the run history clperf also uses (internal/perf).
//
//	cltrace model diff [-accuracy-pp pp] [-speedup-pct pct] h.jsonl
//	    Gate the newest history record against the median of comparable
//	    (same-machine) predecessors. Exits 1 when any evaluation's
//	    accuracy drops more than -accuracy-pp percentage points or its
//	    geomean speedup more than -speedup-pct percent, and 2 on an error
//	    such as a negative tolerance.
//
//	cltrace model history h.jsonl
//	    Per-record accuracy/speedup trajectory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"clgen/internal/journal"
	"clgen/internal/mlobs"
	"clgen/internal/perf"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "funnel":
		err = funnel(os.Args[2:])
	case "show":
		err = show(os.Args[2:])
	case "diff":
		var regressed bool
		regressed, err = diff(os.Args[2:])
		if err == nil && regressed {
			os.Exit(1)
		}
	case "model":
		var regressed bool
		regressed, err = model(os.Args[2:])
		if err == nil && regressed {
			os.Exit(1)
		}
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "cltrace: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cltrace:", err)
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  cltrace funnel [-json] <journal.jsonl>
  cltrace show   <journal.jsonl> <id-prefix>
  cltrace diff   [-threshold pct] <old.jsonl> <new.jsonl>
  cltrace model  report [-json] <journal.jsonl>
  cltrace model  record -history <h.jsonl> <journal.jsonl>
  cltrace model  diff [-accuracy-pp pp] [-speedup-pct pct] <h.jsonl>
  cltrace model  history <h.jsonl>`)
}

// model dispatches the learning-loop subcommands. The bool mirrors diff:
// true means the regression gate tripped (exit 1, distinct from errors).
func model(args []string) (bool, error) {
	if len(args) < 1 {
		return false, fmt.Errorf("model needs a subcommand: report | record | diff | history")
	}
	switch args[0] {
	case "report":
		return false, modelReport(args[1:])
	case "record":
		return false, modelRecord(args[1:])
	case "diff":
		return modelDiff(args[1:])
	case "history":
		return false, modelHistory(args[1:])
	default:
		return false, fmt.Errorf("unknown model subcommand %q", args[0])
	}
}

func modelReport(args []string) error {
	fs := flag.NewFlagSet("model report", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("model report needs exactly one journal path")
	}
	events, err := journal.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	rep := mlobs.Report(events)
	if *jsonOut {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	fmt.Print(rep.Render())
	return nil
}

func modelRecord(args []string) error {
	fs := flag.NewFlagSet("model record", flag.ExitOnError)
	history := fs.String("history", "", "history JSONL to append the record to (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *history == "" {
		return fmt.Errorf("model record needs -history FILE")
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("model record needs exactly one journal path")
	}
	events, err := journal.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	rec := mlobs.BuildRecord(events, perf.GitRev())
	if len(rec.Metrics) == 0 {
		return fmt.Errorf("journal %s has no predicted events to record", fs.Arg(0))
	}
	if err := perf.Append(*history, rec); err != nil {
		return err
	}
	fmt.Printf("recorded %d metric(s) to %s\n", len(rec.Metrics), *history)
	return nil
}

func modelDiff(args []string) (bool, error) {
	fs := flag.NewFlagSet("model diff", flag.ExitOnError)
	accPP := fs.Float64("accuracy-pp", mlobs.DefaultAccuracyPP,
		"accuracy drop, in percentage points, that fails the gate")
	spdPct := fs.Float64("speedup-pct", mlobs.DefaultSpeedupPct,
		"relative geomean-speedup drop, in percent, that fails the gate")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() != 1 {
		return false, fmt.Errorf("model diff needs exactly one history path")
	}
	history, err := perf.ReadHistory(fs.Arg(0))
	if err != nil {
		return false, err
	}
	rep, err := perf.Diff(history, mlobs.Rules(*accPP, *spdPct))
	if err != nil {
		return false, err
	}
	rep.Render(os.Stdout)
	return rep.Regressions > 0, nil
}

func modelHistory(args []string) error {
	fs := flag.NewFlagSet("model history", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("model history needs exactly one history path")
	}
	history, err := perf.ReadHistory(fs.Arg(0))
	if err != nil {
		return err
	}
	perf.RenderHistory(os.Stdout, history, "")
	return nil
}

func funnel(args []string) error {
	fs := flag.NewFlagSet("funnel", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit the funnel as JSON (counters plus derived rates)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("funnel needs exactly one journal path")
	}
	events, err := journal.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	rep := journal.Funnel(events)
	if *jsonOut {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	fmt.Print(rep.Render())
	return nil
}

func show(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("show needs a journal path and an id prefix")
	}
	events, err := journal.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	history := journal.History(events, fs.Arg(1))
	if len(history) == 0 {
		return fmt.Errorf("no events match id prefix %q", fs.Arg(1))
	}
	fmt.Print(journal.RenderHistory(history))
	return nil
}

func diff(args []string) (bool, error) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	threshold := fs.Float64("threshold", 5,
		"regression threshold: percent (counts, failures, runtimes) or percentage points (rates)")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() != 2 {
		return false, fmt.Errorf("diff needs exactly two journal paths")
	}
	var history []perf.Record
	for _, path := range fs.Args() {
		events, err := journal.ReadFile(path)
		if err != nil {
			return false, err
		}
		history = append(history, journal.BuildRecord(events))
	}
	rep, err := perf.Diff(history, journal.Rules(*threshold))
	if err != nil {
		return false, err
	}
	rep.Render(os.Stdout)
	return rep.Regressions > 0, nil
}
