// Command clexp regenerates the paper's tables and figures (see DESIGN.md
// for the experiment index).
//
// Usage:
//
//	clexp -run all
//	clexp -run table1,fig7,fig8
//	clexp -run fig9 -kernels 2000
//	clexp -scale test -run all     (fast, reduced sizes)
//
// clexp takes the observability flags every binary takes (-v, -quiet,
// -log-json, -metrics-addr, -report, -perf, -stall-timeout, -stall-dump,
// -perf-history) and the pipeline flags it shares with clgen and cldrive
// (-journal, -cache-dir, -static-checks, -precise-features,
// -footprint-sizing, -workers); internal/cli applies them. Outputs are
// identical for every -workers value and for a warm -cache-dir.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"clgen/internal/cli"
	"clgen/internal/experiments"
)

var experimentOrder = []string{
	"corpus", "table1", "table2", "table3", "table4",
	"fig2", "fig3", "fig7", "fig8", "fig9", "turing", "collisions",
}

func main() {
	var (
		run     = flag.String("run", "all", "comma-separated experiments: "+strings.Join(experimentOrder, ","))
		scale   = flag.String("scale", "full", "test | full")
		seed    = flag.Int64("seed", 1, "campaign seed")
		kernels = flag.Int("kernels", 2000, "figure 9 kernel pool size")
	)
	tf := cli.RegisterPipeline(flag.CommandLine)
	flag.Parse()
	rt, err := tf.Start("clexp")
	if err != nil {
		fatal(err)
	}
	err = campaign(rt, *run, *scale, *seed, *kernels, tf.StaticChecks)
	// Close before exiting so the run summary and -report are written
	// even when an experiment failed partway.
	if cerr := rt.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
}

func campaign(rt *cli.Runtime, run, scale string, seed int64, kernels int, static bool) error {
	want := map[string]bool{}
	if run == "all" {
		for _, e := range experimentOrder {
			want[e] = true
		}
	} else {
		for _, e := range strings.Split(run, ",") {
			want[strings.TrimSpace(e)] = true
		}
	}

	// Descriptive tables need no world.
	section := func(name, body string) {
		fmt.Printf("==== %s ====\n%s\n", name, body)
	}
	if want["table2"] {
		section("Table 2: model features", experiments.RenderTable2())
	}
	if want["table3"] {
		section("Table 3: benchmarks", experiments.RenderTable3())
	}
	if want["table4"] {
		section("Table 4: platforms", experiments.RenderTable4())
	}
	if want["fig2"] {
		section("Figure 2: benchmark usage survey", experiments.RenderFigure2(experiments.Figure2()))
	}

	needWorld := want["corpus"] || want["table1"] || want["fig3"] || want["fig7"] ||
		want["fig8"] || want["fig9"] || want["turing"] || want["collisions"]
	if !needWorld {
		return nil
	}

	cfg := experiments.Config{Seed: seed}
	if scale == "test" {
		cfg = experiments.TestConfig()
	}
	cfg.StaticChecks = static
	// Progress goes through the structured logger; -quiet already raised
	// the logger level, so the config hook stays active either way.
	cfg.Quiet = false
	cfg.Log = rt.Log.Logf
	w, err := experiments.BuildWorld(cfg)
	if err != nil {
		return err
	}

	if want["corpus"] {
		section("§4.1 corpus statistics", experiments.RenderCorpusStats(experiments.CorpusStats(w)))
	}
	if want["table1"] {
		r, err := experiments.Table1(w)
		if err != nil {
			return err
		}
		section("Table 1: cross-suite performance (AMD)", r.Render())
	}
	if want["fig3"] {
		r, err := experiments.Figure3(w)
		if err != nil {
			return err
		}
		section("Figure 3: Parboil feature space (NVIDIA)", r.Render())
	}
	if want["fig7"] {
		r, err := experiments.Figure7(w)
		if err != nil {
			return err
		}
		section("Figure 7: Grewe model ± CLgen on NPB", r.Render())
	}
	if want["fig8"] {
		r, err := experiments.Figure8(w)
		if err != nil {
			return err
		}
		section("Figure 8: extended model over all suites", r.Render())
	}
	if want["fig9"] {
		r, err := experiments.Figure9(w, kernels)
		if err != nil {
			return err
		}
		section("Figure 9: feature-space matches", r.Render())
	}
	if want["turing"] {
		r, err := experiments.TuringTest(w)
		if err != nil {
			return err
		}
		section("§6.1 human-or-machine test", r.Render())
	}
	if want["collisions"] {
		r, err := experiments.Collisions(w)
		if err != nil {
			return err
		}
		section("Listing 2: feature collisions", r.Render())
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clexp:", err)
	os.Exit(1)
}
