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
// -seed sets the campaign seed at either scale; without it a full
// campaign runs seed 1 and a test-scale one seed 7. A -run name that is
// not an experiment (see -help), or a -scale other than test and full,
// is a usage error: exit 1 before any work.
//
// clexp takes the observability flags every binary takes and the pipeline
// flags it shares with clgen and cldrive; internal/cli registers
// (Register, RegisterPipeline) and applies them. Outputs are identical
// for every -workers value and for a warm -cache-dir.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
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
		seed    = flag.Int64("seed", 0, "campaign seed (0 = the scale's own: 1 full, 7 test)")
		kernels = flag.Int("kernels", 2000, "figure 9 kernel pool size")
	)
	tf := cli.RegisterPipeline(flag.CommandLine)
	flag.Parse()
	want, err := selectExperiments(*run)
	if err != nil {
		fatal(err)
	}
	if *scale != "test" && *scale != "full" {
		fatal(fmt.Errorf("unknown -scale %q (want test or full)", *scale))
	}
	rt, err := tf.Start("clexp")
	if err != nil {
		fatal(err)
	}
	err = campaign(want, *scale, *seed, *kernels, tf.StaticChecks)
	// Close before exiting so the run summary and -report are written
	// even when an experiment failed partway.
	if cerr := rt.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
}

// selectExperiments parses -run into the set of experiments to print, and
// rejects a name that is not in experimentOrder.
func selectExperiments(run string) (map[string]bool, error) {
	names := experimentOrder
	if run != "all" {
		names = strings.Split(run, ",")
	}
	want := map[string]bool{}
	for _, e := range names {
		e = strings.TrimSpace(e)
		if !slices.Contains(experimentOrder, e) {
			return nil, fmt.Errorf("unknown experiment %q in -run (want all or a comma-separated list of %s)",
				e, strings.Join(experimentOrder, ","))
		}
		want[e] = true
	}
	return want, nil
}

func campaign(want map[string]bool, scale string, seed int64, kernels int, static bool) error {
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

	var cfg experiments.Config
	if scale == "test" {
		cfg = experiments.TestConfig()
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	cfg.StaticChecks = static
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
