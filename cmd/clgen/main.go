// Command clgen is the benchmark synthesizer's command-line interface:
// it mines the (synthetic) GitHub dataset, builds the language corpus,
// trains a character-level model, and samples OpenCL kernels that pass the
// rejection filter (Figure 4, left half).
//
// Usage:
//
//	clgen -mode corpus [-repos N] [-seed S]
//	clgen -mode train  [-model FILE] [-backend ngram|lstm] [-repos N]
//	clgen -mode sample [-n N] [-model FILE] [-repos N] [-seed S] [-temp T] [-free]
//	clgen -mode stats  [-repos N] [-seed S]
//
// clgen takes the observability flags every binary takes (-v, -quiet,
// -log-json, -metrics-addr, -report, -perf, -stall-timeout, -stall-dump,
// -perf-history) and the pipeline flags it shares with clexp and cldrive
// (-journal, -cache-dir, -static-checks, -precise-features,
// -footprint-sizing, -workers); internal/cli applies them. Outputs are
// identical for every -workers value and for a warm -cache-dir.
// -static-checks makes the rejection filter strict. -footprint-sizing
// has no effect here: clgen never runs the dynamic checker.
package main

import (
	"flag"
	"fmt"
	"os"

	"clgen/internal/cli"
	"clgen/internal/core"
	"clgen/internal/corpus"
	"clgen/internal/experiments"
	"clgen/internal/github"
	"clgen/internal/model"
	"clgen/internal/nn"
)

func main() {
	var (
		mode    = flag.String("mode", "sample", "corpus | train | sample | stats")
		modelF  = flag.String("model", "", "model file to write (train) or read (sample)")
		repos   = flag.Int("repos", 100, "repositories to mine")
		seed    = flag.Int64("seed", 1, "random seed")
		n       = flag.Int("n", 10, "kernels to synthesize")
		temp    = flag.Float64("temp", 0.9, "sampling temperature")
		backend = flag.String("backend", "ngram", "language-model backend: ngram | lstm")
		free    = flag.Bool("free", true, "free-signature sampling (§4.3 mode 2)")
		order   = flag.Int("order", 0, "n-gram order (0 = tuned default)")
		hidden  = flag.Int("hidden", 128, "LSTM hidden units")
		layers  = flag.Int("layers", 2, "LSTM layers")
		epochs  = flag.Int("epochs", 8, "LSTM training epochs")
	)
	tf := cli.RegisterPipeline(flag.CommandLine)
	flag.Parse()
	rt, err := tf.Start("clgen")
	if err != nil {
		fatal(err)
	}

	err = synthesizer(rt, *mode, *modelF, *repos, *seed, *n, *temp, *backend,
		*free, *order, *hidden, *layers, *epochs, tf.StaticChecks)
	if cerr := rt.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
}

func synthesizer(rt *cli.Runtime, mode, modelF string, repos int, seed int64,
	n int, temp float64, backend string, free bool, order, hidden, layers, epochs int,
	static bool) error {
	log := rt.Log
	switch mode {
	case "corpus", "stats":
		files := github.Mine(github.MinerConfig{Seed: seed, Repos: repos, FilesPerRepo: 8})
		c, err := corpus.BuildEx(files, corpus.BuildOpts{Static: static})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderCorpusStats(c.Stats))
		if mode == "corpus" {
			fmt.Println("\n--- corpus sample (first kernel) ---")
			if len(c.Kernels) > 0 {
				fmt.Println(c.Kernels[0])
			}
		}
	case "train":
		cfg := coreConfig(repos, seed, backend, order, hidden, layers, epochs, static)
		log.Info("building corpus and training model", "backend", string(cfg.Backend))
		g, err := core.Build(cfg)
		if err != nil {
			return err
		}
		if modelF == "" {
			return fmt.Errorf("-mode train needs -model FILE")
		}
		if err := g.Model.SaveFile(modelF); err != nil {
			return err
		}
		log.Info("model written", "path", modelF)
	case "sample":
		var m *model.Model
		if modelF != "" {
			loaded, err := model.LoadFile(modelF)
			if err != nil {
				return err
			}
			m = loaded
		}
		cfg := coreConfig(repos, seed, backend, order, hidden, layers, epochs, static)
		var g *core.CLgen
		if m != nil {
			g = &core.CLgen{Model: m, Static: static}
		} else {
			log.Info("building corpus and training model", "backend", string(cfg.Backend))
			built, err := core.Build(cfg)
			if err != nil {
				return err
			}
			g = built
		}
		opts := model.SampleOpts{Temperature: temp}
		if free {
			opts.Seed = model.FreeSeed
		}
		kernels, stats, err := g.Synthesize(n, opts, seed+100)
		if err != nil {
			log.Warn("synthesis shortfall", "err", err)
		}
		for i, k := range kernels {
			fmt.Printf("// --- kernel %d ---\n%s\n\n", i+1, k)
		}
		log.Info("synthesis done", "accepted", stats.Accepted, "attempts", stats.Attempts,
			"accept_rate", fmt.Sprintf("%.0f%%", stats.AcceptRate()*100))
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
	return nil
}

// coreConfig assembles the synthesis configuration from flags.
func coreConfig(repos int, seed int64, backend string, order, hidden, layers, epochs int,
	static bool) core.Config {
	return core.Config{
		Miner:        github.MinerConfig{Seed: seed, Repos: repos, FilesPerRepo: 8},
		Backend:      core.Backend(backend),
		NGramOrder:   order,
		LSTMHidden:   hidden,
		LSTMLayers:   layers,
		StaticChecks: static,
		LSTMTrain: nn.TrainConfig{
			Epochs: epochs, SeqLen: 64, LearnRate: 0.5, DecayEvery: 4,
			BatchSeqs: 1, Seed: seed,
		},
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clgen:", err)
	os.Exit(1)
}
