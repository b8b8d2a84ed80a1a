// Package core is CLgen itself: the end-to-end benchmark synthesizer of
// Figure 4 (left half). It wires the substrates together — mine a corpus
// (internal/github), filter and rewrite it (internal/corpus), fit a
// character-level language model (internal/model over internal/nn), and
// synthesize kernels by iterative sampling with rejection filtering
// (§4.3). The right half of Figure 4 — payload generation, execution, and
// dynamic checking — lives in internal/driver.
package core

import (
	"fmt"
	"log/slog"
	"math/rand"
	"time"

	"clgen/internal/corpus"
	"clgen/internal/features"
	"clgen/internal/github"
	"clgen/internal/journal"
	"clgen/internal/model"
	"clgen/internal/nn"
	"clgen/internal/pool"
	"clgen/internal/telemetry"
)

// Backend selects the language-model implementation.
type Backend string

// Available backends.
const (
	// BackendNGram is the fast converged-model stand-in (see DESIGN.md).
	BackendNGram Backend = "ngram"
	// BackendLSTM is the paper's architecture, trained from scratch.
	BackendLSTM Backend = "lstm"
)

// Config assembles a CLgen instance.
type Config struct {
	// Miner scales the synthetic GitHub mine feeding the corpus.
	Miner github.MinerConfig
	// Backend selects the language model; default BackendNGram.
	Backend Backend
	// NGramOrder configures the n-gram backend; 0 means the tuned default.
	NGramOrder int
	// LSTMHidden/LSTMLayers/LSTMTrain configure the LSTM backend (the
	// paper uses 2048×3 over 50 epochs; defaults here are laptop-scale).
	LSTMHidden int
	LSTMLayers int
	LSTMTrain  nn.TrainConfig
	// Workers bounds the corpus-filter fan-out (<= 0 means the pool
	// default, i.e. the -workers flag or GOMAXPROCS).
	Workers int
	// StaticChecks enables the internal/analysis strict mode in both
	// rejection filters: corpus files and synthesized samples with
	// error-severity diagnostics are rejected, and clean samples carry the
	// analyzer's §5.2 forecast into the journal.
	StaticChecks bool
}

func (c *Config) defaults() {
	if c.Backend == "" {
		c.Backend = BackendNGram
	}
	if c.LSTMHidden <= 0 {
		c.LSTMHidden = 128
	}
	if c.LSTMLayers <= 0 {
		c.LSTMLayers = 2
	}
}

// CLgen is a ready-to-sample synthesizer.
type CLgen struct {
	Corpus *corpus.Corpus
	Model  *model.Model
	// Static applies the analyzer-backed strict filter to samples.
	Static bool
}

// Build runs mining, corpus assembly, and model training.
func Build(cfg Config) (*CLgen, error) {
	cfg.defaults()
	span := telemetry.Start("core.build")
	defer span.End()
	mine := telemetry.Start("github.mine")
	files := github.Mine(cfg.Miner)
	mine.SetAttr("files", len(files))
	mine.End()
	c, err := corpus.BuildEx(files, corpus.BuildOpts{Workers: cfg.Workers, Static: cfg.StaticChecks})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return FromCorpus(c, cfg)
}

// FromCorpus trains a model over an already-built corpus.
func FromCorpus(c *corpus.Corpus, cfg Config) (*CLgen, error) {
	cfg.defaults()
	span := telemetry.Start("model.train").SetAttr("backend", string(cfg.Backend))
	defer span.End()
	var m *model.Model
	var err error
	switch cfg.Backend {
	case BackendNGram:
		m, err = model.TrainNGram(c.Text, cfg.NGramOrder)
	case BackendLSTM:
		m, _, err = model.TrainLSTM(c.Text, cfg.LSTMHidden, cfg.LSTMLayers, cfg.LSTMTrain)
	default:
		err = fmt.Errorf("unknown backend %q", cfg.Backend)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &CLgen{Corpus: c, Model: m, Static: cfg.StaticChecks}, nil
}

// SynthesisStats reports one synthesis run.
type SynthesisStats struct {
	Requested int
	Accepted  int
	Attempts  int
	Reasons   map[corpus.RejectReason]int
}

// AcceptRate returns accepted/attempts.
func (s SynthesisStats) AcceptRate() float64 {
	if s.Attempts == 0 {
		return 0
	}
	return float64(s.Accepted) / float64(s.Attempts)
}

// Synthesize samples kernels until n pass the rejection filter (or the
// attempt budget runs out), returning the accepted kernels. Duplicates are
// discarded: CLgen's value is covering the space, not repeating it.
// Sampling and filtering fan out over the pool's default worker count;
// see SynthesizeWorkers.
func (g *CLgen) Synthesize(n int, opts model.SampleOpts, seed int64) ([]string, SynthesisStats, error) {
	return g.SynthesizeWorkers(n, opts, seed, 0)
}

// synthAttempt is one sampled-and-filtered synthesis candidate.
type synthAttempt struct {
	kernel string
	res    corpus.FilterResult
	cached bool // filter verdict served by internal/cache
	durMS  float64
}

// emitSampleFeatures journals one feature-agreement event per kernel of
// an accepted sample under -precise-features: both the heuristic and the
// precise vector, for cltrace funnel's agreement table. A no-op unless
// precise mode and the journal are both on; extraction errors are
// swallowed — agreement reporting is observability, not a filter stage.
func emitSampleFeatures(kid, src string) {
	if !features.Precise() || !journal.Enabled() {
		return
	}
	pairs, err := features.PairsSource(src)
	if err != nil {
		return
	}
	for _, p := range pairs {
		journal.Emit(journal.Event{ID: kid, Stage: journal.StageFeatures,
			Kernel: p.Kernel, FeatHeur: p.Heur, FeatPrec: p.Prec})
	}
}

// SynthesizeWorkers is Synthesize with an explicit worker count (<= 0
// means the pool default). Attempt i samples from an RNG derived from
// (seed, i) on a worker goroutine, and attempts are accepted in strict
// index order: acceptance bookkeeping (counters, dedup, the attempt
// budget) and journal emission stay sequential inside the accept
// callback, so the returned kernels, stats and event stream are identical
// for every worker count.
func (g *CLgen) SynthesizeWorkers(n int, opts model.SampleOpts, seed int64, workers int) ([]string, SynthesisStats, error) {
	span := telemetry.Start("core.synthesize").SetAttr("requested", n)
	defer span.End()
	reg := telemetry.Default()
	attempted := reg.Counter("sampler_samples_attempted_total", "Samples drawn from the language model.")
	accepted := reg.Counter("sampler_samples_accepted_total", "Samples surviving the rejection filter.")

	stats := SynthesisStats{Requested: n, Reasons: map[corpus.RejectReason]int{}}
	seen := map[string]bool{}
	var out []string
	maxAttempts := n * 40
	if maxAttempts < 400 {
		maxAttempts = 400
	}
	draw := func(i int) synthAttempt {
		start := time.Now()
		rng := rand.New(rand.NewSource(pool.DeriveSeed(seed, int64(i))))
		k := g.Model.SampleKernel(rng, opts)
		res, hit := corpus.FilterCached(k, corpus.FilterOpts{Static: g.Static})
		return synthAttempt{kernel: k, res: res, cached: hit,
			durMS: float64(time.Since(start)) / float64(time.Millisecond)}
	}
	pool.Scan(workers, maxAttempts, draw,
		func(i int, a synthAttempt) bool {
			stats.Attempts++
			attempted.Inc()
			var kid string
			if journal.Enabled() {
				kid = journal.ID(a.kernel)
				journal.Emit(journal.Event{ID: kid, Stage: journal.StageSampled,
					Item: i, DurMS: a.durMS, Model: g.Model.Lineage})
			}
			if !a.res.OK {
				stats.Reasons[a.res.Reason]++
				reg.Counter(telemetry.Label("sampler_samples_rejected_total", "reason", string(a.res.Reason)),
					"Samples rejected by the filter, by reason.").Inc()
				if a.res.StaticReject {
					// The sample passed the base §4.3 filter and fell to
					// the analyzer: journal both stages so the funnel
					// attributes the discard to the right one.
					journal.Emit(journal.Event{ID: kid, Stage: journal.StageSampleFilter,
						CacheHit: a.cached})
					journal.Emit(journal.Event{ID: kid, Stage: journal.StageStaticFilter,
						Reason: string(a.res.Reason), Predicted: a.res.Predicted})
				} else {
					journal.Emit(journal.Event{ID: kid, Stage: journal.StageSampleFilter,
						Reason: string(a.res.Reason), CacheHit: a.cached})
				}
				return true
			}
			if seen[a.kernel] {
				reg.Counter("sampler_duplicates_total", "Filter-passing samples discarded as duplicates.").Inc()
				journal.Emit(journal.Event{ID: kid, Stage: journal.StageSampleFilter,
					Reason: journal.ReasonDuplicate, CacheHit: a.cached})
				return true
			}
			seen[a.kernel] = true
			out = append(out, a.kernel)
			stats.Accepted++
			accepted.Inc()
			journal.Emit(journal.Event{ID: kid, Stage: journal.StageSampleFilter, CacheHit: a.cached})
			if g.Static {
				journal.Emit(journal.Event{ID: kid, Stage: journal.StageStaticFilter,
					Predicted: a.res.Predicted})
			}
			emitSampleFeatures(kid, a.kernel)
			return len(out) < n
		})
	span.SetAttr("accepted", stats.Accepted).SetAttr("attempts", stats.Attempts)
	slog.Debug("synthesis finished", "requested", n, "accepted", stats.Accepted,
		"attempts", stats.Attempts, "accept_rate", stats.AcceptRate())
	if len(out) < n {
		return out, stats, fmt.Errorf("core: synthesized only %d/%d kernels in %d attempts", len(out), n, stats.Attempts)
	}
	return out, stats, nil
}
