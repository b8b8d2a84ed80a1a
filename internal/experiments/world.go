// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is a pure function of a World — the shared
// state of one experimental campaign: the mined corpus, the trained CLgen
// model, the synthesized kernels, and the measured observations of every
// benchmark suite on both Table 4 systems.
package experiments

import (
	"fmt"

	"clgen/internal/core"
	"clgen/internal/driver"
	"clgen/internal/features"
	"clgen/internal/github"
	"clgen/internal/grewe"
	"clgen/internal/journal"
	"clgen/internal/model"
	"clgen/internal/platform"
	"clgen/internal/pool"
	"clgen/internal/suites"
	"clgen/internal/telemetry"
)

// Config scales an experimental campaign. The zero value gives the full
// configuration used by cmd/clexp; tests use TestConfig.
type Config struct {
	Seed int64
	// MinerRepos scales the synthetic GitHub mine (default 150).
	MinerRepos int
	// SynthKernels is the number of CLgen benchmarks to synthesize
	// (default 400; the paper used 1000).
	SynthKernels int
	// PayloadSizes are the host-driver global sizes swept per synthetic
	// kernel (the paper sweeps payloads from 128B to 130MB).
	PayloadSizes []int
	// ExecCap bounds executed NDRange sizes; larger nominal sizes are
	// extrapolated (see interp.Profile.Scale). 0 keeps the suites default.
	ExecCap int
	// Workers bounds the campaign's fan-outs (corpus filtering, synthesis,
	// measurement sweeps). <= 0 means the pool default (-workers flag or
	// GOMAXPROCS). Results are identical for every worker count.
	Workers int
	// StaticChecks enables the internal/analysis strict filter across the
	// campaign: corpus files and samples run the analyzer-backed rejection
	// filter. The dynamic checker executes every kernel the filter accepts.
	StaticChecks bool
	// Quiet suppresses progress logging.
	Quiet bool
	// Log receives progress lines when not quiet.
	Log func(format string, args ...any)
}

func (c *Config) defaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MinerRepos <= 0 {
		c.MinerRepos = 150
	}
	if c.SynthKernels <= 0 {
		c.SynthKernels = 400
	}
	if len(c.PayloadSizes) == 0 {
		c.PayloadSizes = []int{2048, 16384, 131072, 1 << 20}
	}
	switch {
	case c.Quiet:
		c.Log = func(string, ...any) {}
	case c.Log == nil:
		c.Log = telemetry.DefaultLogger().Logf
	}
}

// TestConfig is a fast configuration for unit tests.
func TestConfig() Config {
	return Config{
		Seed:         7,
		MinerRepos:   60,
		SynthKernels: 60,
		PayloadSizes: []int{4096, 262144},
		ExecCap:      2048,
		Quiet:        true,
	}
}

// Systems are the two experimental platforms.
var Systems = []*platform.System{platform.SystemAMD, platform.SystemNVIDIA}

// World is the shared state of one campaign.
type World struct {
	Cfg   Config
	CLgen *core.CLgen
	Synth []string // accepted synthetic kernels
	Stats core.SynthesisStats
	// Obs maps system name -> suite name -> observations.
	Obs map[string]map[string][]*grewe.Observation
	// SynthObs maps system name -> synthetic observations.
	SynthObs map[string][]*grewe.Observation
}

// BuildWorld mines, trains, synthesizes, and measures everything.
func BuildWorld(cfg Config) (*World, error) {
	cfg.defaults()
	span := telemetry.Start("world.build")
	defer span.End()
	w := &World{
		Cfg:      cfg,
		Obs:      map[string]map[string][]*grewe.Observation{},
		SynthObs: map[string][]*grewe.Observation{},
	}

	if cfg.ExecCap > 0 {
		suites.ExecCap = cfg.ExecCap
	}
	cfg.Log("building corpus and training model (repos=%d)...", cfg.MinerRepos)
	g, err := core.Build(core.Config{
		Miner:        github.MinerConfig{Seed: cfg.Seed, Repos: cfg.MinerRepos, FilesPerRepo: 8},
		Workers:      cfg.Workers,
		StaticChecks: cfg.StaticChecks,
	})
	if err != nil {
		return nil, err
	}
	w.CLgen = g

	cfg.Log("synthesizing %d kernels...", cfg.SynthKernels)
	synth, stats, err := g.SynthesizeWorkers(cfg.SynthKernels,
		model.SampleOpts{Seed: model.FreeSeed, Temperature: 1.0}, cfg.Seed+100, cfg.Workers)
	if err != nil {
		// Partial synthesis is usable; record what we got.
		cfg.Log("synthesis shortfall: %v", err)
	}
	w.Synth = synth
	w.Stats = stats

	cfg.Log("measuring benchmark suites...")
	suiteSpan := telemetry.Start("world.measure_suites")
	err = w.measureSuites()
	suiteSpan.End()
	if err != nil {
		return nil, err
	}
	cfg.Log("measuring synthetic kernels...")
	synthSpan := telemetry.Start("world.measure_synthetic")
	w.measureSynthetic()
	synthSpan.End()
	span.SetAttr("synthetic_kernels", len(w.Synth))
	return w, nil
}

func (w *World) measureSuites() error {
	for _, sys := range Systems {
		w.Obs[sys.Name] = map[string][]*grewe.Observation{}
	}
	// Flatten the (benchmark, dataset) nest into one work list so every
	// measurement fans out over the pool. The list runs every benchmark's
	// first dataset, then every second one, and so on: datasets of one
	// benchmark often share a suite launch, and a worker that took one
	// while another ran it would wait in the memo. Results are folded back
	// in the serial nesting's order (at), so the observation slices and the
	// journal match it exactly.
	type job struct {
		b  *suites.Benchmark
		ds suites.Dataset
		at int // position in the serial (benchmark, dataset) nesting
	}
	type outcome struct {
		suite     string
		bench     string
		id        string // journal content hash of the kernel source
		mAMD, mNV *driver.Measurement
		pairs     []features.Pair // heuristic/precise vectors under -precise-features
		err       error
	}
	benches := suites.All()
	first := make([]int, len(benches)) // at of each benchmark's first dataset
	total := 0
	for i, b := range benches {
		first[i] = total
		total += len(b.Datasets)
	}
	jobs := make([]job, 0, total)
	for round := 0; len(jobs) < total; round++ {
		for i, b := range benches {
			if round < len(b.Datasets) {
				jobs = append(jobs, job{b: b, ds: b.Datasets[round], at: first[i] + round})
			}
		}
	}
	outcomes := pool.Map(w.Cfg.Workers, len(jobs), func(i int) outcome {
		j := jobs[i]
		done := telemetry.BeginWorkf("world.measure_suites", "%s:%s", j.b.ID(), j.ds.Name)
		defer done()
		k, err := j.b.Load()
		if err != nil {
			return outcome{err: err}
		}
		// Computed unconditionally (not just when a journal is attached):
		// the ID also anchors the prediction audit trail via Observation.ID.
		id := journal.ID(k.Src)
		var pairs []features.Pair
		if features.Precise() && journal.Enabled() {
			// Agreement events for the suite kernels; extraction errors are
			// swallowed (observability, not a pipeline stage).
			pairs, _ = features.PairsSource(k.Src)
		}
		// Execute once (on the AMD system), then re-model the same
		// profile for the NVIDIA system: the device models share the
		// execution profile, not the hardware.
		mAMD, err := j.b.Measure(k, j.ds, platform.SystemAMD, w.Cfg.Seed+11)
		if err != nil {
			return outcome{err: err}
		}
		mNV, err := driver.MeasureProfile(k, mAMD.Profile, mAMD.Vector.Transfer,
			mAMD.GlobalSize, int(mAMD.Vector.WgSize), platform.SystemNVIDIA)
		if err != nil {
			return outcome{err: err}
		}
		mNV.Kernel = mAMD.Kernel
		return outcome{suite: j.b.Suite, bench: j.b.ID(), id: id, mAMD: mAMD, mNV: mNV, pairs: pairs}
	})
	results := make([]outcome, total)
	for i, o := range outcomes {
		results[jobs[i].at] = o
	}
	seenFeat := map[string]bool{}
	for _, o := range results {
		if o.err != nil {
			return fmt.Errorf("experiments: %w", o.err)
		}
		// Journal emission happens in this ordered fold so the event stream
		// is deterministic for every worker count. A benchmark's feature
		// events are emitted once, not once per dataset.
		if !seenFeat[o.id] {
			seenFeat[o.id] = true
			for _, p := range o.pairs {
				journal.Emit(journal.Event{ID: o.id, Stage: journal.StageFeatures,
					Kernel: p.Kernel, FeatHeur: p.Heur, FeatPrec: p.Prec})
			}
		}
		emitMeasured(o.id, o.suite, o.bench, o.mAMD, platform.SystemAMD.Name)
		emitMeasured(o.id, o.suite, o.bench, o.mNV, platform.SystemNVIDIA.Name)
		w.Obs[platform.SystemAMD.Name][o.suite] = append(w.Obs[platform.SystemAMD.Name][o.suite],
			&grewe.Observation{Bench: o.bench, ID: o.id, M: o.mAMD})
		w.Obs[platform.SystemNVIDIA.Name][o.suite] = append(w.Obs[platform.SystemNVIDIA.Name][o.suite],
			&grewe.Observation{Bench: o.bench, ID: o.id, M: o.mNV})
	}
	return nil
}

// emitMeasured journals one (kernel, size, system) measurement. Modeled
// runtimes are converted from seconds to the journal's milliseconds.
func emitMeasured(id, suite, bench string, m *driver.Measurement, system string) {
	if !journal.Enabled() {
		return
	}
	journal.Emit(journal.Event{ID: id, Stage: journal.StageMeasured,
		Kernel: bench, Suite: suite, System: system, Size: m.GlobalSize,
		CPUms: m.CPUTime * 1e3, GPUms: m.GPUTime * 1e3, Oracle: m.Oracle.String()})
}

// measureSynthetic drives every accepted synthetic kernel through the host
// driver and dynamic checker at each payload size. Kernels the checker
// rejects contribute nothing — exactly the paper's pipeline.
func (w *World) measureSynthetic() {
	reg := telemetry.Default()
	// The per-kernel payload sweep is pure (the seed depends only on the
	// kernel index), so kernels fan out over the pool. Observations and
	// counters are folded back in kernel order — identical to the serial
	// sweep for every worker count.
	type pair struct{ mAMD, mNV *driver.Measurement }
	type outcome struct {
		loadFailed bool
		loadErr    string
		pairs      []pair
	}
	results := pool.Map(w.Cfg.Workers, len(w.Synth), func(i int) outcome {
		done := telemetry.BeginWorkf("world.measure_synthetic", "clgen-%04d", i)
		defer done()
		k, err := driver.Load(w.Synth[i])
		if err != nil {
			return outcome{loadFailed: true, loadErr: err.Error()}
		}
		var o outcome
		for _, size := range w.Cfg.PayloadSizes {
			mAMD, err := driver.Measure(k, size, platform.SystemAMD, w.Cfg.Seed+int64(i)*31,
				driver.MeasureConfig{
					ExecCap: suites.ExecCap,
					// Synthesized kernels can be quadratic (loop bounds tied
					// to the payload size); bound the timeout budget so they
					// fail fast like a wall-clock timeout would.
					Run: driver.RunConfig{MaxSteps: 16 << 20},
				})
			if err != nil {
				continue
			}
			mAMD.Kernel = fmt.Sprintf("clgen-%04d@%d", i, size)
			mNV, err := driver.MeasureProfile(k, mAMD.Profile, mAMD.Vector.Transfer,
				mAMD.GlobalSize, int(mAMD.Vector.WgSize), platform.SystemNVIDIA)
			if err != nil {
				continue
			}
			mNV.Kernel = mAMD.Kernel
			o.pairs = append(o.pairs, pair{mAMD: mAMD, mNV: mNV})
		}
		return o
	})
	usable := 0
	for i, o := range results {
		// Journal emission happens in this ordered fold so the event stream
		// is deterministic for every worker count. The ID is computed even
		// without a journal attached: it anchors Observation.ID.
		id := journal.ID(w.Synth[i])
		if journal.Enabled() {
			journal.Emit(journal.Event{ID: id, Stage: journal.StageDriverLoad,
				Item: i, Reason: o.loadErr})
		}
		if o.loadFailed {
			reg.Counter("world_synthetic_load_failures_total",
				"Synthetic kernels the host driver could not load.").Inc()
			continue
		}
		for _, p := range o.pairs {
			emitMeasured(id, "synthetic", p.mAMD.Kernel, p.mAMD, platform.SystemAMD.Name)
			emitMeasured(id, "synthetic", p.mNV.Kernel, p.mNV, platform.SystemNVIDIA.Name)
			w.SynthObs[platform.SystemAMD.Name] = append(w.SynthObs[platform.SystemAMD.Name],
				&grewe.Observation{Bench: "synthetic", ID: id, M: p.mAMD})
			w.SynthObs[platform.SystemNVIDIA.Name] = append(w.SynthObs[platform.SystemNVIDIA.Name],
				&grewe.Observation{Bench: "synthetic", ID: id, M: p.mNV})
		}
		if len(o.pairs) > 0 {
			usable++
		}
	}
	reg.Counter("world_synthetic_usable_total",
		"Synthetic kernels passing the dynamic checker at some payload size.").Add(int64(usable))
	reg.Counter("world_synthetic_measured_total",
		"Synthetic kernels attempted by the measurement loop.").Add(int64(len(w.Synth)))
	w.Cfg.Log("synthetic kernels passing the dynamic checker: %d/%d", usable, len(w.Synth))
}

// SuiteObs returns all observations of one suite on a system.
func (w *World) SuiteObs(system, suite string) []*grewe.Observation {
	return w.Obs[system][suite]
}

// AllObs returns every suite observation on a system, suites in canonical
// order.
func (w *World) AllObs(system string) []*grewe.Observation {
	var out []*grewe.Observation
	for _, s := range suites.Suites {
		out = append(out, w.Obs[system][s]...)
	}
	return out
}
