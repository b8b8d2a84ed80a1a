package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"runtime"

	"clgen/internal/cache"
	"clgen/internal/core"
	"clgen/internal/corpus"
	"clgen/internal/driver"
	"clgen/internal/features"
	"clgen/internal/github"
	"clgen/internal/model"
	"clgen/internal/pool"
	"clgen/internal/suites"
	"clgen/internal/telemetry"
)

// The campaign mirrors experiments.TestConfig(), the test-scale world
// build: the same miner scale, synthesis request, payload sizes and
// execution cap. TestMirrorsCampaign keeps the two equal.
const (
	campaignSeed = 7
	minerRepos   = 60
	filesPerRepo = 8
	synthKernels = 60
	execCap      = 2048
	// maxSteps is the interpreter budget the campaign gives synthetic
	// kernels in place of a wall-clock timeout.
	maxSteps = 16 << 20
)

var (
	payloadSizes = []int{4096, 262144}
	sampleOpts   = model.SampleOpts{Seed: model.FreeSeed, Temperature: 1.0}
	runCfg       = driver.RunConfig{MaxSteps: maxSteps}
)

// pin fixes the process-wide settings a run depends on and returns the
// pool worker count: two, or fewer when fewer CPUs exist. The memo has no
// disk tier, so a pass that flushes memory starts cold.
func pin() (int, error) {
	if err := cache.SetDir(""); err != nil {
		return 0, err
	}
	suites.ExecCap = execCap
	workers := min(2, runtime.NumCPU())
	pool.SetWorkers(workers)
	switch {
	case features.Precise():
		return 0, errors.New("precise features are on; the benchmark measures the default configuration")
	case driver.FootprintSizingEnabled():
		return 0, errors.New("footprint sizing is on; the benchmark measures the default configuration")
	case os.Getenv(telemetry.FaultSleepEnv) != "":
		return 0, fmt.Errorf("%s is set", telemetry.FaultSleepEnv)
	}
	return workers, nil
}

// campaign is what set-up builds: the trained synthesizer, the campaign's
// synthetic kernels and the suite (benchmark, dataset) jobs.
type campaign struct {
	g      *core.CLgen
	corpus corpus.Stats
	synth  []string
	stats  core.SynthesisStats
	jobs   []suiteJob
}

type suiteJob struct {
	b  *suites.Benchmark
	ds suites.Dataset
}

// setup builds the campaign from a cold memo. It makes core.Build's calls
// one at a time, so that each is its own span in the traced run.
func setup(workers int, tr *tracer) (*campaign, error) {
	cache.FlushMemory()
	root := tr.begin("setup", 0)
	defer tr.end(root)
	cfg := core.Config{
		Miner:   github.MinerConfig{Seed: campaignSeed, Repos: minerRepos, FilesPerRepo: filesPerRepo},
		Workers: workers,
	}
	var files []github.ContentFile
	tr.do("github.Mine", root, func() { files = github.Mine(cfg.Miner) })
	var cp *corpus.Corpus
	var err error
	tr.do("corpus.BuildEx", root, func() { cp, err = corpus.BuildEx(files, corpus.BuildOpts{Workers: workers}) })
	if err != nil {
		return nil, err
	}
	c := &campaign{corpus: cp.Stats}
	tr.do("core.FromCorpus", root, func() { c.g, err = core.FromCorpus(cp, cfg) })
	if err != nil {
		return nil, err
	}
	tr.do("core.SynthesizeWorkers", root, func() {
		c.synth, c.stats, err = c.g.SynthesizeWorkers(synthKernels, sampleOpts, campaignSeed+100, workers)
	})
	if err != nil {
		return nil, err
	}
	tr.do("suites.All", root, func() {
		for _, b := range suites.All() {
			for _, ds := range b.Datasets {
				c.jobs = append(c.jobs, suiteJob{b: b, ds: ds})
			}
		}
	})
	return c, nil
}

// synthRef is the checked outcome of one synthesis request.
type synthRef struct {
	Seed     int64  `json:"seed"`
	Accepted int    `json:"accepted"`
	Attempts int    `json:"attempts"`
	Digest   string `json:"digest"`
}

func synthRefOf(seed int64, kernels []string, st core.SynthesisStats) synthRef {
	h := sha256.New()
	for _, k := range kernels {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	return synthRef{Seed: seed, Accepted: st.Accepted, Attempts: st.Attempts, Digest: hex.EncodeToString(h.Sum(nil))}
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
