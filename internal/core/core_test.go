package core

import (
	"reflect"
	"strings"
	"testing"

	"clgen/internal/corpus"
	"clgen/internal/github"
	"clgen/internal/model"
)

func build(t *testing.T) *CLgen {
	t.Helper()
	g, err := Build(Config{Miner: github.MinerConfig{Seed: 15, Repos: 50, FilesPerRepo: 8}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildEndToEnd(t *testing.T) {
	g := build(t)
	if g.Corpus.Stats.Kernels == 0 {
		t.Fatal("empty corpus")
	}
	if g.Model == nil {
		t.Fatal("no model")
	}
}

func TestSynthesizeMeetsRequest(t *testing.T) {
	g := build(t)
	kernels, stats, err := g.Synthesize(15, model.SampleOpts{Seed: model.FreeSeed}, 3)
	if err != nil {
		t.Fatalf("%v (stats %+v)", err, stats)
	}
	if len(kernels) != 15 {
		t.Fatalf("got %d kernels", len(kernels))
	}
	seen := map[string]bool{}
	for i, k := range kernels {
		if res := corpus.FilterSample(k); !res.OK {
			t.Errorf("kernel %d fails the filter (%s):\n%s", i, res.Reason, k)
		}
		if seen[k] {
			t.Errorf("duplicate kernel returned:\n%s", k)
		}
		seen[k] = true
		if !strings.HasPrefix(k, "__kernel void A(") {
			t.Errorf("kernel %d has wrong prefix", i)
		}
	}
	if stats.AcceptRate() <= 0.05 {
		t.Errorf("acceptance rate %.2f too low", stats.AcceptRate())
	}
	if stats.Accepted != 15 || stats.Attempts < 15 {
		t.Errorf("stats inconsistent: %+v", stats)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	g := build(t)
	k1, _, err := g.Synthesize(5, model.SampleOpts{Seed: model.FreeSeed}, 9)
	if err != nil {
		t.Fatal(err)
	}
	k2, _, err := g.Synthesize(5, model.SampleOpts{Seed: model.FreeSeed}, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatal("synthesis not deterministic under fixed seed")
		}
	}
}

func TestSynthesizeDeterministicAcrossWorkers(t *testing.T) {
	g := build(t)
	want, wantStats, err := g.SynthesizeWorkers(8, model.SampleOpts{Seed: model.FreeSeed}, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, stats, err := g.SynthesizeWorkers(8, model.SampleOpts{Seed: model.FreeSeed}, 7, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: kernels differ", workers)
		}
		if !reflect.DeepEqual(stats, wantStats) {
			t.Fatalf("workers=%d: stats differ:\n%+v\nvs\n%+v", workers, stats, wantStats)
		}
	}
}

func TestLSTMBackendBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("LSTM training is slow")
	}
	// A 1-epoch LSTM over a tiny mine: exercises the code path end to end.
	g, err := Build(Config{
		Miner:      github.MinerConfig{Seed: 2, Repos: 6, FilesPerRepo: 4},
		Backend:    BackendLSTM,
		LSTMHidden: 32,
		LSTMLayers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// An undertrained LSTM rarely passes the filter; just check sampling
	// produces text.
	kernels, stats, _ := g.Synthesize(1, model.SampleOpts{MaxLen: 200}, 1)
	if stats.Attempts == 0 {
		t.Error("no sampling attempts made")
	}
	_ = kernels
}

func TestUnknownBackendRejected(t *testing.T) {
	_, err := Build(Config{
		Miner:   github.MinerConfig{Seed: 1, Repos: 5, FilesPerRepo: 4},
		Backend: Backend("quantum"),
	})
	if err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestSynthesisHonorsStaticChecks: -static-checks synthesis must filter
// with the analyzer too, not just the base §4.3 filter. A model trained on
// a corpus of one statically-flawed kernel (uninitialized read — the base
// filter accepts it, the analyzer rejects it) reproduces that kernel
// near-verbatim, so a strict run must reject essentially every sample with
// a static: reason, and must never accept a flagged kernel.
func TestSynthesisHonorsStaticChecks(t *testing.T) {
	flawed := "__kernel void A(__global float* a) {\n  float b;\n  a[get_global_id(0)] = b;\n}\n"
	if res := corpus.FilterEx(flawed, corpus.FilterOpts{}); !res.OK {
		t.Fatalf("probe kernel fails the base filter: %s", res.Reason)
	}
	if res := corpus.FilterEx(flawed, corpus.FilterOpts{Static: true}); res.OK || !res.StaticReject {
		t.Fatalf("probe kernel not statically flagged: %+v", res)
	}
	c := &corpus.Corpus{Text: strings.Repeat(flawed+"\n", 40), Kernels: []string{flawed}}
	g, err := FromCorpus(c, Config{StaticChecks: true})
	if err != nil {
		t.Fatal(err)
	}
	accepted, stats, err := g.Synthesize(3, model.SampleOpts{Seed: model.FreeSeed}, 5)
	// The run may well exhaust its attempt budget — strict mode rejects
	// nearly everything this degenerate model produces. That is the point;
	// only the verdicts matter.
	_ = err
	for i, k := range accepted {
		if res := corpus.FilterEx(k, corpus.FilterOpts{Static: true}); !res.OK {
			t.Errorf("strict kernel %d fails the strict filter (%s):\n%s", i, res.Reason, k)
		}
	}
	static := 0
	for reason, n := range stats.Reasons {
		if strings.HasPrefix(string(reason), "static:") {
			static += n
		}
	}
	if static == 0 {
		t.Errorf("no static: rejections recorded over %d attempts (reasons %v) — strict mode bypassed",
			stats.Attempts, stats.Reasons)
	}
}
