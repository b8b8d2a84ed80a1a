// Benchmarks regenerating every table and figure of the paper (one bench
// per experiment; see DESIGN.md §4 for the index), plus ablation benches
// for the design choices DESIGN.md §5 calls out and micro-benchmarks of
// the substrates.
//
//	go test -bench=. -benchmem
package clgen_test

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"clgen/internal/clc"
	"clgen/internal/clsmith"
	"clgen/internal/corpus"
	"clgen/internal/driver"
	"clgen/internal/experiments"
	"clgen/internal/github"
	"clgen/internal/interp"
	"clgen/internal/model"
	"clgen/internal/nn"
	"clgen/internal/platform"
	"clgen/internal/rewriter"
)

// --- shared world (built once; excluded from timings) ---

var (
	worldOnce sync.Once
	world     *experiments.World
	worldErr  error
)

func benchWorld(b *testing.B) *experiments.World {
	b.Helper()
	worldOnce.Do(func() {
		world, worldErr = experiments.BuildWorld(experiments.TestConfig())
	})
	if worldErr != nil {
		b.Fatalf("BuildWorld: %v", worldErr)
	}
	return world
}

// --- per-table / per-figure benches ---

// BenchmarkCorpusPipeline regenerates the §4.1 corpus statistics: mining,
// rejection filtering (with and without the shim), and code rewriting.
func BenchmarkCorpusPipeline(b *testing.B) {
	files := github.Mine(github.MinerConfig{Seed: 3, Repos: 30, FilesPerRepo: 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := corpus.Build(files)
		if err != nil {
			b.Fatal(err)
		}
		if c.Stats.Kernels == 0 {
			b.Fatal("empty corpus")
		}
	}
}

// BenchmarkTable1 regenerates the cross-suite performance grid.
func BenchmarkTable1(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 renders the benchmark-usage survey.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.RenderFigure2(experiments.Figure2()); len(out) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkFigure3 regenerates the Parboil feature-space projection.
func BenchmarkFigure3(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7 regenerates the NPB ±synthetic evaluation.
func BenchmarkFigure7(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure7(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8 regenerates the extended-model evaluation.
func BenchmarkFigure8(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure9 regenerates the feature-space match curves.
func BenchmarkFigure9(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure9(w, 200); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTuringTest regenerates the §6.1 judging experiment.
func BenchmarkTuringTest(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TuringTest(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollisions regenerates the Listing 2 collision analysis.
func BenchmarkCollisions(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Collisions(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesis measures end-to-end kernel synthesis throughput
// (sample → rejection filter → accept).
func BenchmarkSynthesis(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	reportAcceptRate(b, w.CLgen.Model, 1)
}

// rateDraws is the number of kernels a sampling benchmark draws per
// iteration, from a generator seeded the same way each time, so that the
// acceptance rate it reports is the same at every -benchtime, 1x included.
const rateDraws = 100

// reportAcceptRate runs b.N iterations of rateDraws samples of m, seeded
// seed, through the rejection filter and reports the share accepted and
// the time per sample.
func reportAcceptRate(b *testing.B, m *model.Model, seed int64) {
	accepted := 0
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(seed))
		accepted = 0
		for range rateDraws {
			if corpus.FilterSample(m.SampleKernel(rng, model.SampleOpts{Seed: model.FreeSeed})).OK {
				accepted++
			}
		}
	}
	b.ReportMetric(float64(accepted)/rateDraws*100, "accept%")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rateDraws), "ns/sample")
}

// --- ablation benches (DESIGN.md §5) ---

// BenchmarkAblationShim quantifies the shim header's effect on the
// rejection filter's discard rate (paper: 40% → 32%).
func BenchmarkAblationShim(b *testing.B) {
	files := github.Mine(github.MinerConfig{Seed: 5, Repos: 40, FilesPerRepo: 8})
	b.ResetTimer()
	var withShim, withoutShim int
	for i := 0; i < b.N; i++ {
		withShim, withoutShim = 0, 0
		for _, f := range files {
			if !corpus.Filter(f.Text, false).OK {
				withoutShim++
			}
			if !corpus.Filter(f.Text, true).OK {
				withShim++
			}
		}
	}
	b.ReportMetric(float64(withoutShim)/float64(len(files))*100, "discard%noshim")
	b.ReportMetric(float64(withShim)/float64(len(files))*100, "discard%shim")
}

// BenchmarkAblationRewriter quantifies the identifier rewriter's
// vocabulary reduction (paper: −84%).
func BenchmarkAblationRewriter(b *testing.B) {
	files := github.Mine(github.MinerConfig{Seed: 6, Repos: 40, FilesPerRepo: 8})
	b.ResetTimer()
	var red float64
	for i := 0; i < b.N; i++ {
		c, err := corpus.Build(files)
		if err != nil {
			b.Fatal(err)
		}
		red = c.Stats.VocabReduction()
	}
	b.ReportMetric(red*100, "vocab-reduction%")
}

// BenchmarkAblationNGramOrder sweeps the model order against the
// rejection-filter acceptance rate.
func BenchmarkAblationNGramOrder(b *testing.B) {
	w := benchWorld(b)
	for _, order := range []int{8, 16, 28} {
		b.Run(orderName(order), func(b *testing.B) {
			m, err := model.TrainNGram(w.CLgen.Corpus.Text, order)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			reportAcceptRate(b, m, 2)
		})
	}
}

func orderName(n int) string {
	return "order" + string(rune('0'+n/10)) + string(rune('0'+n%10))
}

// BenchmarkAblationDynamicChecker measures how many filter-passing kernels
// the §5.2 dynamic checker additionally rejects.
func BenchmarkAblationDynamicChecker(b *testing.B) {
	w := benchWorld(b)
	kernels := w.Synth
	if len(kernels) > 20 {
		kernels = kernels[:20]
	}
	b.ResetTimer()
	var useful int
	for i := 0; i < b.N; i++ {
		useful = 0
		for _, src := range kernels {
			k, err := driver.Load(src)
			if err != nil {
				continue
			}
			if driver.Check(k, 512, 1, driver.RunConfig{}).OK() {
				useful++
			}
		}
	}
	b.ReportMetric(float64(useful)/float64(len(kernels))*100, "useful%")
}

// BenchmarkAblationBranchFeature compares feature-space collisions with
// and without the §8.2 branch feature.
func BenchmarkAblationBranchFeature(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	var r *experiments.CollisionResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Collisions(w)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.CollisionsNoBranch), "collisions")
	b.ReportMetric(float64(r.RemainingWithBranch), "with-branch")
}

// --- substrate micro-benchmarks ---

const benchKernel = `__kernel void A(__global float* a, __global float* b, const int c) {
  int d = get_global_id(0);
  if (d < c) {
    b[d] += 3.5f * a[d];
  }
}`

// BenchmarkFrontend measures preprocess+parse+check throughput — the
// rejection filter's hot path.
func BenchmarkFrontend(b *testing.B) {
	b.SetBytes(int64(len(benchKernel)))
	for i := 0; i < b.N; i++ {
		if res := corpus.FilterSample(benchKernel); !res.OK {
			b.Fatal(res.Reason)
		}
	}
}

// BenchmarkInterpSaxpy measures kernel execution throughput.
func BenchmarkInterpSaxpy(b *testing.B) {
	benchInterpSaxpy(b, benchKernel, clc.TypeFloat)
}

// BenchmarkInterpSaxpyFloat4 is saxpy over float4 elements: every
// load, multiply, add and store is a four-lane vector value.
func BenchmarkInterpSaxpyFloat4(b *testing.B) {
	benchInterpSaxpy(b, strings.ReplaceAll(benchKernel, "float*", "float4*"),
		&clc.VectorType{Elem: clc.Float, Len: 4})
}

func benchInterpSaxpy(b *testing.B, src string, elem clc.Type) {
	f, err := clc.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	if err := clc.Check(f); err != nil {
		b.Fatal(err)
	}
	env, err := interp.NewEnv(f)
	if err != nil {
		b.Fatal(err)
	}
	const n = 4096
	slots := n * int(elem.Size()/4)
	bufA := interp.NewBuffer(clc.Float, slots, clc.Global)
	bufB := interp.NewBuffer(clc.Float, slots, clc.Global)
	args := []interp.Value{
		interp.PtrValue(&interp.Pointer{Buf: bufA, Elem: elem}),
		interp.PtrValue(&interp.Pointer{Buf: bufB, Elem: elem}),
		interp.IntValue(clc.Int, n),
	}
	cfg := interp.RunConfig{GlobalSize: [3]int{n, 1, 1}, LocalSize: [3]int{64, 1, 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Run("A", args, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "workitems/op")
}

// BenchmarkRewriter measures normalization throughput.
func BenchmarkRewriter(b *testing.B) {
	src := github.KernelFile(rand.New(rand.NewSource(4)), false)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := rewriter.Normalize(src, corpus.ShimPreprocessor()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNGramSample measures raw model sampling throughput.
func BenchmarkNGramSample(b *testing.B) {
	w := benchWorld(b)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.CLgen.Model.SampleKernel(rng, model.SampleOpts{Seed: model.FreeSeed})
	}
}

// BenchmarkLSTMStep measures one forward step of a paper-shaped (scaled)
// LSTM.
func BenchmarkLSTMStep(b *testing.B) {
	m := nn.NewLSTM(96, 128, 2, rand.New(rand.NewSource(5)))
	st := m.ZeroState()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(i%96, st)
	}
}

// BenchmarkCLSmith measures baseline-generator throughput.
func BenchmarkCLSmith(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < b.N; i++ {
		clsmith.Generate(rng)
	}
}

// BenchmarkPerfModel measures the analytic device model.
func BenchmarkPerfModel(b *testing.B) {
	w := platform.Workload{
		Profile: &interp.Profile{
			FloatOps: 1 << 20, GlobalLoads: 1 << 18, GlobalStores: 1 << 17,
			Branches: 1 << 14, Barriers: 1 << 10,
		},
		CoalescedFrac: 0.7, TransferBytes: 1 << 22, WorkItems: 1 << 16,
	}
	for i := 0; i < b.N; i++ {
		platform.SystemAMD.BestDevice(w)
	}
}

// BenchmarkAblationRewriterModelQuality compares the rejection-filter
// acceptance of models trained on rewritten vs raw (un-normalized) corpus
// text — the model-quality half of the §4.1 rewriter claim.
func BenchmarkAblationRewriterModelQuality(b *testing.B) {
	files := github.Mine(github.MinerConfig{Seed: 8, Repos: 50, FilesPerRepo: 8})
	c, err := corpus.Build(files)
	if err != nil {
		b.Fatal(err)
	}
	var raw strings.Builder
	for _, f := range files {
		if corpus.Filter(f.Text, true).OK {
			raw.WriteString(f.Text)
			raw.WriteString("\n")
		}
	}
	for _, variant := range []struct {
		name string
		text string
	}{
		{"rewritten", c.Text},
		{"raw", raw.String()},
	} {
		b.Run(variant.name, func(b *testing.B) {
			m, err := model.TrainNGram(variant.text, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			reportAcceptRate(b, m, 7)
		})
	}
}
