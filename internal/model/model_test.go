package model

import (
	"math/rand"
	"strings"
	"testing"

	"clgen/internal/corpus"
	"clgen/internal/github"
	"clgen/internal/nn"
)

func TestVocabularyRoundTrip(t *testing.T) {
	v := BuildVocabulary("hello kernel")
	ids := v.Encode("hello")
	if got := v.Decode(ids); got != "hello" {
		t.Errorf("round trip = %q", got)
	}
	if v.Size() == 0 || v.Size() > 256 {
		t.Errorf("vocab size %d", v.Size())
	}
}

func TestVocabularyAlwaysEncodesSeeds(t *testing.T) {
	v := BuildVocabulary("x") // pathologically small corpus
	seed := SeedText(DefaultArgSpec())
	if got := v.Decode(v.Encode(seed)); got != seed {
		t.Errorf("seed text not encodable: %q", got)
	}
}

func TestSeedText(t *testing.T) {
	got := SeedText(DefaultArgSpec())
	want := "__kernel void A(__global float* a, __global float* b, __global float* c, const int d) {"
	if got != want {
		t.Errorf("SeedText = %q, want %q", got, want)
	}
	custom := SeedText([]Arg{{Type: "int*", Space: "__global"}, {Type: "float", Const: true}})
	if custom != "__kernel void A(__global int* a, const float b) {" {
		t.Errorf("custom = %q", custom)
	}
}

// buildTestCorpus assembles a small real corpus through the full pipeline.
func buildTestCorpus(t testing.TB) *corpus.Corpus {
	t.Helper()
	files := github.Mine(github.MinerConfig{Seed: 17, Repos: 60, FilesPerRepo: 8})
	c, err := corpus.Build(files)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// trainedModel keeps BenchmarkTrainNGram's result live.
var trainedModel *Model

// BenchmarkTrainNGram times training at the default order on the 60-repo
// test corpus, vocabulary and lineage included.
func BenchmarkTrainNGram(b *testing.B) {
	text := buildTestCorpus(b).Text
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := TrainNGram(text, DefaultNGramOrder)
		if err != nil {
			b.Fatal(err)
		}
		trainedModel = m
	}
}

func TestNGramSamplesCompilableKernels(t *testing.T) {
	c := buildTestCorpus(t)
	m, err := TrainNGram(c.Text, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const trials = 60
	passFree, passSpec := 0, 0
	unique := map[string]bool{}
	for i := 0; i < trials; i++ {
		k := m.SampleKernel(rng, SampleOpts{Seed: FreeSeed})
		if !strings.HasPrefix(k, "__kernel void A(") {
			t.Fatalf("sample missing seed prefix: %q", k[:min(60, len(k))])
		}
		if res := corpus.FilterSample(k); res.OK {
			passFree++
			unique[k] = true
		}
		ks := m.SampleKernel(rng, SampleOpts{})
		if res := corpus.FilterSample(ks); res.OK {
			passSpec++
		}
	}
	// The paper's pipeline tolerates rejections; what matters is a usable
	// acceptance rate. Free-signature mode (§4.3 mode 2) accepts the most;
	// the fixed argument specification mode still functions.
	if passFree < trials*2/5 {
		t.Errorf("free mode: only %d/%d samples pass the rejection filter", passFree, trials)
	}
	if passSpec < trials/10 {
		t.Errorf("argspec mode: only %d/%d samples pass", passSpec, trials)
	}
	if len(unique) < 10 {
		t.Errorf("only %d unique accepted kernels", len(unique))
	}
}

func TestSampleRespectsMaxLen(t *testing.T) {
	c := buildTestCorpus(t)
	m, err := TrainNGram(c.Text, 6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	k := m.SampleKernel(rng, SampleOpts{MaxLen: 50})
	seedLen := len(SeedText(DefaultArgSpec()))
	if len(k) > seedLen+50 {
		t.Errorf("sample length %d exceeds bound", len(k))
	}
}

func TestSampleDepthTracking(t *testing.T) {
	c := buildTestCorpus(t)
	m, err := TrainNGram(c.Text, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	balanced := 0
	for i := 0; i < 30; i++ {
		k := m.SampleKernel(rng, SampleOpts{})
		if strings.Count(k, "{") == strings.Count(k, "}") {
			balanced++
		}
	}
	if balanced < 20 {
		t.Errorf("only %d/30 samples have balanced braces", balanced)
	}
}

func TestSampleDeterministicWithSeed(t *testing.T) {
	c := buildTestCorpus(t)
	m, err := TrainNGram(c.Text, 8)
	if err != nil {
		t.Fatal(err)
	}
	k1 := m.SampleKernel(rand.New(rand.NewSource(5)), SampleOpts{})
	k2 := m.SampleKernel(rand.New(rand.NewSource(5)), SampleOpts{})
	if k1 != k2 {
		t.Error("sampling not reproducible under fixed seed")
	}
}

func TestLSTMBackendEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("LSTM training is slow")
	}
	// Train a small LSTM on a focused corpus and check that it learns
	// enough structure to emit kernel-shaped text.
	small := strings.Repeat(`__kernel void A(__global float* a, __global float* b, __global float* c, const int d) {
  int e = get_global_id(0);
  if (e < d) {
    c[e] = a[e] + b[e];
  }
}
`, 20)
	m, loss, err := TrainLSTM(small, 64, 1, nn.TrainConfig{
		Epochs: 12, SeqLen: 48, LearnRate: 0.8, DecayEvery: 6, BatchSeqs: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 1.5 {
		t.Logf("warning: loss still %g", loss)
	}
	rng := rand.New(rand.NewSource(1))
	ok := 0
	for i := 0; i < 10; i++ {
		k := m.SampleKernel(rng, SampleOpts{Temperature: 0.4})
		if strings.Count(k, "{") == strings.Count(k, "}") && strings.Contains(k, ";") {
			ok++
		}
	}
	if ok == 0 {
		t.Error("LSTM backend produced no kernel-shaped samples")
	}
}

func TestTrainRejectsEmpty(t *testing.T) {
	if _, err := TrainNGram("", 5); err == nil {
		t.Error("empty corpus accepted")
	}
	if _, _, err := TrainLSTM("", 8, 1, nn.TrainConfig{}); err == nil {
		t.Error("empty corpus accepted by LSTM")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestModelSaveLoadRoundTrip: a checkpoint of either backend must load
// into a model with the same vocabulary, lineage and next-character
// distribution, so it samples exactly what the saved model samples.
func TestModelSaveLoadRoundTrip(t *testing.T) {
	c := buildTestCorpus(t)
	ngram, err := TrainNGram(c.Text, 8)
	if err != nil {
		t.Fatal(err)
	}
	lstm, _, err := TrainLSTM(c.Kernels[0], 8, 2, nn.TrainConfig{Epochs: 1, SeqLen: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		m    *Model
	}{{"ngram", ngram}, {"lstm", lstm}} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			path := t.TempDir() + "/model.gob"
			if err := m.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			m2, err := LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if m2.Vocab.Size() != m.Vocab.Size() || m2.Lineage != m.Lineage {
				t.Fatalf("vocab size %d vs %d, lineage %q vs %q",
					m2.Vocab.Size(), m.Vocab.Size(), m2.Lineage, m.Lineage)
			}
			s1, s2 := m.LM.NewSession(), m2.LM.NewSession()
			for _, x := range m.Vocab.Encode("__kernel void A(") {
				s1.Observe(x)
				s2.Observe(x)
			}
			p1 := s1.Distribution(1, make([]float64, m.Vocab.Size()))
			p2 := s2.Distribution(1, make([]float64, m.Vocab.Size()))
			for i := range p1 {
				if p1[i] != p2[i] {
					t.Fatalf("next-character probability %d: %g vs %g", i, p1[i], p2[i])
				}
			}
			k1 := m.SampleKernel(rand.New(rand.NewSource(4)), SampleOpts{MaxLen: 200})
			k2 := m2.SampleKernel(rand.New(rand.NewSource(4)), SampleOpts{MaxLen: 200})
			if k1 != k2 {
				t.Error("loaded model samples differently")
			}
		})
	}
}

func TestModelLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a gob")); err == nil {
		t.Error("garbage accepted")
	}
}
