package nn

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMatMulVec(t *testing.T) {
	m := NewMat(2, 3)
	copy(m.W, []float64{1, 2, 3, 4, 5, 6})
	out := make([]float64, 2)
	m.MulVec([]float64{1, 0, -1}, out)
	if out[0] != -2 || out[1] != -2 {
		t.Errorf("MulVec = %v", out)
	}
	outT := make([]float64, 3)
	m.MulVecT([]float64{1, 1}, outT)
	if outT[0] != 5 || outT[1] != 7 || outT[2] != 9 {
		t.Errorf("MulVecT = %v", outT)
	}
}

func TestMatAddOuter(t *testing.T) {
	m := NewMat(2, 2)
	m.AddOuter([]float64{1, 2}, []float64{3, 4})
	want := []float64{3, 4, 6, 8}
	for i, w := range want {
		if m.W[i] != w {
			t.Errorf("W[%d] = %g, want %g", i, m.W[i], w)
		}
	}
}

func TestSoftmaxProperties(t *testing.T) {
	err := quick.Check(func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		logits := make([]float64, len(raw))
		for i, v := range raw {
			// Clamp crazy magnitudes so we test behaviour, not overflow.
			logits[i] = math.Mod(v, 50)
			if math.IsNaN(logits[i]) {
				logits[i] = 0
			}
		}
		out := make([]float64, len(logits))
		Softmax(logits, out, 1)
		var sum float64
		for _, p := range out {
			if p < 0 || math.IsNaN(p) {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestSoftmaxTemperature(t *testing.T) {
	logits := []float64{1, 2, 3}
	cold := make([]float64, 3)
	hot := make([]float64, 3)
	Softmax(logits, cold, 0.1)
	Softmax(logits, hot, 10)
	if cold[2] < 0.99 {
		t.Errorf("cold sampling not peaked: %v", cold)
	}
	if math.Abs(hot[0]-hot[2]) > 0.2 {
		t.Errorf("hot sampling not flattened: %v", hot)
	}
}

// TestLSTMGradient verifies analytic gradients against finite differences —
// the canonical BPTT correctness check.
func TestLSTMGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewLSTM(5, 4, 2, rng)
	inputs := []int{0, 1, 2, 3, 1, 0}
	targets := []int{1, 2, 3, 1, 0, 2}

	g := m.newGrads()
	st := m.ZeroState()
	m.trainSequence(inputs, targets, st, g)

	lossAt := func() float64 {
		st := m.ZeroState()
		var loss float64
		p := make([]float64, m.Vocab)
		for i := range inputs {
			logits := m.Step(inputs[i], st)
			Softmax(logits, p, 1)
			loss -= math.Log(math.Max(p[targets[i]], 1e-12))
		}
		return loss
	}

	const eps = 1e-5
	check := func(name string, params, grad []float64, idxs []int) {
		for _, i := range idxs {
			orig := params[i]
			params[i] = orig + eps
			lp := lossAt()
			params[i] = orig - eps
			lm := lossAt()
			params[i] = orig
			numeric := (lp - lm) / (2 * eps)
			if math.Abs(numeric-grad[i]) > 1e-4*(1+math.Abs(numeric)) {
				t.Errorf("%s[%d]: analytic %g, numeric %g", name, i, grad[i], numeric)
			}
		}
	}
	idxs := []int{0, 3, 7, 11}
	check("Wx0", m.Wx[0].W, g.Wx[0].W, idxs)
	check("Wh0", m.Wh[0].W, g.Wh[0].W, idxs)
	check("B0", m.B[0], g.B[0], idxs)
	check("Wx1", m.Wx[1].W, g.Wx[1].W, idxs)
	check("Wh1", m.Wh[1].W, g.Wh[1].W, idxs)
	check("Wy", m.Wy.W, g.Wy.W, idxs)
	check("By", m.By, g.By, []int{0, 2, 4})
}

func TestLSTMTrainsOnRepeatingPattern(t *testing.T) {
	// A tiny LSTM must learn a deterministic cyclic sequence.
	pattern := []int{0, 1, 2, 3}
	corpus := make([]int, 400)
	for i := range corpus {
		corpus[i] = pattern[i%len(pattern)]
	}
	rng := rand.New(rand.NewSource(1))
	m := NewLSTM(4, 16, 1, rng)
	before := m.Loss(corpus)
	_, err := m.Train(corpus, TrainConfig{Epochs: 100, SeqLen: 16, LearnRate: 0.5, DecayEvery: 50, BatchSeqs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	after := m.Loss(corpus)
	if after >= before/2 {
		t.Errorf("training did not reduce loss: %g -> %g", before, after)
	}
	// Sampling greedily from context 0 should recover the cycle.
	sess := m.NewSession()
	sess.Observe(0)
	probs := make([]float64, 4)
	for step, want := range []int{1, 2, 3, 0, 1, 2} {
		sess.Distribution(0.01, probs)
		best := 0
		for i, p := range probs {
			if p > probs[best] {
				best = i
			}
		}
		if best != want {
			t.Fatalf("step %d: predicted %d, want %d (probs %v)", step, best, want, probs)
		}
		sess.Observe(want)
	}
}

func TestLSTMNumParams(t *testing.T) {
	m := NewLSTM(10, 8, 2, rand.New(rand.NewSource(0)))
	// Layer 0: 32*10 + 32*8 + 32; layer 1: 32*8 + 32*8 + 32; out: 10*8+10.
	want := (32*10 + 32*8 + 32) + (32*8 + 32*8 + 32) + (10*8 + 10)
	if got := m.NumParams(); got != want {
		t.Errorf("NumParams = %d, want %d", got, want)
	}
}

func TestNGramLearnsSuccessors(t *testing.T) {
	// "abcabcabc..." with order 2 must predict deterministically.
	corpus := make([]int, 300)
	for i := range corpus {
		corpus[i] = i % 3
	}
	m, err := TrainNGram(corpus, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	sess := m.NewSession()
	sess.Observe(0)
	sess.Observe(1)
	probs := make([]float64, 3)
	sess.Distribution(1, probs)
	if probs[2] < 0.99 {
		t.Errorf("P(c|ab) = %v", probs)
	}
}

func TestNGramBackoff(t *testing.T) {
	corpus := []int{0, 1, 2, 0, 1, 2, 0, 1}
	m, err := TrainNGram(corpus, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	// An unseen context must back off rather than go uniform-on-everything.
	sess := m.NewSession()
	sess.Observe(3) // symbol 3 never appears in the corpus
	probs := make([]float64, 4)
	sess.Distribution(1, probs)
	// Backed off to the empty context: symbol 3 has zero mass there.
	if probs[3] != 0 {
		t.Errorf("unseen symbol kept mass after backoff: %v", probs)
	}
	var sum float64
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("distribution sums to %g", sum)
	}
}

func TestSampleDistDeterministicWithSeed(t *testing.T) {
	probs := []float64{0.1, 0.2, 0.3, 0.4}
	r1 := rand.New(rand.NewSource(42))
	r2 := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		if SampleDist(probs, r1) != SampleDist(probs, r2) {
			t.Fatal("sampling not deterministic under fixed seed")
		}
	}
}

func TestSampleDistRespectsZeros(t *testing.T) {
	probs := []float64{0, 1, 0}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		if got := SampleDist(probs, rng); got != 1 {
			t.Fatalf("sampled %d from degenerate distribution", got)
		}
	}
}

func TestTrainRejectsBadCorpus(t *testing.T) {
	m := NewLSTM(4, 4, 1, rand.New(rand.NewSource(0)))
	if _, err := m.Train([]int{0, 1}, TrainConfig{SeqLen: 16}); err == nil {
		t.Error("short corpus accepted")
	}
	long := make([]int, 100)
	long[50] = 99 // out of vocab
	if _, err := m.Train(long, TrainConfig{SeqLen: 16}); err == nil {
		t.Error("out-of-vocab corpus accepted")
	}
}

func TestTrainNGramRejectsBadCorpus(t *testing.T) {
	for _, tc := range []struct {
		name   string
		corpus []int
		vocab  int
	}{
		// Symbols are stored as bytes: 0 and 256 would share contexts.
		{"vocabulary over 256", []int{0, 256, 0}, 257},
		{"negative symbol", []int{0, -1, 1}, 3},
		{"symbol at vocabulary size", []int{0, 1, 3}, 3},
	} {
		if _, err := TrainNGram(tc.corpus, tc.vocab, 2); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := TrainNGram([]int{0, 255, 7}, 256, 2); err != nil {
		t.Errorf("256-symbol vocabulary rejected: %v", err)
	}
}

// referenceCounts is the string-keyed counting TrainNGram replaced, kept
// as its oracle: every suffix context of every position is copied into a
// string and looked up in the map.
func referenceCounts(corpus []int, order int) map[string][]Succ {
	if order < 1 {
		order = 1
	}
	counts := map[string][]Succ{}
	buf := make([]byte, 0, order)
	for t, x := range corpus {
		lo := t - order
		if lo < 0 {
			lo = 0
		}
		for s := t; s >= lo; s-- {
			buf = buf[:0]
			for _, c := range corpus[s:t] {
				buf = append(buf, byte(c))
			}
			ctx := string(buf)
			lst := counts[ctx]
			found := false
			for i := range lst {
				if int(lst[i].Sym) == x {
					lst[i].Count++
					found = true
					break
				}
			}
			if !found {
				counts[ctx] = append(lst, Succ{Sym: uint16(x), Count: 1})
			}
		}
	}
	return counts
}

func checkAgainstReference(t *testing.T, corpus []int, vocab, order int) {
	t.Helper()
	m, err := TrainNGram(corpus, vocab, order)
	if err != nil {
		t.Fatalf("order %d, vocab %d, %d symbols: %v", order, vocab, len(corpus), err)
	}
	if want := referenceCounts(corpus, order); !reflect.DeepEqual(m.Counts, want) {
		t.Fatalf("order %d, vocab %d, %d symbols: %d contexts, want %d (or successors differ)",
			order, vocab, len(corpus), len(m.Counts), len(want))
	}
}

// referenceKernel is a kernel-text corpus for TestTrainNGramMatchesReference:
// real code repeats long contexts, which random corpora rarely do.
const referenceKernel = `__kernel void A(__global float* a, __global float* b, __global float* c, const int d) {
  int e = get_global_id(0);
  if (e < d) {
    c[e] = a[e] + b[e];
  }
}
__kernel void B(__global float* a, __global float* b, const int c) {
  int d = get_global_id(0);
  float e = 0.0f;
  for (int f = 0; f < c; f++) {
    e += a[d * c + f] * b[f];
  }
  b[d] = e;
}
`

// TestTrainNGramMatchesReference: the trie walk must count exactly what
// the string-keyed counting did, successor order included.
func TestTrainNGramMatchesReference(t *testing.T) {
	orders := []int{1, 2, 3, 6, 28, 40}
	rng := rand.New(rand.NewSource(5))
	for _, vocab := range []int{1, 3, 93, 256} {
		for _, n := range []int{0, 1, 2, 5, 50, 3000} {
			corpus := make([]int, n)
			for i := range corpus {
				corpus[i] = rng.Intn(vocab)
			}
			for _, order := range orders {
				checkAgainstReference(t, corpus, vocab, order)
			}
		}
	}
	var index [256]int
	var kernel []int
	vocab := 0
	for _, b := range []byte(referenceKernel) {
		if index[b] == 0 {
			vocab++
			index[b] = vocab
		}
		kernel = append(kernel, index[b]-1)
	}
	for _, order := range orders {
		checkAgainstReference(t, kernel, vocab, order)
	}
}

// FuzzTrainNGram holds TrainNGram to the string-keyed oracle on arbitrary
// byte corpora; the first byte picks the order. Corpora are cut at 1,024
// symbols: a random corpus has about order contexts per symbol, and both
// sides store every one.
func FuzzTrainNGram(f *testing.F) {
	f.Add([]byte("\x03abcabcabd"))
	f.Add([]byte("\x1c" + referenceKernel))
	f.Add([]byte{40, 0, 255, 0, 255, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 1025 {
			data = data[:1025]
		}
		order := int(data[0]) % 48
		corpus := make([]int, len(data)-1)
		for i, b := range data[1:] {
			corpus[i] = int(b)
		}
		checkAgainstReference(t, corpus, 256, order)
	})
}
