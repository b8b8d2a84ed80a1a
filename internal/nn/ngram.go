package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// LanguageModel is a generative character model over an integer vocabulary.
// Both the LSTM and the n-gram backends implement it; the CLgen sampler is
// backend-agnostic.
type LanguageModel interface {
	// VocabSize returns the number of symbols.
	VocabSize() int
	// NewSession returns a fresh stateful predictor.
	NewSession() Session
}

// Session is a stateful next-character predictor.
type Session interface {
	// Observe feeds one symbol of context.
	Observe(x int)
	// Distribution writes the next-symbol probability distribution at the
	// given sampling temperature into out (length VocabSize) and returns it.
	Distribution(temperature float64, out []float64) []float64
}

// --- LSTM adapter ---

// VocabSize implements LanguageModel.
func (m *LSTM) VocabSize() int { return m.Vocab }

// NewSession implements LanguageModel.
func (m *LSTM) NewSession() Session {
	return &lstmSession{m: m, st: m.ZeroState()}
}

type lstmSession struct {
	m      *LSTM
	st     *State
	logits []float64
}

func (s *lstmSession) Observe(x int) {
	s.logits = s.m.Step(x, s.st)
}

func (s *lstmSession) Distribution(temperature float64, out []float64) []float64 {
	if s.logits == nil {
		// No context yet: uniform.
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	return Softmax(s.logits, out, temperature)
}

// --- n-gram model ---

// Succ is one successor count in an n-gram distribution.
type Succ struct {
	Sym   uint16
	Count uint32
}

// NGram is a high-order character-level n-gram model with longest-match
// backoff. Entirely probabilistic and learned from the corpus, it serves
// as the converged-model stand-in for large-scale sampling (see DESIGN.md).
type NGram struct {
	Order  int // context length in symbols
	Vocab  int
	Counts map[string][]Succ // context (encoded as bytes) -> successors

	// Lineage is the content-hashed model identity (see LSTM.Lineage);
	// stamped by internal/model after fitting, "" for old checkpoints.
	Lineage string
}

// NewNGram creates an empty model of the given order (context length).
func NewNGram(vocab, order int) *NGram {
	if order < 1 {
		order = 1
	}
	return &NGram{Order: order, Vocab: vocab, Counts: map[string][]Succ{}}
}

// TrainNGram builds an n-gram model from an encoded corpus.
func TrainNGram(corpus []int, vocab, order int) (*NGram, error) {
	if vocab > 65535 {
		return nil, fmt.Errorf("nn: vocabulary too large for n-gram model")
	}
	m := NewNGram(vocab, order)
	m.Add(corpus)
	return m, nil
}

// Add accumulates counts from an additional encoded corpus.
func (m *NGram) Add(corpus []int) {
	buf := make([]byte, 0, m.Order)
	for t, x := range corpus {
		// Count (suffix-context, successor) pairs for every context length
		// 0..Order so backoff always has somewhere to land.
		lo := t - m.Order
		if lo < 0 {
			lo = 0
		}
		for s := t; s >= lo; s-- {
			buf = buf[:0]
			for _, c := range corpus[s:t] {
				buf = append(buf, byte(c))
			}
			m.bump(string(buf), x)
		}
	}
}

func (m *NGram) bump(ctx string, sym int) {
	lst := m.Counts[ctx]
	for i := range lst {
		if int(lst[i].Sym) == sym {
			lst[i].Count++
			return
		}
	}
	m.Counts[ctx] = append(lst, Succ{Sym: uint16(sym), Count: 1})
}

// VocabSize implements LanguageModel.
func (m *NGram) VocabSize() int { return m.Vocab }

// NewSession implements LanguageModel.
func (m *NGram) NewSession() Session {
	return &ngramSession{m: m}
}

type ngramSession struct {
	m   *NGram
	ctx []byte // last Order symbols
}

func (s *ngramSession) Observe(x int) {
	s.ctx = append(s.ctx, byte(x))
	if len(s.ctx) > s.m.Order {
		s.ctx = s.ctx[len(s.ctx)-s.m.Order:]
	}
}

func (s *ngramSession) Distribution(temperature float64, out []float64) []float64 {
	if temperature <= 0 {
		temperature = 1
	}
	for i := range out {
		out[i] = 0
	}
	// Longest-match backoff: use the longest stored context suffix.
	for start := 0; start <= len(s.ctx); start++ {
		lst, ok := s.m.Counts[string(s.ctx[start:])]
		if !ok || len(lst) == 0 {
			continue
		}
		var sum float64
		for _, sc := range lst {
			w := math.Pow(float64(sc.Count), 1/temperature)
			out[sc.Sym] = w
			sum += w
		}
		if sum > 0 {
			for i := range out {
				out[i] /= sum
			}
			return out
		}
	}
	for i := range out {
		out[i] = 1 / float64(len(out))
	}
	return out
}

// SampleNext draws the next symbol from a session at the given temperature.
func SampleNext(s Session, temperature float64, rng *rand.Rand, scratch []float64) int {
	probs := s.Distribution(temperature, scratch)
	return SampleDist(probs, rng)
}
