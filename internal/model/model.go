// Package model wraps a character-level language model (LSTM or n-gram
// backend from internal/nn) with the CLgen-specific machinery of §4.2–4.3:
// corpus encoding over a learned character vocabulary, seed-text
// construction from kernel argument specifications, and the iterative
// depth-tracking sampling loop of Algorithm 1.
package model

import (
	"fmt"
	"math/rand"
	"strings"

	"clgen/internal/cache"
	"clgen/internal/journal"
	"clgen/internal/nn"
	"clgen/internal/telemetry"
)

// Vocabulary is a bijection between corpus characters and dense indices.
type Vocabulary struct {
	Chars []byte
	index [256]int16
}

// BuildVocabulary collects the distinct bytes of a corpus, in first-seen
// order, always including the characters needed by seed texts.
func BuildVocabulary(text string) *Vocabulary {
	v := &Vocabulary{}
	for i := range v.index {
		v.index[i] = -1
	}
	add := func(b byte) {
		if v.index[b] < 0 {
			v.index[b] = int16(len(v.Chars))
			v.Chars = append(v.Chars, b)
		}
	}
	for i := 0; i < len(text); i++ {
		add(text[i])
	}
	// Seed-text alphabet: kernel prototypes must always be encodable.
	for _, b := range []byte("__kernel void ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789*(),.;{}[]<>=+-/%&|!~^? \n\t\"'#:") {
		add(b)
	}
	return v
}

// Size returns the vocabulary size.
func (v *Vocabulary) Size() int { return len(v.Chars) }

// Encode converts text to indices; characters outside the vocabulary are
// skipped (they cannot be generated, so they carry no information).
func (v *Vocabulary) Encode(text string) []int {
	out := make([]int, 0, len(text))
	for i := 0; i < len(text); i++ {
		if idx := v.index[text[i]]; idx >= 0 {
			out = append(out, int(idx))
		}
	}
	return out
}

// Decode converts indices back to text.
func (v *Vocabulary) Decode(ids []int) string {
	var b strings.Builder
	for _, id := range ids {
		if id >= 0 && id < len(v.Chars) {
			b.WriteByte(v.Chars[id])
		}
	}
	return b.String()
}

// Model couples a trained language model with its vocabulary.
type Model struct {
	Vocab *Vocabulary
	LM    nn.LanguageModel
	// Lineage is the content-hashed model identity: cache.Key over the
	// backend configuration, the corpus content hash, and the training
	// seed, truncated to journal-ID width. Every trained journal event and
	// every sampled kernel's journal entry carries it, linking artifacts
	// back to the exact model that produced them. Empty for models loaded
	// from pre-lineage checkpoints.
	Lineage string
}

// lineageID derives the content-hashed model identity from the backend
// configuration and corpus text. Two trainings with identical config,
// corpus, and seed share a lineage; any divergence produces a new one.
func lineageID(corpus string, cfgParts ...string) string {
	parts := append([]string{"model-lineage", journal.ID(corpus)}, cfgParts...)
	return cache.Key(parts...)[:16]
}

// DefaultNGramOrder is the context length that maximizes the fraction of
// samples accepted by the rejection filter while keeping output diverse
// (measured on pipeline-built corpora; see the model tests).
const DefaultNGramOrder = 28

// FreeSeed is the seed text for §4.3's second sampling mode: the argument
// specification is omitted and the model synthesizes kernels of arbitrary
// signatures, dictated by the distribution of argument types within the
// language corpus. This mode has the highest rejection-filter acceptance
// because bodies and signatures always agree.
const FreeSeed = "__kernel void A("

// TrainNGram fits an n-gram backend of the given order to corpus text.
// order <= 0 selects DefaultNGramOrder.
func TrainNGram(corpus string, order int) (*Model, error) {
	if order <= 0 {
		order = DefaultNGramOrder
	}
	if len(corpus) == 0 {
		return nil, fmt.Errorf("model: empty corpus")
	}
	v := BuildVocabulary(corpus)
	lm, err := nn.TrainNGram(v.Encode(corpus), v.Size(), order)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	lineage := lineageID(corpus, "ngram", fmt.Sprintf("order=%d", order))
	lm.Lineage = lineage
	// N-gram fitting is a single counting pass: one trained event stands
	// for the whole "curve".
	if journal.Enabled() {
		journal.Emit(journal.Event{
			ID: lineage, Stage: journal.StageTrained,
			Model: lineage, Variant: "ngram", Epoch: 1,
		})
	}
	return &Model{Vocab: v, LM: lm, Lineage: lineage}, nil
}

// TrainLSTM fits an LSTM backend to corpus text. The model's lineage ID is
// derived before training and threaded into the per-epoch trained journal
// events the training loop emits.
func TrainLSTM(corpus string, hidden, layers int, cfg nn.TrainConfig) (*Model, float64, error) {
	if len(corpus) == 0 {
		return nil, 0, fmt.Errorf("model: empty corpus")
	}
	v := BuildVocabulary(corpus)
	lstm := nn.NewLSTM(v.Size(), hidden, layers, rand.New(rand.NewSource(cfg.Seed)))
	lineage := lineageID(corpus, "lstm",
		fmt.Sprintf("hidden=%d layers=%d epochs=%d seqlen=%d lr=%g decay=%d/%g clip=%g batch=%d seed=%d",
			hidden, layers, cfg.Epochs, cfg.SeqLen, cfg.LearnRate,
			cfg.DecayEvery, cfg.DecayFactor, cfg.Clip, cfg.BatchSeqs, cfg.Seed))
	lstm.Lineage = lineage
	cfg.Lineage = lineage
	loss, err := lstm.Train(v.Encode(corpus), cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("model: %w", err)
	}
	return &Model{Vocab: v, LM: lstm, Lineage: lineage}, loss, nil
}

// Arg describes one kernel argument in an argument specification (§4.3
// sampling mode 1).
type Arg struct {
	Type  string // e.g. "float*", "int"
	Space string // "__global", "__local", "__constant", or "" for values
	Const bool
}

// DefaultArgSpec is the specification used throughout the paper's examples:
// three single-precision floating-point arrays and a read-only signed
// integer.
func DefaultArgSpec() []Arg {
	return []Arg{
		{Type: "float*", Space: "__global"},
		{Type: "float*", Space: "__global"},
		{Type: "float*", Space: "__global"},
		{Type: "int", Const: true},
	}
}

// SeedText renders the argument specification as the sampling seed:
// "__kernel void A(" + args + ") {". Argument names follow the rewriter's
// sequence a, b, c, ...
func SeedText(spec []Arg) string {
	var b strings.Builder
	b.WriteString("__kernel void A(")
	for i, a := range spec {
		if i > 0 {
			b.WriteString(", ")
		}
		if a.Space != "" {
			b.WriteString(a.Space)
			b.WriteString(" ")
		}
		if a.Const {
			b.WriteString("const ")
		}
		b.WriteString(a.Type)
		b.WriteString(" ")
		b.WriteByte(byte('a' + i%26))
	}
	b.WriteString(") {")
	return b.String()
}

// SampleOpts controls Algorithm 1.
type SampleOpts struct {
	// Seed is the sampling seed text; empty means SeedText(DefaultArgSpec()).
	// Per §4.3, omitting the argument specification corresponds to seeding
	// with just "__kernel void A(" so the model invents a signature.
	Seed string
	// MaxLen is the maximum number of generated characters (n in
	// Algorithm 1). Default 2048.
	MaxLen int
	// Temperature is the sampling temperature. Default 0.8.
	Temperature float64
}

func (o *SampleOpts) defaults() {
	if o.Seed == "" {
		o.Seed = SeedText(DefaultArgSpec())
	}
	if o.MaxLen <= 0 {
		o.MaxLen = 2048
	}
	if o.Temperature <= 0 {
		o.Temperature = 0.8
	}
}

// lexState is the sampler's lexer state for Algorithm 1's depth tracking.
type lexState uint8

// Lexer states.
const (
	lexCode lexState = iota
	lexLineComment
	lexBlockComment
	lexString
	lexChar
)

// braceTracker counts `{`/`}` depth while skipping braces inside string
// and character literals and comments. Algorithm 1 terminates a sample at
// the kernel's closing brace; counting a quoted `"{"` or a `}` inside a
// comment would close (or never close) the kernel at the wrong depth.
type braceTracker struct {
	depth int
	state lexState
	// escaped marks a pending backslash escape inside a literal.
	escaped bool
	// prev is the previous character, for the two-character tokens
	// `//`, `/*`, `*/`. Cleared on state entry so `/*/` does not
	// self-close.
	prev byte
}

// feed consumes one character and reports whether it was a real closing
// brace that returned the depth to zero (Algorithm 1's stop condition).
func (t *braceTracker) feed(ch byte) bool {
	switch t.state {
	case lexLineComment:
		if ch == '\n' {
			t.state = lexCode
		}
	case lexBlockComment:
		if t.prev == '*' && ch == '/' {
			// The closing '/' must not double as the first slash of a
			// following `//` or `/*`.
			t.state = lexCode
			t.prev = 0
			return false
		}
	case lexString, lexChar:
		quote := byte('"')
		if t.state == lexChar {
			quote = '\''
		}
		switch {
		case t.escaped:
			t.escaped = false
		case ch == '\\':
			t.escaped = true
		case ch == quote:
			t.state = lexCode
		}
	default: // lexCode
		switch ch {
		case '{':
			t.depth++
		case '}':
			t.depth--
			t.prev = ch
			return t.depth == 0
		case '"':
			t.state = lexString
			t.escaped = false
		case '\'':
			t.state = lexChar
			t.escaped = false
		case '/':
			if t.prev == '/' {
				t.state = lexLineComment
				t.prev = 0
				return false
			}
		case '*':
			if t.prev == '/' {
				t.state = lexBlockComment
				t.prev = 0
				return false
			}
		}
	}
	t.prev = ch
	return false
}

// SampleKernel implements Algorithm 1: prime the model with the seed text,
// then sample character by character, tracking brace depth (with a lexer
// state machine, so braces inside literals and comments do not count),
// until the kernel's closing brace or the length bound.
func (m *Model) SampleKernel(rng *rand.Rand, opts SampleOpts) string {
	opts.defaults()
	sess := m.LM.NewSession()
	var out strings.Builder
	out.WriteString(opts.Seed)
	var tracker braceTracker
	for i := 0; i < len(opts.Seed); i++ {
		tracker.feed(opts.Seed[i])
	}
	// Prime with a newline then the seed, matching corpus layout where
	// kernels start at line beginnings.
	for _, id := range m.Vocab.Encode("\n" + opts.Seed) {
		sess.Observe(id)
	}
	reg := telemetry.Default()
	scratch := make([]float64, m.Vocab.Size())
	for n := 0; n < opts.MaxLen; n++ {
		id := nn.SampleNext(sess, opts.Temperature, rng, scratch)
		ch := m.Vocab.Chars[id]
		out.WriteByte(ch)
		sess.Observe(id)
		if tracker.feed(ch) {
			reg.Counter("sampler_chars_generated_total",
				"Characters emitted by the sampling loop.").Add(int64(n + 1))
			return out.String()
		}
	}
	// Length bound hit with the brace depth still open: Algorithm 1's
	// depth tracking never found the kernel's closing brace, so the
	// sample is truncated and will likely be rejected downstream.
	reg.Counter("sampler_chars_generated_total",
		"Characters emitted by the sampling loop.").Add(int64(opts.MaxLen))
	reg.Counter("sampler_maxlen_hits_total",
		"Samples truncated at MaxLen with unbalanced braces (depth-tracking rejection).").Inc()
	return out.String()
}
