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

// TrainNGram builds an n-gram model of the given order (context length,
// at least 1) from an encoded corpus. Symbols are stored as bytes, so the
// vocabulary holds at most 256 of them.
//
// Every position counts its successor under each suffix context of length
// 0..Order, so backoff always has somewhere to land. Those contexts are the
// nodes on one path down a trie of reversed contexts: the child of the node
// for corpus[t-d:t] by symbol corpus[t-d-1] is the context one symbol
// longer. So each position walks down once, bumping its successor at every
// node on the way, and each node is then written to Counts once. Successors
// stay in first-appearance order, which Distribution's floating-point sum
// depends on.
func TrainNGram(corpus []int, vocab, order int) (*NGram, error) {
	if vocab > 256 {
		return nil, fmt.Errorf("nn: vocabulary of %d symbols too large for n-gram model (max 256)", vocab)
	}
	for _, x := range corpus {
		if x < 0 || x >= vocab {
			return nil, fmt.Errorf("nn: corpus index %d outside vocabulary %d", x, vocab)
		}
	}
	if order < 1 {
		order = 1
	}
	// Node 0 is the root, the empty context; entry 0 of succs is unused,
	// so index 0 means "none" in both.
	tr := trie{nodes: make([]trieNode, 1), succs: make([]trieSucc, 1)}
	for t, x := range corpus {
		// A position adds at most order+1 nodes and successors; int32
		// indices must not wrap.
		if len(tr.succs) > math.MaxInt32-order-1 {
			return nil, fmt.Errorf("nn: corpus of %d symbols has too many order-%d contexts", len(corpus), order)
		}
		n := int32(0)
		for d := 0; ; d++ {
			tr.bump(n, x)
			if d == order || d == t {
				break
			}
			n = tr.child(n, byte(corpus[t-d-1]))
		}
	}
	m := &NGram{Order: order, Vocab: vocab, Counts: make(map[string][]Succ, len(tr.nodes))}
	all := make([]Succ, 0, len(tr.succs)-1)
	// A depth-d node's key is key[order-d:]: descending prepends a symbol.
	key := make([]byte, order)
	var write func(n int32, d int)
	write = func(n int32, d int) {
		if first := tr.nodes[n].first; first != 0 { // only an empty corpus's root has none
			lo := len(all)
			for i := first; i != 0; i = tr.succs[i].next {
				all = append(all, tr.succs[i].Succ)
			}
			m.Counts[string(key[order-d:])] = all[lo:len(all):len(all)]
		}
		for c := tr.nodes[n].child; c != 0; c = tr.nodes[c].sibling {
			key[order-d-1] = tr.nodes[c].sym
			write(c, d+1)
		}
	}
	write(0, 0)
	return m, nil
}

// trie holds the contexts TrainNGram counts. Node 0 is the empty context,
// and a child extends its parent's context by one symbol on the left. It
// holds no pointers, so the collector never scans it.
type trie struct {
	nodes []trieNode
	succs []trieSucc // every node's successors
}

type trieNode struct {
	child, sibling int32 // first child and next sibling
	first, last    int32 // the node's successors, in first-appearance order
	sym            byte  // the symbol this node prepends to its parent's context
}

type trieSucc struct {
	Succ
	next int32 // the node's next successor
}

// child returns n's child by symbol s, adding it if absent. A child found
// moves to the front of its siblings, so frequent symbols are found first.
func (tr *trie) child(n int32, s byte) int32 {
	prev := int32(0)
	for c := tr.nodes[n].child; c != 0; prev, c = c, tr.nodes[c].sibling {
		if tr.nodes[c].sym == s {
			if prev != 0 {
				tr.nodes[prev].sibling = tr.nodes[c].sibling
				tr.nodes[c].sibling = tr.nodes[n].child
				tr.nodes[n].child = c
			}
			return c
		}
	}
	c := int32(len(tr.nodes))
	tr.nodes = append(tr.nodes, trieNode{sibling: tr.nodes[n].child, sym: s})
	tr.nodes[n].child = c
	return c
}

// bump counts sym as a successor of node n.
func (tr *trie) bump(n int32, sym int) {
	node := &tr.nodes[n]
	for i := node.first; i != 0; i = tr.succs[i].next {
		if int(tr.succs[i].Sym) == sym {
			tr.succs[i].Count++
			return
		}
	}
	i := int32(len(tr.succs))
	tr.succs = append(tr.succs, trieSucc{Succ: Succ{Sym: uint16(sym), Count: 1}})
	if node.first == 0 {
		node.first = i
	} else {
		tr.succs[node.last].next = i
	}
	node.last = i
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
