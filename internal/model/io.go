package model

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"slices"

	"clgen/internal/nn"
)

// modelFile is the on-disk representation: the vocabulary plus exactly one
// backend payload. The paper ships its trained network the same way ("the
// trained network can be deployed to lower-compute machines", §4.2).
// Lineage carries the content-hashed model identity across the checkpoint
// boundary, so a deployed model's sampled kernels still journal the
// lineage of the training run that produced it; gob decodes checkpoints
// written before the field existed to "".
type modelFile struct {
	Chars []byte
	// NGram is the n-gram payload of checkpoints written before
	// SortedNGram: the counts map, which gob writes in random order. Save
	// leaves it nil, so a binary that reads only NGram rejects a newer
	// checkpoint as having no payload instead of loading an empty model.
	NGram       *nn.NGram
	SortedNGram *ngramFile
	LSTM        *nn.LSTM
	Lineage     string
}

// ngramFile is an nn.NGram whose counts are the sorted Contexts and, at the
// same index, their Succs, so that one model always encodes to the same
// bytes.
type ngramFile struct {
	Order    int
	Vocab    int
	Contexts []string
	Succs    [][]nn.Succ
	Lineage  string
}

// model rebuilds the n-gram model.
func (nf *ngramFile) model() (*nn.NGram, error) {
	if len(nf.Succs) != len(nf.Contexts) {
		return nil, fmt.Errorf("model: n-gram file has %d contexts but %d successor lists",
			len(nf.Contexts), len(nf.Succs))
	}
	ng := &nn.NGram{Order: nf.Order, Vocab: nf.Vocab, Lineage: nf.Lineage,
		Counts: make(map[string][]nn.Succ, len(nf.Contexts))}
	for i, ctx := range nf.Contexts {
		ng.Counts[ctx] = nf.Succs[i]
	}
	return ng, nil
}

// Save serializes the model (vocabulary + backend) with encoding/gob. The
// same model always writes the same bytes.
func (m *Model) Save(w io.Writer) error {
	mf := modelFile{Chars: m.Vocab.Chars, Lineage: m.Lineage}
	switch lm := m.LM.(type) {
	case *nn.NGram:
		nf := &ngramFile{Order: lm.Order, Vocab: lm.Vocab, Lineage: lm.Lineage}
		for ctx := range lm.Counts {
			nf.Contexts = append(nf.Contexts, ctx)
		}
		slices.Sort(nf.Contexts)
		for _, ctx := range nf.Contexts {
			nf.Succs = append(nf.Succs, lm.Counts[ctx])
		}
		mf.SortedNGram = nf
	case *nn.LSTM:
		mf.LSTM = lm
	default:
		return fmt.Errorf("model: unsupported backend %T", m.LM)
	}
	if err := gob.NewEncoder(w).Encode(&mf); err != nil {
		return fmt.Errorf("model: save: %w", err)
	}
	return nil
}

// Load deserializes a model written by Save, or an n-gram checkpoint
// written before SortedNGram.
func Load(r io.Reader) (*Model, error) {
	var mf modelFile
	if err := gob.NewDecoder(r).Decode(&mf); err != nil {
		return nil, fmt.Errorf("model: load: %w", err)
	}
	v := BuildVocabulary(string(mf.Chars))
	m := &Model{Vocab: v, Lineage: mf.Lineage}
	switch {
	case mf.SortedNGram != nil:
		ng, err := mf.SortedNGram.model()
		if err != nil {
			return nil, err
		}
		m.LM = ng
	case mf.NGram != nil:
		m.LM = mf.NGram
	case mf.LSTM != nil:
		m.LM = mf.LSTM
	default:
		return nil, fmt.Errorf("model: file has no backend payload")
	}
	if m.LM.VocabSize() != v.Size() {
		return nil, fmt.Errorf("model: vocabulary size %d does not match backend %d",
			v.Size(), m.LM.VocabSize())
	}
	return m, nil
}

// SaveFile writes the model to path.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("model: %w", err)
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a model from path.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	defer f.Close()
	return Load(f)
}
