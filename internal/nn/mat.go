// Package nn is a from-scratch neural-network stack sufficient to train
// and sample character-level language models: dense matrices, multi-layer
// LSTM networks with truncated backpropagation through time, SGD with
// gradient clipping and step decay, temperature sampling, and gob
// serialization. It stands in for the paper's Torch implementation (§4.2).
//
// A high-order smoothed character n-gram model (ngram.go) provides a second
// backend behind the same sampling interface; it substitutes for the fully
// converged 3-week LSTM in large-scale experiments.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Mat is a dense row-major matrix.
type Mat struct {
	R, C int
	W    []float64
}

// NewMat allocates a zero matrix.
func NewMat(r, c int) *Mat {
	return &Mat{R: r, C: c, W: make([]float64, r*c)}
}

// NewMatRand allocates a matrix with uniform random weights in
// [-scale, scale].
func NewMatRand(r, c int, scale float64, rng *rand.Rand) *Mat {
	m := NewMat(r, c)
	for i := range m.W {
		m.W[i] = (rng.Float64()*2 - 1) * scale
	}
	return m
}

// Row returns a slice aliasing row i.
func (m *Mat) Row(i int) []float64 { return m.W[i*m.C : (i+1)*m.C] }

// MulVec computes out = m · x.
func (m *Mat) MulVec(x, out []float64) {
	if len(x) != m.C || len(out) != m.R {
		panic(fmt.Sprintf("nn: MulVec dims %dx%d · %d -> %d", m.R, m.C, len(x), len(out)))
	}
	for i := 0; i < m.R; i++ {
		row := m.Row(i)
		var s float64
		for j, xj := range x {
			s += row[j] * xj
		}
		out[i] = s
	}
}

// MulVecT computes out = mᵀ · x (accumulating into out).
func (m *Mat) MulVecT(x, out []float64) {
	if len(x) != m.R || len(out) != m.C {
		panic(fmt.Sprintf("nn: MulVecT dims %dx%dᵀ · %d -> %d", m.R, m.C, len(x), len(out)))
	}
	for i := 0; i < m.R; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Row(i)
		for j := range row {
			out[j] += row[j] * xi
		}
	}
}

// AddOuter accumulates m += a ⊗ b.
func (m *Mat) AddOuter(a, b []float64) {
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		row := m.Row(i)
		for j, bj := range b {
			row[j] += ai * bj
		}
	}
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Softmax writes the softmax of logits (scaled by 1/temperature) into out
// and returns out. temperature <= 0 is treated as 1.
func Softmax(logits, out []float64, temperature float64) []float64 {
	if temperature <= 0 {
		temperature = 1
	}
	maxv := math.Inf(-1)
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp((v - maxv) / temperature)
		out[i] = e
		sum += e
	}
	if sum == 0 {
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// SampleDist draws an index from a probability distribution.
func SampleDist(probs []float64, rng *rand.Rand) int {
	r := rng.Float64()
	var c float64
	for i, p := range probs {
		c += p
		if r < c {
			return i
		}
	}
	return len(probs) - 1
}

// clipInPlace clips every gradient element to [-clip, clip] and returns
// how many elements were clipped (the training loop's grad-clip rate).
func clipInPlace(g []float64, clip float64) int {
	clipped := 0
	for i, v := range g {
		if v > clip {
			g[i] = clip
			clipped++
		} else if v < -clip {
			g[i] = -clip
			clipped++
		}
	}
	return clipped
}
