package nn

import (
	"math"
	"math/rand"
)

// LSTM is a multi-layer Long Short-Term Memory character model with a
// softmax output layer, matching the architecture of §4.2 (the paper uses
// 3 layers of 2048 nodes; tests and laptop-scale training use smaller
// configurations of the same code).
type LSTM struct {
	Vocab  int
	Hidden int
	Layers int

	// Lineage is the content-hashed model identity (cache.Key over config +
	// corpus + seed, computed by internal/model) stamped into checkpoints so
	// journal events can link sampled kernels to the producing model. Gob
	// decodes checkpoints written before this field existed to "".
	Lineage string

	// Per layer: Wx (4H × input), Wh (4H × H), B (4H).
	Wx []*Mat
	Wh []*Mat
	B  [][]float64
	// Output projection: Wy (V × H), By (V).
	Wy *Mat
	By []float64
}

// NewLSTM builds a randomly initialized network.
func NewLSTM(vocab, hidden, layers int, rng *rand.Rand) *LSTM {
	m := &LSTM{Vocab: vocab, Hidden: hidden, Layers: layers}
	for l := 0; l < layers; l++ {
		in := hidden
		if l == 0 {
			in = vocab
		}
		scale := 1 / math.Sqrt(float64(in))
		m.Wx = append(m.Wx, NewMatRand(4*hidden, in, scale, rng))
		m.Wh = append(m.Wh, NewMatRand(4*hidden, hidden, 1/math.Sqrt(float64(hidden)), rng))
		b := make([]float64, 4*hidden)
		// Initialize forget-gate biases to 1, the standard trick for
		// gradient flow early in training.
		for i := hidden; i < 2*hidden; i++ {
			b[i] = 1
		}
		m.B = append(m.B, b)
	}
	m.Wy = NewMatRand(vocab, hidden, 1/math.Sqrt(float64(hidden)), rng)
	m.By = make([]float64, vocab)
	return m
}

// NumParams returns the total trainable parameter count.
func (m *LSTM) NumParams() int {
	n := len(m.Wy.W) + len(m.By)
	for l := 0; l < m.Layers; l++ {
		n += len(m.Wx[l].W) + len(m.Wh[l].W) + len(m.B[l])
	}
	return n
}

// State is the recurrent state (hidden and cell vectors per layer).
type State struct {
	H [][]float64
	C [][]float64
}

// ZeroState returns a fresh all-zero state.
func (m *LSTM) ZeroState() *State {
	s := &State{}
	for l := 0; l < m.Layers; l++ {
		s.H = append(s.H, make([]float64, m.Hidden))
		s.C = append(s.C, make([]float64, m.Hidden))
	}
	return s
}

// stepCache holds the intermediate activations of one timestep needed for
// backpropagation.
type stepCache struct {
	x      []float64   // input to layer 0 (one-hot)
	in     [][]float64 // input to each layer (x or lower h)
	hPrev  [][]float64
	cPrev  [][]float64
	i      [][]float64
	f      [][]float64
	o      [][]float64
	g      [][]float64
	c      [][]float64
	tanhC  [][]float64
	h      [][]float64
	logits []float64
}

// forward runs one timestep from st, mutating st and returning the cache.
// When collect is false the cache only carries logits.
func (m *LSTM) forward(x int, st *State, collect bool) *stepCache {
	H := m.Hidden
	cache := &stepCache{}
	xv := make([]float64, m.Vocab)
	xv[x] = 1
	cache.x = xv
	input := xv
	for l := 0; l < m.Layers; l++ {
		z := make([]float64, 4*H)
		m.Wx[l].MulVec(input, z)
		zh := make([]float64, 4*H)
		m.Wh[l].MulVec(st.H[l], zh)
		for i := range z {
			z[i] += zh[i] + m.B[l][i]
		}
		iv := make([]float64, H)
		fv := make([]float64, H)
		ov := make([]float64, H)
		gv := make([]float64, H)
		cv := make([]float64, H)
		tc := make([]float64, H)
		hv := make([]float64, H)
		for j := 0; j < H; j++ {
			iv[j] = sigmoid(z[j])
			fv[j] = sigmoid(z[H+j])
			ov[j] = sigmoid(z[2*H+j])
			gv[j] = math.Tanh(z[3*H+j])
			cv[j] = fv[j]*st.C[l][j] + iv[j]*gv[j]
			tc[j] = math.Tanh(cv[j])
			hv[j] = ov[j] * tc[j]
		}
		if collect {
			cache.in = append(cache.in, input)
			cache.hPrev = append(cache.hPrev, append([]float64(nil), st.H[l]...))
			cache.cPrev = append(cache.cPrev, append([]float64(nil), st.C[l]...))
			cache.i = append(cache.i, iv)
			cache.f = append(cache.f, fv)
			cache.o = append(cache.o, ov)
			cache.g = append(cache.g, gv)
			cache.c = append(cache.c, cv)
			cache.tanhC = append(cache.tanhC, tc)
			cache.h = append(cache.h, hv)
		}
		st.H[l] = hv
		st.C[l] = cv
		input = hv
	}
	logits := make([]float64, m.Vocab)
	m.Wy.MulVec(input, logits)
	for i := range logits {
		logits[i] += m.By[i]
	}
	cache.logits = logits
	return cache
}

// Step advances the model one character (inference only) and returns the
// next-character logits.
func (m *LSTM) Step(x int, st *State) []float64 {
	return m.forward(x, st, false).logits
}

// grads mirrors the parameter shapes.
type grads struct {
	Wx []*Mat
	Wh []*Mat
	B  [][]float64
	Wy *Mat
	By []float64
}

func (m *LSTM) newGrads() *grads {
	g := &grads{Wy: NewMat(m.Wy.R, m.Wy.C), By: make([]float64, len(m.By))}
	for l := 0; l < m.Layers; l++ {
		g.Wx = append(g.Wx, NewMat(m.Wx[l].R, m.Wx[l].C))
		g.Wh = append(g.Wh, NewMat(m.Wh[l].R, m.Wh[l].C))
		g.B = append(g.B, make([]float64, len(m.B[l])))
	}
	return g
}

// trainSequence runs forward + BPTT over one (input, target) sequence pair
// starting from st (which it advances), accumulating gradients into g and
// returning the summed cross-entropy loss.
func (m *LSTM) trainSequence(inputs, targets []int, st *State, g *grads) float64 {
	H := m.Hidden
	T := len(inputs)
	caches := make([]*stepCache, T)
	var loss float64
	probs := make([][]float64, T)
	for t := 0; t < T; t++ {
		caches[t] = m.forward(inputs[t], st, true)
		p := make([]float64, m.Vocab)
		Softmax(caches[t].logits, p, 1)
		probs[t] = p
		loss -= math.Log(math.Max(p[targets[t]], 1e-12))
	}

	dhNext := make([][]float64, m.Layers)
	dcNext := make([][]float64, m.Layers)
	for l := 0; l < m.Layers; l++ {
		dhNext[l] = make([]float64, H)
		dcNext[l] = make([]float64, H)
	}
	for t := T - 1; t >= 0; t-- {
		ca := caches[t]
		// Output layer.
		dlogits := append([]float64(nil), probs[t]...)
		dlogits[targets[t]] -= 1
		g.Wy.AddOuter(dlogits, ca.h[m.Layers-1])
		for i := range g.By {
			g.By[i] += dlogits[i]
		}
		dhTop := make([]float64, H)
		m.Wy.MulVecT(dlogits, dhTop)

		// Backward through layers, top to bottom.
		var dFromAbove []float64 = dhTop
		for l := m.Layers - 1; l >= 0; l-- {
			dh := make([]float64, H)
			copy(dh, dFromAbove)
			for j := 0; j < H; j++ {
				dh[j] += dhNext[l][j]
			}
			dc := make([]float64, H)
			copy(dc, dcNext[l])
			dz := make([]float64, 4*H)
			for j := 0; j < H; j++ {
				o := ca.o[l][j]
				tc := ca.tanhC[l][j]
				doj := dh[j] * tc
				dc[j] += dh[j] * o * (1 - tc*tc)
				ij := ca.i[l][j]
				fj := ca.f[l][j]
				gj := ca.g[l][j]
				dij := dc[j] * gj
				dfj := dc[j] * ca.cPrev[l][j]
				dgj := dc[j] * ij
				dcNext[l][j] = dc[j] * fj
				dz[j] = dij * ij * (1 - ij)
				dz[H+j] = dfj * fj * (1 - fj)
				dz[2*H+j] = doj * o * (1 - o)
				dz[3*H+j] = dgj * (1 - gj*gj)
			}
			g.Wx[l].AddOuter(dz, ca.in[l])
			g.Wh[l].AddOuter(dz, ca.hPrev[l])
			for i := range dz {
				g.B[l][i] += dz[i]
			}
			dhPrev := make([]float64, H)
			m.Wh[l].MulVecT(dz, dhPrev)
			dhNext[l] = dhPrev
			if l > 0 {
				dx := make([]float64, H)
				m.Wx[l].MulVecT(dz, dx)
				dFromAbove = dx
			}
		}
	}
	return loss
}

// applySGD performs one clipped SGD update with the given learning rate,
// scaling gradients by 1/steps. It returns the number of gradient elements
// the clip bound touched and the total updated, so the training loop can
// report a per-epoch grad-clip rate.
func (m *LSTM) applySGD(g *grads, lr float64, clip float64, steps int) (clipped, total int) {
	scale := 1 / float64(max(steps, 1))
	upd := func(p, gr []float64) {
		for i := range gr {
			gr[i] *= scale
		}
		clipped += clipInPlace(gr, clip)
		total += len(gr)
		for i := range p {
			p[i] -= lr * gr[i]
		}
	}
	for l := 0; l < m.Layers; l++ {
		upd(m.Wx[l].W, g.Wx[l].W)
		upd(m.Wh[l].W, g.Wh[l].W)
		upd(m.B[l], g.B[l])
	}
	upd(m.Wy.W, g.Wy.W)
	upd(m.By, g.By)
	return clipped, total
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
