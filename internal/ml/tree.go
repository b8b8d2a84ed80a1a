// Package ml provides the machine-learning primitives of the paper's
// methodology: a CART decision-tree classifier (the Grewe et al. model is
// "a decision tree constructed with supervised learning"), principal
// component analysis for the Figure 3 feature-space projections, and
// evaluation helpers.
package ml

import (
	"fmt"
	"sort"
)

// TreeConfig controls decision-tree induction.
type TreeConfig struct {
	MaxDepth   int // default 12
	MinSamples int // minimum samples to attempt a split; default 2
}

func (c *TreeConfig) defaults() {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 12
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 2
	}
}

// Tree is a trained CART classifier.
type Tree struct {
	root *node
	// NumFeatures is the expected input width.
	NumFeatures int
}

type node struct {
	leaf      bool
	label     int
	feature   int
	threshold float64
	left      *node // feature <= threshold
	right     *node // feature > threshold
}

// TrainTree fits a CART decision tree with Gini-impurity splits.
func TrainTree(X [][]float64, y []int, cfg TreeConfig) (*Tree, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, fmt.Errorf("ml: bad training set: %d samples, %d labels", len(X), len(y))
	}
	width := len(X[0])
	for i, x := range X {
		if len(x) != width {
			return nil, fmt.Errorf("ml: sample %d has width %d, want %d", i, len(x), width)
		}
	}
	cfg.defaults()
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	t := &Tree{NumFeatures: width}
	t.root = build(X, y, idx, cfg, 0)
	return t, nil
}

// Predict classifies one sample.
func (t *Tree) Predict(x []float64) int {
	n := t.root
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.label
}

// Depth returns the tree height (diagnostics).
func (t *Tree) Depth() int { return depth(t.root) }

func depth(n *node) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := depth(n.left), depth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

func build(X [][]float64, y []int, idx []int, cfg TreeConfig, d int) *node {
	maj, pure := majority(y, idx)
	if pure || d >= cfg.MaxDepth || len(idx) < cfg.MinSamples {
		return &node{leaf: true, label: maj}
	}
	feat, thr, ok := bestSplit(X, y, idx)
	if !ok {
		return &node{leaf: true, label: maj}
	}
	var li, ri []int
	for _, i := range idx {
		if X[i][feat] <= thr {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return &node{leaf: true, label: maj}
	}
	return &node{
		feature:   feat,
		threshold: thr,
		left:      build(X, y, li, cfg, d+1),
		right:     build(X, y, ri, cfg, d+1),
	}
}

// majority returns the most common label and whether the set is pure.
// Ties break toward the smaller label for determinism.
func majority(y []int, idx []int) (int, bool) {
	counts := map[int]int{}
	for _, i := range idx {
		counts[y[i]]++
	}
	best, bestN := 0, -1
	var labels []int
	for l := range counts {
		labels = append(labels, l)
	}
	sort.Ints(labels)
	for _, l := range labels {
		if counts[l] > bestN {
			best, bestN = l, counts[l]
		}
	}
	return best, len(counts) == 1
}

// bestSplit searches every feature for the Gini-optimal threshold.
func bestSplit(X [][]float64, y []int, idx []int) (feat int, thr float64, ok bool) {
	bestGini := 2.0
	width := len(X[idx[0]])
	vals := make([]float64, 0, len(idx))
	for f := 0; f < width; f++ {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, X[i][f])
		}
		sort.Float64s(vals)
		for v := 1; v < len(vals); v++ {
			if vals[v] == vals[v-1] {
				continue
			}
			t := (vals[v] + vals[v-1]) / 2
			g := splitGini(X, y, idx, f, t)
			if g < bestGini-1e-12 {
				bestGini, feat, thr, ok = g, f, t, true
			}
		}
	}
	return feat, thr, ok
}

// splitGini computes the weighted Gini impurity of a candidate split.
func splitGini(X [][]float64, y []int, idx []int, f int, t float64) float64 {
	lc := map[int]int{}
	rc := map[int]int{}
	ln, rn := 0, 0
	for _, i := range idx {
		if X[i][f] <= t {
			lc[y[i]]++
			ln++
		} else {
			rc[y[i]]++
			rn++
		}
	}
	gini := func(c map[int]int, n int) float64 {
		if n == 0 {
			return 0
		}
		g := 1.0
		for _, k := range c {
			p := float64(k) / float64(n)
			g -= p * p
		}
		return g
	}
	n := float64(ln + rn)
	return float64(ln)/n*gini(lc, ln) + float64(rn)/n*gini(rc, rn)
}

// Accuracy returns the fraction of correct predictions.
func (t *Tree) Accuracy(X [][]float64, y []int) float64 {
	if len(X) == 0 {
		return 0
	}
	correct := 0
	for i, x := range X {
		if t.Predict(x) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(X))
}
