// Package grewe reproduces the Grewe, Wang, and O'Boyle CGO'13 predictive
// model (§7.1 of the paper): a decision tree that maps an OpenCL kernel to
// CPU or GPU from static and dynamic code features. Two feature sets are
// supported — the original four combined features of Table 2b, and the
// §8.2 extension (combined + raw features + the static branch counter) —
// plus the paper's leave-one-benchmark-out evaluation methodology and its
// performance metrics.
package grewe

import (
	"fmt"
	"math"
	"sort"

	"clgen/internal/driver"
	"clgen/internal/features"
	"clgen/internal/ml"
	"clgen/internal/platform"
)

// FeatureSet selects the model input representation.
type FeatureSet int

// Feature sets.
const (
	// Combined is the original Grewe et al. model: F1–F4 only.
	Combined FeatureSet = iota
	// Extended is the §8.2 repair: combined + raw features + branches.
	Extended
)

// Vector renders a measurement's features under the set. Exported so the
// prediction audit trail (internal/mlobs) can journal the exact inputs a
// prediction was made from.
func (fs FeatureSet) Vector(v features.Vector) []float64 {
	if fs == Combined {
		return v.Combined()
	}
	return v.Extended()
}

// Observation is one training/evaluation point: a benchmark identity (the
// LOOCV grouping key) and its measurement.
type Observation struct {
	Bench string // e.g. "NPB.FT" — one benchmark spans several datasets
	// ID is the kernel's content-hashed journal identity, linking predicted
	// events back to the artifact's pipeline provenance. Optional: fabricated
	// test observations leave it empty.
	ID string
	M  *driver.Measurement
}

// Model is a trained device-mapping predictor.
type Model struct {
	FS   FeatureSet
	tree *ml.Tree
}

// Train fits the decision tree on observations.
func Train(obs []*Observation, fs FeatureSet) (*Model, error) {
	if len(obs) == 0 {
		return nil, fmt.Errorf("grewe: no training observations")
	}
	X := make([][]float64, len(obs))
	y := make([]int, len(obs))
	for i, o := range obs {
		X[i] = fs.Vector(o.M.Vector)
		y[i] = int(o.M.Oracle)
	}
	tree, err := ml.TrainTree(X, y, ml.TreeConfig{MaxDepth: 10, MinSamples: 2})
	if err != nil {
		return nil, fmt.Errorf("grewe: %w", err)
	}
	return &Model{FS: fs, tree: tree}, nil
}

// Predict maps a feature vector to a device.
func (m *Model) Predict(v features.Vector) platform.DeviceType {
	return platform.DeviceType(m.tree.Predict(m.FS.Vector(v)))
}

// Prediction is one evaluated test point.
type Prediction struct {
	Obs       *Observation
	Predicted platform.DeviceType
	// Fold names the cross-validation fold that produced the prediction:
	// the held-out benchmark under CrossValidate, "" under plain TrainTest
	// (Table 1's driver labels those with the test suite instead).
	Fold string
}

// Correct reports whether the prediction matched the oracle.
func (p Prediction) Correct() bool { return p.Predicted == p.Obs.M.Oracle }

// PredictedTime returns the runtime under the predicted mapping.
func (p Prediction) PredictedTime() float64 { return p.Obs.M.TimeOn(p.Predicted) }

// OracleTime returns the runtime under the oracle mapping.
func (p Prediction) OracleTime() float64 { return p.Obs.M.TimeOn(p.Obs.M.Oracle) }

// CrossValidate performs the paper's leave-one-benchmark-out evaluation:
// for each distinct benchmark, a model is trained on every other
// benchmark's observations plus the (optional) synthetic observations, and
// used to predict all datasets of the held-out benchmark. Synthetic
// observations are never tested on (§7.2).
func CrossValidate(obs []*Observation, synthetic []*Observation, fs FeatureSet) ([]Prediction, error) {
	benches := map[string]bool{}
	for _, o := range obs {
		benches[o.Bench] = true
	}
	var names []string
	for b := range benches {
		names = append(names, b)
	}
	sort.Strings(names)
	var preds []Prediction
	for _, held := range names {
		var train []*Observation
		for _, o := range obs {
			if o.Bench != held {
				train = append(train, o)
			}
		}
		train = append(train, synthetic...)
		m, err := Train(train, fs)
		if err != nil {
			return nil, fmt.Errorf("grewe: holding out %s: %w", held, err)
		}
		for _, o := range obs {
			if o.Bench == held {
				preds = append(preds, Prediction{Obs: o, Predicted: m.Predict(o.M.Vector), Fold: held})
			}
		}
	}
	return preds, nil
}

// TrainTest trains on one observation set and evaluates on another
// (Table 1's cross-suite grid).
func TrainTest(train, test []*Observation, fs FeatureSet) ([]Prediction, error) {
	m, err := Train(train, fs)
	if err != nil {
		return nil, err
	}
	preds := make([]Prediction, len(test))
	for i, o := range test {
		preds[i] = Prediction{Obs: o, Predicted: m.Predict(o.M.Vector)}
	}
	return preds, nil
}

// Accuracy is the fraction of correct device mappings.
func Accuracy(preds []Prediction) float64 {
	if len(preds) == 0 {
		return 0
	}
	n := 0
	for _, p := range preds {
		if p.Correct() {
			n++
		}
	}
	return float64(n) / float64(len(preds))
}

// PerfVsOracle is Table 1's metric: the mean of t_oracle / t_predicted —
// the achieved fraction of optimal performance. Observations with a
// non-positive predicted-mapping runtime are skipped: a degenerate
// measurement must degrade the metric's sample count, not poison the whole
// mean with NaN/Inf.
func PerfVsOracle(preds []Prediction) float64 {
	var s float64
	n := 0
	for _, p := range preds {
		if p.PredictedTime() <= 0 {
			continue
		}
		s += p.OracleTime() / p.PredictedTime()
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// SpeedupOver returns the geometric-mean speedup of the predicted mapping
// over always using the given static device (Figures 7 and 8 report
// speedups over the best single-device mapping). Observations whose
// predicted or baseline runtime is non-positive are skipped — math.Log
// would otherwise fold a ±Inf or NaN into the geomean.
func SpeedupOver(preds []Prediction, static platform.DeviceType) float64 {
	var logSum float64
	n := 0
	for _, p := range preds {
		base, pred := p.Obs.M.TimeOn(static), p.PredictedTime()
		if base <= 0 || pred <= 0 {
			continue
		}
		logSum += math.Log(base / pred)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// PerBenchmarkSpeedups aggregates speedups over the static baseline per
// observation (benchmark × dataset), preserving input order. A degenerate
// observation (non-positive predicted runtime) reports speedup 0 rather
// than NaN/Inf, keeping downstream renderers and gates finite.
func PerBenchmarkSpeedups(preds []Prediction, static platform.DeviceType) []BenchSpeedup {
	out := make([]BenchSpeedup, len(preds))
	for i, p := range preds {
		speedup := 0.0
		if pt := p.PredictedTime(); pt > 0 {
			speedup = p.Obs.M.TimeOn(static) / pt
		}
		out[i] = BenchSpeedup{
			Name:    p.Obs.M.Kernel,
			Speedup: speedup,
			Correct: p.Correct(),
		}
	}
	return out
}

// BenchSpeedup is one bar of Figure 7/8.
type BenchSpeedup struct {
	Name    string
	Speedup float64
	Correct bool
}

// BestStaticDevice returns the single device that minimizes total runtime
// over the observations — the paper's per-platform baseline (CPU-only on
// the AMD system, GPU-only on NVIDIA).
func BestStaticDevice(obs []*Observation) platform.DeviceType {
	var cpu, gpu float64
	for _, o := range obs {
		cpu += o.M.CPUTime
		gpu += o.M.GPUTime
	}
	if cpu <= gpu {
		return platform.CPU
	}
	return platform.GPU
}
