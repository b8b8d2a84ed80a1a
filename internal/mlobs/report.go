package mlobs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"clgen/internal/journal"
	"clgen/internal/perf"
	"clgen/internal/telemetry"
)

// EpochPoint is one point of a training curve.
type EpochPoint struct {
	Epoch    int     `json:"epoch"`
	Loss     float64 `json:"loss"`
	ClipRate float64 `json:"clip_rate,omitempty"`
	// TokensPerSec and CPUSeconds are run-varying throughput/cost figures;
	// they render in reports but are zeroed under journal.Equivalent.
	TokensPerSec float64 `json:"tokens_per_sec,omitempty"`
	CPUSeconds   float64 `json:"cpu_s,omitempty"`
}

// TrainingCurve is one model's per-epoch loss trajectory, keyed by its
// content-hashed lineage ID.
type TrainingCurve struct {
	Model   string       `json:"model"`
	Backend string       `json:"backend"`
	Epochs  []EpochPoint `json:"epochs"`
}

// FinalLoss returns the last epoch's loss (0 for an empty curve).
func (c TrainingCurve) FinalLoss() float64 {
	if len(c.Epochs) == 0 {
		return 0
	}
	return c.Epochs[len(c.Epochs)-1].Loss
}

// FoldStats counts one cross-validation fold's predictions.
type FoldStats struct {
	N       int `json:"n"`
	Correct int `json:"correct"`
}

// EvalSummary aggregates the predicted events of one
// (experiment, system, variant) evaluation.
type EvalSummary struct {
	Experiment string `json:"experiment"`
	System     string `json:"system"`
	Variant    string `json:"variant"`
	Baseline   string `json:"baseline,omitempty"`
	N          int    `json:"n"`
	Correct    int    `json:"correct"`
	// Accuracy is Correct/N; GeomeanSpeedup the geometric mean of the
	// per-prediction speedups over the static baseline (events with a
	// degenerate zero speedup are excluded, matching grewe.SpeedupOver).
	Accuracy       float64 `json:"accuracy"`
	GeomeanSpeedup float64 `json:"geomean_speedup,omitempty"`
	// Confusion maps "predicted->oracle" device pairs to counts.
	Confusion map[string]int `json:"confusion,omitempty"`
	// Folds maps fold name (the held-out benchmark) to its tally.
	Folds map[string]*FoldStats `json:"folds,omitempty"`
}

// Key identifies the evaluation a summary belongs to.
func (s *EvalSummary) Key() string {
	return s.Experiment + " / " + s.System + " / " + s.Variant
}

// ModelReport is the learning-loop view of one journal: training curves
// from trained events and evaluation summaries from predicted events.
type ModelReport struct {
	Curves []TrainingCurve `json:"curves,omitempty"`
	Evals  []EvalSummary   `json:"evals,omitempty"`
}

// Report aggregates a journal's trained and predicted events. Curves are
// ordered by first appearance (training order); evaluations sort by key
// so the report is deterministic whatever the journal's stage interleave.
func Report(events []journal.Event) *ModelReport {
	r := &ModelReport{}
	curveIdx := map[string]int{}
	evalIdx := map[string]int{}
	var speedupLogs []([]float64) // parallel to r.Evals
	for _, e := range events {
		switch e.Stage {
		case journal.StageTrained:
			i, ok := curveIdx[e.Model]
			if !ok {
				i = len(r.Curves)
				curveIdx[e.Model] = i
				r.Curves = append(r.Curves, TrainingCurve{Model: e.Model, Backend: e.Variant})
			}
			r.Curves[i].Epochs = append(r.Curves[i].Epochs, EpochPoint{
				Epoch: e.Epoch, Loss: e.Loss, ClipRate: e.ClipRate,
				TokensPerSec: e.TokensPerSec, CPUSeconds: e.CPUSeconds,
			})
		case journal.StagePredicted:
			key := e.Experiment + "\x00" + e.System + "\x00" + e.Variant
			i, ok := evalIdx[key]
			if !ok {
				i = len(r.Evals)
				evalIdx[key] = i
				r.Evals = append(r.Evals, EvalSummary{
					Experiment: e.Experiment, System: e.System, Variant: e.Variant,
					Baseline:  e.Baseline,
					Confusion: map[string]int{},
					Folds:     map[string]*FoldStats{},
				})
				speedupLogs = append(speedupLogs, nil)
			}
			s := &r.Evals[i]
			s.N++
			if e.Predicted == e.Oracle {
				s.Correct++
			}
			s.Confusion[e.Predicted+"->"+e.Oracle]++
			if e.Fold != "" {
				fs := s.Folds[e.Fold]
				if fs == nil {
					fs = &FoldStats{}
					s.Folds[e.Fold] = fs
				}
				fs.N++
				if e.Predicted == e.Oracle {
					fs.Correct++
				}
			}
			if e.Speedup > 0 {
				speedupLogs[i] = append(speedupLogs[i], math.Log(e.Speedup))
			}
		}
	}
	for i := range r.Evals {
		s := &r.Evals[i]
		if s.N > 0 {
			s.Accuracy = float64(s.Correct) / float64(s.N)
		}
		if logs := speedupLogs[i]; len(logs) > 0 {
			var sum float64
			for _, l := range logs {
				sum += l
			}
			s.GeomeanSpeedup = math.Exp(sum / float64(len(logs)))
		}
	}
	sort.SliceStable(r.Evals, func(i, j int) bool { return r.Evals[i].Key() < r.Evals[j].Key() })
	return r
}

// Render formats the report: one block per training curve, one per
// evaluation with its confusion matrix and per-fold accuracy.
func (r *ModelReport) Render() string {
	var b strings.Builder
	b.WriteString("model observability report\n")
	if len(r.Curves) == 0 && len(r.Evals) == 0 {
		b.WriteString("  (journal has no trained or predicted events)\n")
		return b.String()
	}
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "training %s backend=%s epochs=%d final loss=%.4f (ppl %.2f)\n",
			c.Model, c.Backend, len(c.Epochs), c.FinalLoss(), math.Exp(c.FinalLoss()))
		for _, p := range c.Epochs {
			fmt.Fprintf(&b, "  epoch %3d  loss %8.4f", p.Epoch, p.Loss)
			if p.ClipRate > 0 {
				fmt.Fprintf(&b, "  clip %5.1f%%", p.ClipRate*100)
			}
			if p.TokensPerSec > 0 {
				fmt.Fprintf(&b, "  %8.0f tok/s", p.TokensPerSec)
			}
			if p.CPUSeconds > 0 {
				fmt.Fprintf(&b, "  cpu %6.2fs", p.CPUSeconds)
			}
			b.WriteString("\n")
		}
	}
	for i := range r.Evals {
		s := &r.Evals[i]
		fmt.Fprintf(&b, "eval %s: accuracy %.1f%% (%d/%d)", s.Key(), s.Accuracy*100, s.Correct, s.N)
		if s.GeomeanSpeedup > 0 {
			fmt.Fprintf(&b, ", geomean speedup %.2fx vs %s", s.GeomeanSpeedup, s.Baseline)
		}
		b.WriteString("\n")
		renderConfusion(&b, s.Confusion)
		if len(s.Folds) > 0 {
			names := make([]string, 0, len(s.Folds))
			for f := range s.Folds {
				names = append(names, f)
			}
			sort.Strings(names)
			b.WriteString("  folds:")
			for _, f := range names {
				fs := s.Folds[f]
				fmt.Fprintf(&b, " %s=%d/%d", f, fs.Correct, fs.N)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// renderConfusion prints the 2×2 device confusion matrix (rows predicted,
// columns oracle). Devices beyond CPU/GPU would simply add rows/columns.
func renderConfusion(b *strings.Builder, conf map[string]int) {
	if len(conf) == 0 {
		return
	}
	devSet := map[string]bool{}
	for k := range conf {
		if i := strings.Index(k, "->"); i >= 0 {
			devSet[k[:i]] = true
			devSet[k[i+2:]] = true
		}
	}
	devs := make([]string, 0, len(devSet))
	for d := range devSet {
		devs = append(devs, d)
	}
	sort.Strings(devs)
	fmt.Fprintf(b, "  confusion (pred\\oracle)")
	for _, o := range devs {
		fmt.Fprintf(b, " %6s", o)
	}
	b.WriteString("\n")
	for _, p := range devs {
		fmt.Fprintf(b, "  %22s", p)
		for _, o := range devs {
			fmt.Fprintf(b, " %6d", conf[p+"->"+o])
		}
		b.WriteString("\n")
	}
}

// Gate defaults for `cltrace model diff`. The evaluations are
// deterministic for a fixed seed, so identical-seed reruns always gate
// clean; the tolerances absorb intentional small shifts (corpus-
// composition changes from upstream PRs) while catching real model
// regressions.
const (
	// DefaultAccuracyPP is the accuracy drop, in percentage points, that
	// fails the gate.
	DefaultAccuracyPP = 2.0
	// DefaultSpeedupPct is the relative geomean-speedup drop, in percent,
	// that fails the gate.
	DefaultSpeedupPct = 5.0
)

// BuildRecord turns a journal's evaluations into a run-history record
// stamped with the current machine: per evaluation, "<key> accuracy" in
// percent and, when its events carry speedups, "<key> speedup", the
// geomean speedup over the static baseline.
func BuildRecord(events []journal.Event, gitRev string) perf.Record {
	rec := perf.Record{
		Time:      time.Now(),
		Component: "model",
		GitRev:    gitRev,
		Env:       telemetry.Env(),
		Metrics:   map[string]float64{},
	}
	for _, s := range Report(events).Evals {
		rec.Metrics[s.Key()+" accuracy"] = s.Accuracy * 100
		if s.GeomeanSpeedup > 0 {
			rec.Metrics[s.Key()+" speedup"] = s.GeomeanSpeedup
		}
	}
	return rec
}

// Rules gates an evaluation when its accuracy drops by more than
// accuracyPP percentage points or its geomean speedup by more than
// speedupPct percent.
func Rules(accuracyPP, speedupPct float64) map[string]perf.Rule {
	return map[string]perf.Rule{
		"accuracy": {LowerIsWorse: true, Abs: accuracyPP},
		"speedup":  {LowerIsWorse: true, RelPct: speedupPct},
	}
}
