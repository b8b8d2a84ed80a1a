// Package mlobs is the learning-loop observability layer: it closes the
// last unobserved stages of the reproduction by journaling the model side
// of the pipeline the same way internal/journal traces kernel artifacts.
//
// Three concerns live here:
//
//   - the prediction audit trail: every grewe.Prediction an experiment
//     evaluates is journaled as one predicted event carrying the fold,
//     benchmark, feature vector, predicted-vs-oracle device, and speedup
//     over the static baseline (EmitPredictions);
//   - evaluation reporting: Report aggregates a journal's trained and
//     predicted events into training curves, per-suite confusion
//     matrices, and accuracy/speedup tables (`cltrace model report`);
//   - regression gating: BuildRecord turns the evaluations into metrics
//     of internal/perf's run history, and Rules gates them there
//     (`cltrace model record` / `cltrace model diff`).
//
// Training-side events (the per-epoch trained stream with model lineage
// IDs) are emitted by internal/nn and internal/model directly — mlobs
// only consumes them. The split avoids an import cycle: nn cannot import
// a package that imports grewe, which transitively needs driver features.
package mlobs

import (
	"clgen/internal/grewe"
	"clgen/internal/journal"
	"clgen/internal/platform"
	"clgen/internal/telemetry"
)

// EmitPredictions journals one predicted event per prediction, in input
// order (callers evaluate folds serially, so the stream is deterministic
// for every worker count). experiment/system/variant locate the run
// ("figure7", "AMD Tahiti 7970", "grewe+clgen"); static is the single-
// device baseline speedups are computed against.
//
// The CLGEN_FAULT_LABEL_FLIP fixture falsifies the journaled predicted
// device only — the in-memory predictions, figures, and tables are
// untouched — so the model-smoke gate can prove `cltrace model diff`
// trips on an accuracy collapse without building a genuinely bad model.
func EmitPredictions(experiment, system, variant string, static platform.DeviceType,
	preds []grewe.Prediction, fs grewe.FeatureSet) {
	reg := telemetry.Default()
	correct := 0
	for _, p := range preds {
		if p.Correct() {
			correct++
		}
	}
	reg.Counter("ml_predictions_total", "Device-mapping predictions evaluated.").
		Add(int64(len(preds)))
	reg.Counter("ml_predictions_correct_total", "Predictions matching the oracle device.").
		Add(int64(correct))
	if !journal.Enabled() {
		return
	}
	flip := telemetry.FaultLabelFlip()
	for _, p := range preds {
		predicted := p.Predicted
		if flip {
			predicted = flipDevice(predicted)
		}
		ev := journal.Event{
			ID:         obsID(system, p.Obs),
			Stage:      journal.StagePredicted,
			Experiment: experiment,
			System:     system,
			Variant:    variant,
			Fold:       p.Fold,
			Suite:      p.Obs.Bench,
			Kernel:     p.Obs.M.Kernel,
			Features:   fs.Vector(p.Obs.M.Vector),
			Predicted:  predicted.String(),
			Oracle:     p.Obs.M.Oracle.String(),
			Baseline:   static.String(),
		}
		if pt := p.PredictedTime(); pt > 0 {
			if base := p.Obs.M.TimeOn(static); base > 0 {
				ev.Speedup = base / pt
			}
		}
		journal.Emit(ev)
	}
}

// obsID returns the observation's content-hashed journal identity,
// falling back to a hash of its coordinates for observations (synthetic
// test fixtures, pre-ID worlds) that never carried one.
func obsID(system string, o *grewe.Observation) string {
	if o.ID != "" {
		return o.ID
	}
	return journal.ID(system + "/" + o.Bench + "/" + o.M.Kernel)
}

func flipDevice(d platform.DeviceType) platform.DeviceType {
	if d == platform.CPU {
		return platform.GPU
	}
	return platform.CPU
}
