package journal

import "clgen/internal/perf"

// The funnel's metrics are named "<subject> <measure>". Four measures
// cover them, each gated by its own rule (see Rules):
const (
	countMeasure   = "count"    // artifacts; fewer is worse
	failureMeasure = "failures" // rejections, failed loads, overruns; more is worse
	pctMeasure     = "pct"      // rates in percent; lower is worse
	msMeasure      = "ms"       // modeled runtime means; higher is worse
)

// BuildRecord turns a journal's funnel into a run-history record, so
// two journals are compared by perf.Diff. Every fixed funnel metric is
// recorded, zeros included: perf.Diff gates only the metrics of the
// newest record, so a count that falls to zero must be there to regress.
// Runtime means are recorded per system and per suite the journal
// measured. The record has no machine stamp or time: a journal's funnel
// is a deterministic function of the run's seed and options.
func BuildRecord(events []Event) perf.Record {
	f := Funnel(events)
	m := map[string]float64{}
	count := func(name string, n int) { m[name+" "+countMeasure] = float64(n) }
	failures := func(name string, n int) { m[name+" "+failureMeasure] = float64(n) }
	pct := func(name string, rate float64) { m[name+" "+pctMeasure] = rate * 100 }

	count("corpus mined", f.Mined)
	count("corpus accepted", f.CorpusAccepted)
	pct("corpus accepted", 1-f.CorpusDiscardRate())
	count("rewritten units", f.RewrittenUnits)
	count("rewritten kernels", f.RewrittenKernels)
	count("trained epochs", f.TrainedEpochs)
	count("samples drawn", f.Sampled)
	count("samples accepted", f.SampleAccepted)
	pct("samples accepted", f.SampleAcceptRate())
	count("static analyzed", f.StaticChecked)
	failures("static filter", f.StaticRejected)
	count("feature kernels", f.FeatureKernels)
	pct("feature agreement", f.FeatureAgreementRate())
	count("driver loads", f.Loads)
	failures("driver load", f.LoadFailures)
	count("footprint kernels", f.FootprintKernels)
	count("footprint rescued", f.FootprintRescued)
	failures("footprint overrun", f.FootprintOverrun)
	count("checker checks", f.Checks)
	count("checker useful work", f.Verdicts["useful work"])
	pct("checker useful work", f.UsefulRate())
	count("measurements", f.Measured)
	count("predictions", f.Predictions)
	pct("prediction accuracy", f.PredictionAccuracy())
	for name, s := range f.Systems {
		m["runtime "+name+" cpu mean "+msMeasure] = s.MeanCPU()
		m["runtime "+name+" gpu mean "+msMeasure] = s.MeanGPU()
	}
	for name, s := range f.Suites {
		m["suite "+name+" best mean "+msMeasure] = s.MeanBest()
	}
	return perf.Record{Component: "journal", Metrics: m}
}

// Rules gates a journal record against its baseline: counts, failures
// and runtime means by more than thresholdPct percent in their bad
// direction, rates by a drop of more than thresholdPct percentage points.
func Rules(thresholdPct float64) map[string]perf.Rule {
	return map[string]perf.Rule{
		countMeasure:   {LowerIsWorse: true, RelPct: thresholdPct},
		failureMeasure: {RelPct: thresholdPct},
		pctMeasure:     {LowerIsWorse: true, Abs: thresholdPct},
		msMeasure:      {RelPct: thresholdPct},
	}
}
