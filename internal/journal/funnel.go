package journal

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// SystemStats aggregates the measured events of one system.
type SystemStats struct {
	Count int
	CPUms float64 // sum of modeled CPU runtimes
	GPUms float64 // sum of modeled GPU runtimes
}

// MeanCPU returns the mean modeled CPU runtime in ms.
func (s SystemStats) MeanCPU() float64 { return mean(s.CPUms, s.Count) }

// MeanGPU returns the mean modeled GPU runtime in ms.
func (s SystemStats) MeanGPU() float64 { return mean(s.GPUms, s.Count) }

func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// SuiteStats aggregates the measured events of one suite: Bestms sums the
// faster device's modeled runtime per measurement (the oracle runtime).
type SuiteStats struct {
	Count  int
	Bestms float64
}

// MeanBest returns the mean oracle (faster-device) runtime in ms.
func (s SuiteStats) MeanBest() float64 { return mean(s.Bestms, s.Count) }

// CheckCost sums the checked events of one checker verdict or run-failure
// class: the checks, the interpreter steps they consumed and their wall
// time in ms.
type CheckCost struct {
	Checks int
	Steps  int64
	WallMS float64
}

func (c *CheckCost) add(e Event) {
	c.Checks++
	c.Steps += e.Steps
	c.WallMS += e.DurMS
}

// LatencyStats summarizes the wall durations of one stage, in ms.
type LatencyStats struct {
	Count         int
	P50, P90, P99 float64
}

// FunnelReport aggregates one journal into the paper's funnel statistics:
// the §4.1 corpus discard breakdown, the §4.3 sample acceptance rate, and
// the §5.2 dynamic-checker outcome breakdown, plus per-stage latency
// percentiles from event durations.
type FunnelReport struct {
	Mined            int
	CorpusAccepted   int
	CorpusReasons    map[string]int // rejection reason -> count
	ShimRecovered    int
	RewrittenUnits   int
	RewrittenKernels int

	Sampled          int
	SampleAccepted   int
	SampleDuplicates int
	SampleReasons    map[string]int // rejection reason -> count (no duplicates)

	StaticChecked  int
	StaticRejected int
	StaticReasons  map[string]int // "static: <lint>" -> count

	// FeatureKernels counts features events (one per filtered kernel under
	// -precise-features); FeatureExact counts, per feature name, the events
	// whose heuristic and precise values agree exactly; FeatureDelta sums
	// their absolute differences; FeatureAllExact counts events whose whole
	// vectors match.
	FeatureKernels  int
	FeatureExact    map[string]int
	FeatureDelta    map[string]float64
	FeatureAllExact int
	// Agreement tabulates the static analyzer's §5.2 forecast against the
	// dynamic checker's verdict, per (predicted, actual) pair. Kernels the
	// checker never ran (rejected by the strict filter, or the run stopped
	// first) appear under the actual value "(not run)"; an empty
	// prediction renders as "pass".
	Agreement map[AgreementCell]int

	Loads        int
	LoadFailures int
	Checks       int
	Verdicts     map[string]int // checker verdict -> count
	// VerdictCost and ClassCost attribute the checks' steps and wall time
	// to their verdicts and to the failure classes of run failures.
	VerdictCost map[string]*CheckCost
	ClassCost   map[string]*CheckCost

	Measured int
	Systems  map[string]*SystemStats
	Suites   map[string]*SuiteStats

	// TrainedEpochs counts trained events; TrainedModels counts distinct
	// model lineage IDs among them (full curves live in internal/mlobs).
	TrainedEpochs int
	TrainedModels int
	// Predictions counts predicted events; PredictionsCorrect the subset
	// whose predicted device matched the oracle.
	Predictions        int
	PredictionsCorrect int

	// FootprintKernels counts footprint events (one per kernel under
	// -footprint-sizing); FootprintArgs counts the pointer arguments
	// across them. Resized/Overrun/Unknown count arguments allocated past
	// the §5.1 extent, proven to overrun it, and symbolically unbounded.
	// FootprintRescued counts footprinted kernels with a resized argument
	// whose dynamic verdict was "useful work" — kernels the §5.1 rules
	// alone would have crashed. FootprintTightness histograms proven max
	// extents against the §5.1 extent G ("=G", "<G", "<=2G", ">2G",
	// "unknown", "unused").
	FootprintKernels   int
	FootprintArgs      int
	FootprintResized   int
	FootprintOverrun   int
	FootprintUnknown   int
	FootprintRescued   int
	FootprintTightness map[string]int

	// CacheHits counts events per stage whose work internal/cache served
	// from a memoized result instead of recomputing (Event.CacheHit).
	CacheHits map[Stage]int

	Latencies map[Stage]LatencyStats
}

// CorpusDiscardRate returns the fraction of mined files the filter
// discarded (the paper's §4.1 headline number).
func (r *FunnelReport) CorpusDiscardRate() float64 {
	if r.Mined == 0 {
		return 0
	}
	return 1 - float64(r.CorpusAccepted)/float64(r.Mined)
}

// SampleAcceptRate returns accepted/sampled (§4.3).
func (r *FunnelReport) SampleAcceptRate() float64 {
	if r.Sampled == 0 {
		return 0
	}
	return float64(r.SampleAccepted) / float64(r.Sampled)
}

// UsefulRate returns the fraction of checks yielding "useful work" (§5.2).
func (r *FunnelReport) UsefulRate() float64 {
	if r.Checks == 0 {
		return 0
	}
	return float64(r.Verdicts["useful work"]) / float64(r.Checks)
}

// PredictionAccuracy returns the fraction of predicted events whose device
// mapping matched the oracle, over every experiment in the journal.
func (r *FunnelReport) PredictionAccuracy() float64 {
	if r.Predictions == 0 {
		return 0
	}
	return float64(r.PredictionsCorrect) / float64(r.Predictions)
}

// FeatureMeanDelta returns the mean absolute heuristic-vs-precise delta
// of one feature across the journal's features events.
func (r *FunnelReport) FeatureMeanDelta(name string) float64 {
	return mean(r.FeatureDelta[name], r.FeatureKernels)
}

// FeatureExactRate returns the fraction of features events whose
// heuristic and precise values of one feature agree exactly.
func (r *FunnelReport) FeatureExactRate(name string) float64 {
	if r.FeatureKernels == 0 {
		return 0
	}
	return float64(r.FeatureExact[name]) / float64(r.FeatureKernels)
}

// FeatureAgreementRate returns the fraction of features events whose
// whole heuristic and precise vectors match.
func (r *FunnelReport) FeatureAgreementRate() float64 {
	if r.FeatureKernels == 0 {
		return 0
	}
	return float64(r.FeatureAllExact) / float64(r.FeatureKernels)
}

// AgreementCell is one cell of the static-vs-dynamic agreement table.
type AgreementCell struct {
	Predicted string // analyzer forecast ("" = expected to pass)
	Actual    string // checker verdict ("" = checker never ran)
}

// Funnel aggregates a journal's events into a FunnelReport.
func Funnel(events []Event) *FunnelReport {
	r := &FunnelReport{
		CorpusReasons:      map[string]int{},
		SampleReasons:      map[string]int{},
		StaticReasons:      map[string]int{},
		FeatureExact:       map[string]int{},
		FeatureDelta:       map[string]float64{},
		Agreement:          map[AgreementCell]int{},
		Verdicts:           map[string]int{},
		VerdictCost:        map[string]*CheckCost{},
		ClassCost:          map[string]*CheckCost{},
		FootprintTightness: map[string]int{},
		Systems:            map[string]*SystemStats{},
		Suites:             map[string]*SuiteStats{},
		CacheHits:          map[Stage]int{},
		Latencies:          map[Stage]LatencyStats{},
	}
	durs := map[Stage][]float64{}
	predicted := map[string]string{} // kernel ID -> static forecast
	checked := map[string][]string{} // kernel ID -> dynamic verdicts
	models := map[string]bool{}      // trained lineage IDs
	resizedIDs := map[string]bool{}  // kernel IDs with a resized footprint
	for _, e := range events {
		if e.DurMS > 0 {
			durs[e.Stage] = append(durs[e.Stage], e.DurMS)
		}
		if e.CacheHit {
			r.CacheHits[e.Stage]++
		}
		switch e.Stage {
		case StageMined:
			r.Mined++
		case StageCorpusFilter:
			if e.Reason == "" {
				r.CorpusAccepted++
				if e.Recovered {
					r.ShimRecovered++
				}
			} else {
				r.CorpusReasons[e.Reason]++
			}
		case StageRewritten:
			r.RewrittenUnits++
			r.RewrittenKernels += e.Kernels
		case StageSampled:
			r.Sampled++
		case StageTrained:
			r.TrainedEpochs++
			if !models[e.Model] {
				models[e.Model] = true
				r.TrainedModels++
			}
		case StagePredicted:
			r.Predictions++
			if e.Predicted == e.Oracle {
				r.PredictionsCorrect++
			}
		case StageSampleFilter:
			switch e.Reason {
			case "":
				r.SampleAccepted++
			case ReasonDuplicate:
				r.SampleDuplicates++
			default:
				r.SampleReasons[e.Reason]++
			}
		case StageStaticFilter:
			r.StaticChecked++
			if e.Reason != "" {
				r.StaticRejected++
				r.StaticReasons[e.Reason]++
			}
			predicted[e.ID] = e.Predicted
		case StageFeatures:
			r.FeatureKernels++
			if featuresMatch(e) {
				r.FeatureAllExact++
			}
			for i, name := range FeatureNames {
				if i >= len(e.FeatHeur) || i >= len(e.FeatPrec) {
					break
				}
				d := e.FeatHeur[i] - e.FeatPrec[i]
				if d < 0 {
					d = -d
				}
				r.FeatureDelta[name] += d
				if d == 0 {
					r.FeatureExact[name]++
				}
			}
		case StageDriverLoad:
			r.Loads++
			if e.Reason != "" {
				r.LoadFailures++
			}
		case StageFootprint:
			r.FootprintKernels++
			g := int64(e.Size)
			if g <= 0 {
				g = 256
			}
			for _, a := range e.Footprint {
				r.FootprintArgs++
				if a.Resized {
					r.FootprintResized++
					resizedIDs[e.ID] = true
				}
				if a.Overrun {
					r.FootprintOverrun++
				}
				switch {
				case a.Hi < -1:
					r.FootprintUnknown++
					r.FootprintTightness["unknown"]++
				case a.Hi == -1:
					r.FootprintTightness["unused"]++
				case a.Hi+1 < g:
					r.FootprintTightness["<G"]++
				case a.Hi+1 == g:
					r.FootprintTightness["=G"]++
				case a.Hi+1 <= 2*g:
					r.FootprintTightness["<=2G"]++
				default:
					r.FootprintTightness[">2G"]++
				}
			}
		case StageChecked:
			r.Checks++
			r.Verdicts[e.Verdict]++
			checked[e.ID] = append(checked[e.ID], e.Verdict)
			costOf(r.VerdictCost, e.Verdict).add(e)
			if e.Class != "" {
				costOf(r.ClassCost, e.Class).add(e)
			}
		case StageMeasured:
			r.Measured++
			sys := r.Systems[e.System]
			if sys == nil {
				sys = &SystemStats{}
				r.Systems[e.System] = sys
			}
			sys.Count++
			sys.CPUms += e.CPUms
			sys.GPUms += e.GPUms
			if e.Suite != "" {
				st := r.Suites[e.Suite]
				if st == nil {
					st = &SuiteStats{}
					r.Suites[e.Suite] = st
				}
				st.Count++
				st.Bestms += minF(e.CPUms, e.GPUms)
			}
		}
	}
	for stage, ds := range durs {
		r.Latencies[stage] = percentiles(ds)
	}
	// A rescued kernel is one whose buffers grew past the §5.1 extent and
	// that the dynamic checker then accepted: join footprint events with
	// checked verdicts by kernel ID.
	for id := range resizedIDs {
		for _, v := range checked[id] {
			if v == "useful work" {
				r.FootprintRescued++
				break
			}
		}
	}
	// Join forecasts with verdicts per kernel ID. A kernel the checker
	// never touched (rejected by the strict filter, or the run stopped
	// first) lands in the "(not run)" column; each distinct dynamic
	// verdict of an ID contributes its own cell.
	for id, pred := range predicted {
		vs := checked[id]
		if len(vs) == 0 {
			r.Agreement[AgreementCell{Predicted: pred}]++
			continue
		}
		seen := map[string]bool{}
		for _, v := range vs {
			if !seen[v] {
				seen[v] = true
				r.Agreement[AgreementCell{Predicted: pred, Actual: v}]++
			}
		}
	}
	return r
}

// AgreementRate returns the fraction of statically-analyzed kernels whose
// dynamic verdict matched the forecast, over kernels the checker ran.
func (r *FunnelReport) AgreementRate() float64 {
	match, total := 0, 0
	for c, n := range r.Agreement {
		if c.Actual == "" {
			continue
		}
		total += n
		if agreeCell(c) {
			match += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(match) / float64(total)
}

// agreeCell reports whether a (predicted, actual) pair counts as
// agreement: an exact verdict match, or a clean forecast confirmed by a
// "useful work" verdict. A clean forecast against a verdict the analyzer
// does not model (input insensitive, non-deterministic) counts as a miss,
// keeping the headline rate honest about what static analysis can see.
func agreeCell(c AgreementCell) bool {
	if c.Predicted == c.Actual {
		return true
	}
	return c.Predicted == "" && c.Actual == "useful work"
}

func costOf(m map[string]*CheckCost, key string) *CheckCost {
	if m[key] == nil {
		m[key] = &CheckCost{}
	}
	return m[key]
}

// stepsCounted reports whether any checked event carried interpreter steps.
func (r *FunnelReport) stepsCounted() bool {
	for _, c := range r.VerdictCost {
		if c.Steps > 0 {
			return true
		}
	}
	return false
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// percentiles computes nearest-rank P50/P90/P99 over ms durations.
func percentiles(ds []float64) LatencyStats {
	sort.Float64s(ds)
	pick := func(p float64) float64 {
		i := int(p * float64(len(ds)))
		if i >= len(ds) {
			i = len(ds) - 1
		}
		return ds[i]
	}
	return LatencyStats{Count: len(ds), P50: pick(0.50), P90: pick(0.90), P99: pick(0.99)}
}

// Render formats the funnel as the paper's discard/acceptance tables.
// Sections for stages absent from the journal are omitted, so a
// cldrive-only journal prints only its driver funnel.
func (r *FunnelReport) Render() string {
	var b strings.Builder
	b.WriteString("provenance funnel\n")
	if r.Mined > 0 || r.CorpusAccepted > 0 {
		fmt.Fprintf(&b, "corpus    %6d mined  -> %5d accepted (%.1f%% discarded, §4.1)\n",
			r.Mined, r.CorpusAccepted, r.CorpusDiscardRate()*100)
		writeReasons(&b, r.CorpusReasons)
		fmt.Fprintf(&b, "          shim recovered %d; rewritten units %d (%d kernels)\n",
			r.ShimRecovered, r.RewrittenUnits, r.RewrittenKernels)
	}
	if r.TrainedEpochs > 0 {
		fmt.Fprintf(&b, "training  %6d epochs -> %5d model(s)\n", r.TrainedEpochs, r.TrainedModels)
	}
	if r.Sampled > 0 {
		fmt.Fprintf(&b, "sampling  %6d drawn  -> %5d accepted (%.1f%%), %d duplicates\n",
			r.Sampled, r.SampleAccepted, r.SampleAcceptRate()*100, r.SampleDuplicates)
		writeReasons(&b, r.SampleReasons)
	}
	if r.StaticChecked > 0 {
		fmt.Fprintf(&b, "static    %6d analyzed -> %3d rejected\n", r.StaticChecked, r.StaticRejected)
		writeReasons(&b, r.StaticReasons)
		if len(r.Agreement) > 0 {
			fmt.Fprintf(&b, "  static vs dynamic (%.1f%% agreement on checked kernels)\n",
				r.AgreementRate()*100)
			fmt.Fprintf(&b, "  %-18s %-18s %6s\n", "predicted", "actual", "count")
			for _, c := range sortedCells(r.Agreement) {
				pred, act := c.Predicted, c.Actual
				if pred == "" {
					pred = "pass"
				}
				if act == "" {
					act = "(not run)"
				}
				fmt.Fprintf(&b, "  %-18s %-18s %6d\n", pred, act, r.Agreement[c])
			}
		}
	}
	if r.FeatureKernels > 0 {
		fmt.Fprintf(&b, "features  %6d kernels -> %4d vectors exact (%.1f%% agreement, heuristic vs precise)\n",
			r.FeatureKernels, r.FeatureAllExact, r.FeatureAgreementRate()*100)
		fmt.Fprintf(&b, "  %-10s %12s %12s\n", "feature", "mean |delta|", "exact match")
		for _, name := range FeatureNames {
			fmt.Fprintf(&b, "  %-10s %12.3f %11.1f%%\n",
				name, r.FeatureMeanDelta(name), r.FeatureExactRate(name)*100)
		}
	}
	if r.Loads > 0 {
		fmt.Fprintf(&b, "driver    %6d loads  -> %5d failed\n", r.Loads, r.LoadFailures)
	}
	if r.FootprintKernels > 0 {
		fmt.Fprintf(&b, "footprint %6d kernels -> %4d args (%d resized, %d overrun, %d unknown), %d rescued\n",
			r.FootprintKernels, r.FootprintArgs,
			r.FootprintResized, r.FootprintOverrun, r.FootprintUnknown, r.FootprintRescued)
		fmt.Fprintf(&b, "  bound tightness (proven max extent vs the §5.1 extent G)\n")
		for _, bkt := range tightnessBuckets {
			if n := r.FootprintTightness[bkt]; n > 0 {
				fmt.Fprintf(&b, "  %6d  %s\n", n, bkt)
			}
		}
	}
	if r.Predictions > 0 {
		fmt.Fprintf(&b, "predict   %6d predictions -> %5d correct (%.1f%%)\n",
			r.Predictions, r.PredictionsCorrect, r.PredictionAccuracy()*100)
	}
	if r.Checks > 0 {
		fmt.Fprintf(&b, "checker   %6d checks -> %5d useful work (%.1f%%, §5.2)\n",
			r.Checks, r.Verdicts["useful work"], r.UsefulRate()*100)
		writeReasons(&b, r.Verdicts)
	}
	if r.stepsCounted() {
		fmt.Fprintf(&b, "check cost %26s %12s %10s\n", "checks", "steps", "wall ms")
		row := func(name string, c *CheckCost) {
			fmt.Fprintf(&b, "  %-28s %6d %12d %10.1f\n", name, c.Checks, c.Steps, c.WallMS)
		}
		for _, v := range sortedKeys(r.VerdictCost) {
			row(v, r.VerdictCost[v])
		}
		for _, class := range sortedKeys(r.ClassCost) {
			row("failure "+class, r.ClassCost[class])
		}
	}
	if r.Measured > 0 {
		fmt.Fprintf(&b, "measured  %6d measurements\n", r.Measured)
		for _, name := range sortedKeys(r.Systems) {
			s := r.Systems[name]
			fmt.Fprintf(&b, "  %6d  system=%s (mean cpu %.3fms, gpu %.3fms)\n",
				s.Count, name, s.MeanCPU(), s.MeanGPU())
		}
		for _, name := range sortedKeys(r.Suites) {
			s := r.Suites[name]
			fmt.Fprintf(&b, "  %6d  suite=%s (mean best %.3fms)\n", s.Count, name, s.MeanBest())
		}
	}
	if len(r.CacheHits) > 0 {
		total := 0
		for _, n := range r.CacheHits {
			total += n
		}
		fmt.Fprintf(&b, "cache     %6d stage results served from cache\n", total)
		for _, stage := range StageOrder {
			if n := r.CacheHits[stage]; n > 0 {
				fmt.Fprintf(&b, "  %6d  %s\n", n, stage)
			}
		}
	}
	if len(r.Latencies) > 0 {
		fmt.Fprintf(&b, "stage latency (ms)   %8s %9s %9s %9s\n", "count", "p50", "p90", "p99")
		for _, stage := range StageOrder {
			l, ok := r.Latencies[stage]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "  %-18s %8d %9.2f %9.2f %9.2f\n", stage, l.Count, l.P50, l.P90, l.P99)
		}
	}
	return b.String()
}

// tightnessBuckets orders the bound-tightness histogram's rows.
var tightnessBuckets = []string{"<G", "=G", "<=2G", ">2G", "unknown", "unused"}

// writeReasons renders a reason histogram, most common first (ties by
// name), matching corpus.Stats.ReasonsSummary's layout.
func writeReasons(b *strings.Builder, reasons map[string]int) {
	type rc struct {
		r string
		n int
	}
	var rcs []rc
	for r, n := range reasons {
		rcs = append(rcs, rc{r, n})
	}
	sort.Slice(rcs, func(i, j int) bool {
		if rcs[i].n != rcs[j].n {
			return rcs[i].n > rcs[j].n
		}
		return rcs[i].r < rcs[j].r
	})
	for _, x := range rcs {
		fmt.Fprintf(b, "  %6d  %s\n", x.n, x.r)
	}
}

// sortedCells orders agreement cells by predicted then actual verdict.
func sortedCells(m map[AgreementCell]int) []AgreementCell {
	cells := make([]AgreementCell, 0, len(m))
	for c := range m {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Predicted != cells[j].Predicted {
			return cells[i].Predicted < cells[j].Predicted
		}
		return cells[i].Actual < cells[j].Actual
	})
	return cells
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// agreementRow is the JSON form of one agreement cell: the map's struct
// key cannot be a JSON object key, so the table flattens to a list.
type agreementRow struct {
	Predicted string `json:"predicted"`
	Actual    string `json:"actual"`
	Count     int    `json:"count"`
	Agree     bool   `json:"agree"`
}

// MarshalJSON exports the funnel for machine consumers (cltrace funnel
// -json): the raw counters plus the derived headline rates, with the
// agreement table flattened to a deterministically-ordered list.
func (r *FunnelReport) MarshalJSON() ([]byte, error) {
	type alias FunnelReport // drops methods: no recursion
	rows := make([]agreementRow, 0, len(r.Agreement))
	for _, c := range sortedCells(r.Agreement) {
		rows = append(rows, agreementRow{
			Predicted: c.Predicted, Actual: c.Actual,
			Count: r.Agreement[c], Agree: agreeCell(c),
		})
	}
	hits := r.CacheHits
	if len(hits) == 0 {
		hits = nil
	}
	tight := r.FootprintTightness
	if len(tight) == 0 {
		tight = nil
	}
	return json.Marshal(struct {
		*alias
		Agreement            []agreementRow `json:"Agreement,omitempty"`
		CacheHits            map[Stage]int  `json:"CacheHits,omitempty"`
		FootprintTightness   map[string]int `json:"FootprintTightness,omitempty"`
		CorpusDiscardRate    float64        `json:"corpus_discard_rate"`
		SampleAcceptRate     float64        `json:"sample_accept_rate"`
		UsefulRate           float64        `json:"useful_rate"`
		AgreementRate        float64        `json:"agreement_rate"`
		PredictionAccuracy   float64        `json:"prediction_accuracy"`
		FeatureAgreementRate float64        `json:"feature_agreement_rate"`
	}{
		alias:                (*alias)(r),
		Agreement:            rows,
		CacheHits:            hits,
		FootprintTightness:   tight,
		CorpusDiscardRate:    r.CorpusDiscardRate(),
		SampleAcceptRate:     r.SampleAcceptRate(),
		UsefulRate:           r.UsefulRate(),
		AgreementRate:        r.AgreementRate(),
		PredictionAccuracy:   r.PredictionAccuracy(),
		FeatureAgreementRate: r.FeatureAgreementRate(),
	})
}
