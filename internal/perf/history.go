package perf

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"clgen/internal/telemetry"
)

// Stage gate defaults: a stage regresses only when it is BOTH
// DefaultThresholdPct slower than the baseline median AND more than
// DefaultMinSeconds slower in absolute terms. The generous defaults keep
// short noisy stages (a few ms of scheduler jitter is easily 2x) from
// tripping the gate; tighten them per-invocation for long deterministic
// benchmarks.
const (
	DefaultThresholdPct = 75
	DefaultMinSeconds   = 0.1
)

// Stage metrics are named "<stage> wall_s" and "<stage> cpu_s" (the CPU
// time, recorded only when the run had -perf set); the run's wall time is
// "(total) wall_s".
const (
	wallMeasure = "wall_s"
	cpuMeasure  = "cpu_s"
	totalStage  = "(total)"
)

// Record is one run in a history: a machine stamp plus named numbers. A
// metric's name is "<subject> <measure>"; its measure (the text after the
// last space) selects the Rule that gates it.
type Record struct {
	Time      time.Time          `json:"t"`
	Component string             `json:"component"`
	GitRev    string             `json:"git_rev,omitempty"`
	Env       telemetry.EnvInfo  `json:"env"`
	Metrics   map[string]float64 `json:"metrics"`
}

// BuildRecord flattens a RunReport's stage tree into per-stage totals,
// summing spans that share a name (parallel stages open many). CPU
// seconds are carried over when the spans have them, i.e. when the run
// had -perf set.
func BuildRecord(rep *telemetry.RunReport, gitRev string) Record {
	rec := Record{
		Time:      rep.End,
		Component: rep.Component,
		GitRev:    gitRev,
		Env:       rep.Env,
		Metrics:   map[string]float64{totalStage + " " + wallMeasure: rep.Seconds},
	}
	if rec.Env == (telemetry.EnvInfo{}) {
		// Pre-Env reports: stamp the recording machine so diff still has
		// a comparability key (correct in the common record-where-you-ran
		// case).
		rec.Env = telemetry.Env()
	}
	var walk func(nodes []telemetry.StageNode)
	walk = func(nodes []telemetry.StageNode) {
		for _, n := range nodes {
			rec.Metrics[n.Name+" "+wallMeasure] += n.Seconds
			if cpu, _ := n.Attrs["cpu_s"].(float64); cpu > 0 {
				rec.Metrics[n.Name+" "+cpuMeasure] += cpu
			}
			walk(n.Children)
		}
	}
	walk(rep.Stages)
	return rec
}

// StageRules gates stage wall times: more than thresholdPct percent and
// more than minSeconds slower than the baseline. CPU seconds are shown
// by RenderHistory but not gated.
func StageRules(thresholdPct, minSeconds float64) map[string]Rule {
	return map[string]Rule{wallMeasure: {RelPct: thresholdPct, Abs: minSeconds}}
}

// Append appends rec as one JSON line to the history at path, creating
// it if needed.
func Append(path string, rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("perf: marshal record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("perf: open history: %w", err)
	}
	defer f.Close()
	if _, err := f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("perf: append history: %w", err)
	}
	return nil
}

// ReadHistory loads all records from the JSONL history at path, oldest
// first. Blank lines are skipped; a malformed line, or a record with no
// metrics (which would gate nothing), is an error naming its line.
func ReadHistory(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("perf: open history: %w", err)
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("perf: history %s line %d: %w", path, lineNo, err)
		}
		if len(rec.Metrics) == 0 {
			return nil, fmt.Errorf("perf: history %s line %d: record has no metrics", path, lineNo)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("perf: read history: %w", err)
	}
	return out, nil
}

// Rule gates the metrics of one measure. A metric regresses when it is
// worse than its baseline median by more than RelPct percent of the
// median AND by more than Abs in the metric's own unit. Tolerances are
// used as given: a zero tolerance lets no worsening through, so a rule
// that needs only one tolerance leaves the other zero.
type Rule struct {
	LowerIsWorse bool
	RelPct       float64
	Abs          float64
}

// String renders the rule as the diff header shows it.
func (r Rule) String() string {
	dir := "higher"
	if r.LowerIsWorse {
		dir = "lower"
	}
	return fmt.Sprintf("%s by >%g%% and >%g", dir, r.RelPct, r.Abs)
}

// MetricDiff compares one metric between the newest record and its
// baseline median.
type MetricDiff struct {
	Metric    string
	Base, New float64
	DeltaPct  float64
	Regressed bool
}

// DiffReport is the outcome of gating the newest history record against
// comparable predecessors.
type DiffReport struct {
	Component    string
	Rules        map[string]Rule
	BaselineRuns int
	Metrics      []MetricDiff
	Regressions  int
}

// Diff gates the newest record in history against the median of earlier
// records with the same component AND the same machine stamp — cross-
// machine comparisons are meaningless, so they simply don't form a
// baseline. Each metric of the newest record whose measure has a rule is
// gated by it; a metric no baseline record has is new, and skipped.
func Diff(history []Record, rules map[string]Rule) (*DiffReport, error) {
	for measure, r := range rules {
		if r.RelPct < 0 || r.Abs < 0 {
			return nil, fmt.Errorf("perf: %s rule has a negative tolerance: %s", measure, r)
		}
	}
	if len(history) == 0 {
		return nil, fmt.Errorf("perf: history is empty")
	}
	newest := history[len(history)-1]
	rep := &DiffReport{Component: newest.Component, Rules: rules}
	var base []Record
	for _, r := range history[:len(history)-1] {
		if r.Component == newest.Component && r.Env == newest.Env {
			base = append(base, r)
		}
	}
	rep.BaselineRuns = len(base)
	if len(base) == 0 {
		return rep, nil
	}
	for _, name := range sortedKeys(newest.Metrics) {
		_, measure := splitMetric(name)
		rule, ok := rules[measure]
		if !ok {
			continue
		}
		var samples []float64
		for _, r := range base {
			if v, ok := r.Metrics[name]; ok {
				samples = append(samples, v)
			}
		}
		if len(samples) == 0 {
			continue
		}
		d := MetricDiff{Metric: name, Base: median(samples), New: newest.Metrics[name]}
		if d.Base != 0 {
			d.DeltaPct = (d.New - d.Base) / d.Base * 100
		}
		worse := d.New - d.Base
		if rule.LowerIsWorse {
			worse = -worse
		}
		d.Regressed = worse > rule.Abs && worse > d.Base*rule.RelPct/100
		if d.Regressed {
			rep.Regressions++
		}
		rep.Metrics = append(rep.Metrics, d)
	}
	return rep, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// splitMetric splits a metric name "<subject> <measure>" at its last
// space.
func splitMetric(name string) (subject, measure string) {
	i := strings.LastIndexByte(name, ' ')
	if i < 0 {
		return "", name
	}
	return name[:i], name[i+1:]
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Render writes the diff as an aligned table with a one-line verdict.
func (r *DiffReport) Render(w io.Writer) {
	if r.BaselineRuns == 0 {
		fmt.Fprintf(w, "no comparable baseline for component %q on this machine — nothing to gate\n", r.Component)
		return
	}
	rules := make([]string, 0, len(r.Rules))
	for measure, rule := range r.Rules {
		rules = append(rules, measure+" "+rule.String())
	}
	sort.Strings(rules)
	fmt.Fprintf(w, "%s diff vs median of %d baseline run(s)  (regression: %s)\n",
		r.Component, r.BaselineRuns, strings.Join(rules, "; "))
	fmt.Fprintf(w, "%-48s %11s %11s %11s %10s\n", "METRIC", "BASE", "NEW", "DELTA", "DELTA%")
	for _, d := range r.Metrics {
		mark := ""
		if d.Regressed {
			mark = "  << REGRESSION"
		}
		fmt.Fprintf(w, "%-48s %11.3f %11.3f %+11.3f %+9.1f%%%s\n",
			d.Metric, d.Base, d.New, d.New-d.Base, d.DeltaPct, mark)
	}
	if r.Regressions > 0 {
		fmt.Fprintf(w, "FAIL: %d metric(s) regressed\n", r.Regressions)
	} else {
		fmt.Fprintf(w, "OK: no regressions\n")
	}
}

// RenderHistory writes one row per record with its metrics, or only the
// metrics of the given subject (a stage name, for stage records).
func RenderHistory(w io.Writer, history []Record, subject string) {
	if len(history) == 0 {
		fmt.Fprintln(w, "history is empty")
		return
	}
	fmt.Fprintf(w, "%-20s %-10s %-10s %s\n", "TIME", "COMPONENT", "REV", "METRICS")
	for _, r := range history {
		var cells []string
		for _, name := range sortedKeys(r.Metrics) {
			if s, _ := splitMetric(name); subject == "" || s == subject {
				cells = append(cells, fmt.Sprintf("%s=%.3f", name, r.Metrics[name]))
			}
		}
		rev := r.GitRev
		if rev == "" {
			rev = "-"
		}
		fmt.Fprintf(w, "%-20s %-10s %-10s %s\n",
			r.Time.UTC().Format("2006-01-02 15:04:05"), r.Component, rev, strings.Join(cells, "  "))
	}
}
