// Package telemetry is the pipeline-wide observability layer: a
// process-global metrics registry (counters, gauges, histograms with
// Prometheus text exposition), lightweight span tracing that accumulates
// a per-run stage tree, an opt-in HTTP server exposing /metrics, /vars,
// /stages and net/http/pprof, and a machine-readable RunReport. Logs go
// through the standard library's log/slog, whose default handler
// internal/cli configures.
//
// The package is stdlib-only and imported by every pipeline layer (corpus
// filtering, model training, sampling, the host driver, and the
// experimental harness), so a full run's timings, counters, and failure
// modes are observable in one place.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n (n must be >= 0; negative deltas are
// ignored to preserve monotonicity).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Name returns the metric name (possibly with {labels}).
func (c *Counter) Name() string { return c.name }

// Gauge is an instantaneous float64 metric.
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increases the gauge by delta (CAS loop; safe under concurrency).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		cur := math.Float64frombits(old)
		if g.bits.CompareAndSwap(old, math.Float64bits(cur+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Name returns the metric name (possibly with {labels}).
func (g *Gauge) Name() string { return g.name }

// DurationBuckets are the default histogram bucket upper bounds, in
// seconds, tuned for pipeline stage timings (sub-millisecond kernel runs
// up to multi-minute training epochs).
var DurationBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 120, 300, 600,
}

// Histogram is a fixed-bucket histogram with atomic updates. Bucket
// counts are cumulative on export (Prometheus `le` convention).
type Histogram struct {
	name, help string
	bounds     []float64 // upper bounds, ascending; +Inf implicit
	counts     []atomic.Int64
	count      atomic.Int64
	sumBits    atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		cur := math.Float64frombits(old)
		if h.sumBits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Name returns the metric name (possibly with {labels}).
func (h *Histogram) Name() string { return h.name }

// HistogramSnapshot is a consistent-enough view of a histogram for
// export: cumulative bucket counts keyed by upper bound.
type HistogramSnapshot struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"` // cumulative, len(Bounds)+1 (last = +Inf)
}

// Mean returns Sum/Count, or 0 with no observations.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:  h.bounds,
		Buckets: make([]int64, len(h.counts)),
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		s.Buckets[i] = cum
	}
	// Count/Sum read last so they are at least as fresh as the buckets;
	// exposition tolerates small skew under concurrent writes.
	s.Count = h.count.Load()
	s.Sum = h.Sum()
	return s
}

// Registry is a process-global collection of named metrics. Metric
// constructors are get-or-create, so instrumented packages can call
// Registry.Counter(...) on every hot-path hit; lookups take a read lock
// and updates are lock-free atomics.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	help       map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		help:       map[string]string{},
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-global registry.
func Default() *Registry { return defaultRegistry }

// Label appends Prometheus-style labels to a metric name:
// Label("x_total", "reason", "parse error") == `x_total{reason="parse error"}`.
// Pairs are key, value, key, value, ...
func Label(name string, pairs ...string) string {
	if len(pairs) < 2 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(pairs[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{name: name, help: help}
		r.counters[name] = c
		r.setHelp(name, help)
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{name: name, help: help}
		r.gauges[name] = g
		r.setHelp(name, help)
	}
	return g
}

// Histogram returns the named histogram, creating it on first use with
// the given bucket upper bounds (nil means DurationBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	if bounds == nil {
		bounds = DurationBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = &Histogram{
			name: name, help: help,
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
		r.histograms[name] = h
		r.setHelp(name, help)
	}
	return h
}

// setHelp records family help text (caller holds the write lock). The
// first help string for a family wins.
func (r *Registry) setHelp(name, help string) {
	fam := familyName(name)
	if help != "" && r.help[fam] == "" {
		r.help[fam] = help
	}
}

// familyName strips a {label} suffix: `a{b="c"}` -> `a`.
func familyName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// labelPart returns the label body of a name, without braces: `a{b="c"}`
// -> `b="c"`, or "" when unlabeled.
func labelPart(name string) string {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return ""
	}
	return strings.TrimSuffix(name[i+1:], "}")
}

// Snapshot is a point-in-time view of every metric in a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures all metric values. Counters and gauges are read
// atomically; histograms may show small bucket/count skew if observed
// concurrently with writes.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.histograms {
		s.Histograms[n] = h.snapshot()
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): one family per metric name, labeled series
// grouped under their family with # HELP / # TYPE headers.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	type series struct {
		name  string
		c     *Counter
		g     *Gauge
		h     *Histogram
		mtype string
	}
	families := map[string][]series{}
	var famNames []string
	addFam := func(name string, s series) {
		fam := familyName(name)
		if _, ok := families[fam]; !ok {
			famNames = append(famNames, fam)
		}
		families[fam] = append(families[fam], s)
	}
	for n, c := range r.counters {
		addFam(n, series{name: n, c: c, mtype: "counter"})
	}
	for n, g := range r.gauges {
		addFam(n, series{name: n, g: g, mtype: "gauge"})
	}
	for n, h := range r.histograms {
		addFam(n, series{name: n, h: h, mtype: "histogram"})
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.RUnlock()

	sort.Strings(famNames)
	for _, fam := range famNames {
		ss := families[fam]
		sort.Slice(ss, func(i, j int) bool { return ss[i].name < ss[j].name })
		if h := help[fam]; h != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam, h); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, ss[0].mtype); err != nil {
			return err
		}
		for _, s := range ss {
			if err := writeSeries(w, s.name, s.c, s.g, s.h); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, name string, c *Counter, g *Gauge, h *Histogram) error {
	switch {
	case c != nil:
		_, err := fmt.Fprintf(w, "%s %d\n", name, c.Value())
		return err
	case g != nil:
		_, err := fmt.Fprintf(w, "%s %s\n", name, formatFloat(g.Value()))
		return err
	default:
		snap := h.snapshot()
		fam := familyName(name)
		labels := labelPart(name)
		for i, bound := range snap.Bounds {
			if err := writeBucket(w, fam, labels, formatFloat(bound), snap.Buckets[i]); err != nil {
				return err
			}
		}
		if err := writeBucket(w, fam, labels, "+Inf", snap.Buckets[len(snap.Buckets)-1]); err != nil {
			return err
		}
		suffix := ""
		if labels != "" {
			suffix = "{" + labels + "}"
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", fam, suffix, formatFloat(snap.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", fam, suffix, snap.Count)
		return err
	}
}

func writeBucket(w io.Writer, fam, labels, le string, cum int64) error {
	sep := ""
	if labels != "" {
		sep = ","
	}
	_, err := fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", fam, labels, sep, le, cum)
	return err
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
