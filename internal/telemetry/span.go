package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Tracer records spans into a per-run stage tree and feeds their
// durations into a registry histogram (`stage_seconds{stage="..."}`).
//
// Two parenting modes compose:
//
//   - Explicit mode: parent.Child(name) parents the new span under parent
//     without touching the tracer's implicit stack — the correct mode for
//     spans opened on worker goroutines (the pipeline's parallel stages),
//     where the implicit stack would misattribute them.
//   - Implicit mode: Start(name) parents under the tracer's current open
//     span, giving correctly nested trees on the coordinating goroutine
//     without changing signatures.
//
// All tracer state is mutex-protected, so concurrent use is race-free in
// every mode; only implicit Start calls from non-root goroutines nest
// unpredictably (use Child there instead).
type Tracer struct {
	mu    sync.Mutex
	reg   *Registry
	now   func() time.Time
	roots []*Span
	cur   *Span
}

// NewTracer builds a tracer recording durations into reg (nil means no
// histogram recording, tree only).
func NewTracer(reg *Registry) *Tracer {
	return &Tracer{reg: reg, now: time.Now}
}

// SetClock replaces the tracer's time source (for tests).
func (t *Tracer) SetClock(now func() time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.now = now
}

var defaultTracer = NewTracer(defaultRegistry)

// DefaultTracer returns the process-global tracer.
func DefaultTracer() *Tracer { return defaultTracer }

// Span is one timed stage of a run.
type Span struct {
	tracer   *Tracer
	name     string
	start    time.Time
	dur      time.Duration
	ended    bool
	implicit bool // on the tracer's implicit stack (Start), vs explicit (Child)
	parent   *Span
	children []*Span
	attrs    []kv
	// res0 is the resource sample captured at Start when -perf sampling is
	// enabled (nil otherwise). Written once before the span is shared, so
	// End may read it without the tracer lock.
	res0 *ResourceSample
}

// Start opens a span under the tracer's current open span (implicit mode;
// intended for the coordinating goroutine).
func (t *Tracer) Start(name string) *Span {
	return t.start(name, nil, true)
}

// Child opens a span explicitly parented under s. It never touches the
// tracer's implicit stack, so it is the correct way to open spans from
// worker goroutines: concurrent children of the same parent attach as
// siblings instead of flattening or nesting under each other.
func (s *Span) Child(name string) *Span {
	return s.tracer.start(name, s, false)
}

func (t *Tracer) start(name string, parent *Span, implicit bool) *Span {
	// Resource sampling happens outside the lock: ReadMemStats is not free
	// and must not serialize unrelated spans.
	var res0 *ResourceSample
	if r, ok := SampleResources(); ok {
		res0 = &r
	}
	t.mu.Lock()
	if implicit && parent == nil {
		parent = t.cur
	}
	s := &Span{tracer: t, name: name, start: t.now(), implicit: implicit, parent: parent, res0: res0}
	if parent != nil {
		parent.children = append(parent.children, s)
	} else {
		t.roots = append(t.roots, s)
	}
	if implicit {
		t.cur = s
	}
	t.mu.Unlock()
	// After the start time is taken, so an injected sleep counts in the
	// stage's wall time.
	faultSleep(name)
	return s
}

// Start opens a span on the default tracer under its current open span.
func Start(name string) *Span { return defaultTracer.Start(name) }

// SetAttr attaches a key=value annotation shown in the rendered tree and
// the RunReport (e.g. kernels synthesized in this stage).
func (s *Span) SetAttr(key string, value any) *Span {
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	s.setAttrLocked(key, value)
	return s
}

// kv is one span attribute.
type kv struct {
	k string
	v any
}

// setAttrLocked upserts one attr; the caller holds the tracer lock.
func (s *Span) setAttrLocked(key string, value any) {
	for i := range s.attrs {
		if s.attrs[i].k == key {
			s.attrs[i].v = value
			return
		}
	}
	s.attrs = append(s.attrs, kv{key, value})
}

// End closes the span, records its duration into the tracer's registry,
// and pops it from the implicit stack. End is idempotent. When -perf
// sampling was enabled at Start, End attaches the stage's resource deltas
// (cpu_s, alloc_bytes, gc_pause_s, gc_cycles, goroutines) as attrs — they
// surface in /stages, the RunReport, and the perf_stage_* metrics.
func (s *Span) End() {
	// Sample before taking the lock, mirroring start.
	var res1 ResourceSample
	haveRes := false
	if s.res0 != nil {
		res1, haveRes = SampleResources()
	}
	t := s.tracer
	t.mu.Lock()
	if s.ended {
		t.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = t.now().Sub(s.start)
	var resCPU, resAlloc, resGCPause float64
	if haveRes {
		resCPU = clampNonNeg(res1.CPUSeconds - s.res0.CPUSeconds)
		resAlloc = float64(res1.AllocBytes - s.res0.AllocBytes)
		resGCPause = clampNonNeg(res1.GCPauseSeconds - s.res0.GCPauseSeconds)
		s.setAttrLocked("cpu_s", roundMicro(resCPU))
		s.setAttrLocked("alloc_bytes", int64(res1.AllocBytes-s.res0.AllocBytes))
		s.setAttrLocked("gc_pause_s", roundMicro(resGCPause))
		s.setAttrLocked("gc_cycles", int(res1.GCCycles-s.res0.GCCycles))
		s.setAttrLocked("goroutines", res1.Goroutines)
	}
	// Pop this span (and any unclosed descendants) off the implicit stack.
	// Explicit spans (Child) were never pushed, so ending them
	// from a worker goroutine cannot disturb the coordinator's stack.
	if s.implicit {
		for c := t.cur; c != nil; c = c.parent {
			if c == s {
				t.cur = s.parent
				break
			}
		}
	}
	reg := t.reg
	dur := s.dur
	name := s.name
	t.mu.Unlock()
	if reg != nil {
		reg.Histogram(Label("stage_seconds", "stage", name),
			"Stage wall time in seconds.", DurationBuckets).Observe(dur.Seconds())
		if haveRes {
			reg.Gauge(Label("perf_stage_cpu_seconds", "stage", name),
				"CPU time (user+system) attributed to the stage, in seconds.").Add(resCPU)
			reg.Gauge(Label("perf_stage_alloc_bytes", "stage", name),
				"Heap bytes allocated while the stage was open.").Add(resAlloc)
			reg.Gauge(Label("perf_stage_gc_pause_seconds", "stage", name),
				"GC stop-the-world pause time while the stage was open, in seconds.").Add(resGCPause)
		}
	}
}

// clampNonNeg floors small negative deltas (clock/rusage granularity) at 0.
func clampNonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// roundMicro rounds seconds to microsecond resolution so attrs stay tidy.
func roundMicro(v float64) float64 {
	return math.Round(v*1e6) / 1e6
}

// StageNode is the exported form of a span for the RunReport.
type StageNode struct {
	Name     string         `json:"name"`
	Seconds  float64        `json:"seconds"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []StageNode    `json:"children,omitempty"`
}

// Stages exports the tracer's root spans as a forest of StageNodes.
// Unfinished spans report the time elapsed so far.
func (t *Tracer) Stages() []StageNode {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]StageNode, 0, len(t.roots))
	for _, r := range t.roots {
		out = append(out, t.export(r))
	}
	return out
}

func (t *Tracer) export(s *Span) StageNode {
	n := StageNode{Name: s.name, Seconds: s.dur.Seconds()}
	if !s.ended {
		n.Seconds = t.now().Sub(s.start).Seconds()
	}
	if len(s.attrs) > 0 {
		n.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			n.Attrs[a.k] = jsonValue(a.v)
		}
	}
	for _, c := range s.children {
		n.Children = append(n.Children, t.export(c))
	}
	return n
}

// jsonValue renders the attr values encoding/json would not print
// readably (durations, errors) as strings.
func jsonValue(v any) any {
	switch x := v.(type) {
	case time.Duration:
		return x.String()
	case error:
		return x.Error()
	default:
		return v
	}
}

// Reset drops all recorded spans. Intended for tests and between runs.
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.roots = nil
	t.cur = nil
}

// WriteTree renders the stage tree as an indented run summary:
//
//	world.build                      12.804s
//	  corpus.build                    1.022s  files=1200
func (t *Tracer) WriteTree(w io.Writer) {
	for _, n := range t.Stages() {
		writeNode(w, n, 0)
	}
}

// TreeString renders the stage tree to a string.
func (t *Tracer) TreeString() string {
	var b strings.Builder
	t.WriteTree(&b)
	return b.String()
}

func writeNode(w io.Writer, n StageNode, depth int) {
	pad := strings.Repeat("  ", depth)
	label := pad + n.Name
	fmt.Fprintf(w, "%-40s %10s", label, formatSeconds(n.Seconds))
	if len(n.Attrs) > 0 {
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %s=%v", k, n.Attrs[k])
		}
	}
	fmt.Fprintln(w)
	for _, c := range n.Children {
		writeNode(w, c, depth+1)
	}
}

func formatSeconds(s float64) string {
	switch {
	case s < 0.001:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.1fms", s*1e3)
	case s < 60:
		return fmt.Sprintf("%.3fs", s)
	default:
		return time.Duration(s * float64(time.Second)).Round(time.Second).String()
	}
}
