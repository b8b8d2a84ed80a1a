// Package journal is the pipeline's provenance layer: an append-only
// JSONL event log in which every artifact — a mined content file, a
// model-synthesized sample, a driven kernel — is identified by a stable
// content hash and emits one typed Event per lifecycle stage (mined,
// rejection-filter verdict, rewriter normalization, sampling, dynamic
// checking, measurement). Where telemetry counters aggregate, the journal
// records: after a run exits, `cltrace` can reconstruct any artifact's
// full history, reproduce the paper's §4.1/§5.2 funnel tables, and diff
// two runs for regression gating.
//
// Writes go through a buffered writer that is safe under the
// internal/pool worker fan-outs and writes every event. Emission sites run
// either on the ordered aggregation goroutine (corpus, core, experiments)
// or on worker goroutines (driver), so two journals of the same seeded run
// at different worker counts may interleave differently on disk; they are
// compared after order normalization (Canonical / Equivalent), under which
// workers=1 and workers=N journals are equal.
package journal

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clgen/internal/telemetry"
)

// Stage is an artifact lifecycle stage.
type Stage string

// Lifecycle stages, in pipeline order.
const (
	// StageMined marks a content file entering the corpus pipeline.
	StageMined Stage = "mined"
	// StageCorpusFilter is the §4.1 rejection-filter verdict on a mined
	// file: Reason empty means accepted, otherwise a corpus.RejectReason.
	StageCorpusFilter Stage = "corpus_filter"
	// StageRewritten marks one normalized per-kernel unit produced by the
	// rewriter from an accepted file (Parent links the source file).
	StageRewritten Stage = "rewritten"
	// StageTrained is one epoch (or one whole fit, for epoch-less
	// backends) of language-model training. The artifact ID is the model's
	// content-hashed lineage (cache.Key over backend config + corpus
	// content + seed); Loss and ClipRate are deterministic for a fixed
	// seed, while TokensPerSec and CPUSeconds are run-varying and zeroed
	// by Canonical.
	StageTrained Stage = "trained"
	// StageSampled marks a kernel drawn from the language model.
	StageSampled Stage = "sampled"
	// StageSampleFilter is the §4.3 rejection-filter verdict on a sample:
	// Reason empty means accepted, a corpus.RejectReason otherwise, or
	// ReasonDuplicate for filter-passing samples discarded by dedup.
	StageSampleFilter Stage = "sample_filter"
	// StageStaticFilter is the static analyzer's verdict on a kernel that
	// passed the base rejection filter: Reason empty means clean, otherwise
	// "static: <lint>" names the blocking diagnostic. Predicted carries the
	// analyzer's §5.2 forecast ("" when it expects the dynamic checker to
	// pass), letting cltrace tabulate static-vs-dynamic agreement.
	StageStaticFilter Stage = "static_filter"
	// StageFeatures carries one filtered kernel's static feature vectors
	// under -precise-features: FeatHeur is the AST-heuristic extraction,
	// FeatPrec the analyzer-derived one, both in FeatureNames order.
	// `cltrace funnel` folds these into the feature-agreement table.
	StageFeatures Stage = "features"
	// StageDriverLoad marks the host driver loading a kernel; Reason holds
	// the load error when it failed.
	StageDriverLoad Stage = "driver_load"
	// StageFootprint carries a kernel's per-pointer-argument symbolic
	// footprints under -footprint-sizing: proven extent expressions in G,
	// resolved bytes at the reference size Sg=256, and whether the driver
	// resized the buffer beyond the §5.1 extent. One event per kernel.
	StageFootprint Stage = "footprint"
	// StageChecked is the §5.2 dynamic-checker outcome (Verdict).
	StageChecked Stage = "checked"
	// StageMeasured is one modeled (kernel, size, system) measurement.
	StageMeasured Stage = "measured"
	// StagePredicted is one device-mapping prediction of the Grewe et al.
	// model in an evaluation fold (Figures 7/8, Table 1). The artifact ID
	// is the predicted kernel's content hash — the same ID its measured
	// events carry — so a misclassification is attributable to the
	// benchmark, the fold, the feature vector, and (through Model) the
	// training-corpus composition.
	StagePredicted Stage = "predicted"
)

// ReasonDuplicate marks a sample that passed the rejection filter but was
// discarded as a duplicate of an earlier accepted sample. It extends the
// corpus.RejectReason values in StageSampleFilter events.
const ReasonDuplicate = "duplicate"

// StageOrder lists the stages in pipeline order, for rendering.
var StageOrder = []Stage{
	StageMined, StageCorpusFilter, StageRewritten, StageTrained,
	StageSampled, StageSampleFilter, StageStaticFilter, StageFeatures,
	StageDriverLoad, StageFootprint, StageChecked, StageMeasured, StagePredicted,
}

// FeatureNames orders the entries of a features event's FeatHeur/FeatPrec
// vectors (and the funnel's per-feature agreement rows). It matches
// features.Static.FeatureVec.
var FeatureNames = []string{"comp", "mem", "localmem", "coalesced", "branches"}

// FootprintArg is one pointer argument's proven footprint in a footprint
// event: extent expressions affine in G ("0", "2*G-2", "?" when the
// analysis could not bound the argument) plus the concrete allocation the
// driver chose at this event's Size.
type FootprintArg struct {
	Arg   int    `json:"arg"`
	Name  string `json:"name,omitempty"`
	Min   string `json:"min,omitempty"`
	Max   string `json:"max,omitempty"`
	Known bool   `json:"known,omitempty"`
	// Hi is the proven max element index resolved at this event's Size:
	// -1 for an untouched argument, -2 when unresolvable (symbolic
	// unknown) — the funnel's bound-tightness histogram buckets on it.
	Hi      int64 `json:"hi"`
	Elems   int64 `json:"elems,omitempty"` // elements allocated
	Bytes   int64 `json:"bytes,omitempty"` // bytes allocated
	Resized bool  `json:"resized,omitempty"`
	Overrun bool  `json:"overrun,omitempty"`
	Written bool  `json:"written,omitempty"`
}

// Fault names the buffer access that crashed a run-failure checked
// event: the kernel argument index (-1 for anonymous memory such as
// local scratch), the scalar-slot offset, and the buffer length.
type Fault struct {
	Arg   int   `json:"arg"`
	Slot  int64 `json:"slot"`
	Len   int   `json:"len"`
	Write bool  `json:"write,omitempty"`
}

// Event is one journal record. ID is the artifact's content hash; the
// remaining fields are stage-specific and zero elsewhere. Time and DurMS
// are the only run-varying fields — Canonical zeroes them, so two seeded
// runs of the same pipeline produce equivalent event multisets.
type Event struct {
	Time  time.Time `json:"t"`
	ID    string    `json:"id"`
	Stage Stage     `json:"stage"`
	// Item is the artifact's index within its stage fan-out (file index,
	// sample attempt, synthetic-kernel index).
	Item int `json:"item,omitempty"`
	// Reason is the rejection reason of a filter/load stage ("" = passed).
	Reason string `json:"reason,omitempty"`
	// Verdict is the dynamic-checker outcome of a checked stage.
	Verdict string `json:"verdict,omitempty"`
	// Predicted is the static analyzer's §5.2 forecast in a static_filter
	// stage ("" = expected to pass the dynamic checker), or the predicted
	// device of a predicted stage (the oracle device lands in Oracle).
	Predicted string `json:"predicted,omitempty"`
	// Parent links a derived artifact (rewritten unit) to its source ID.
	Parent string `json:"parent,omitempty"`
	// Kernel / Suite / System name a measured stage's subject.
	Kernel string `json:"kernel,omitempty"`
	Suite  string `json:"suite,omitempty"`
	System string `json:"system,omitempty"`
	// Model is the content-hashed lineage ID of the language model (trained
	// stages: the model being fitted; sampled stages: the model that drew
	// the kernel), linking every synthesized artifact back to the exact
	// model — config, corpus, and seed — that produced it.
	Model string `json:"model,omitempty"`
	// Epoch numbers a trained stage's training epoch (1-based; epoch-less
	// backends such as the n-gram fit emit a single epoch 1).
	Epoch int `json:"epoch,omitempty"`
	// Loss is a trained stage's mean cross-entropy per character.
	Loss float64 `json:"loss,omitempty"`
	// ClipRate is the fraction of gradient elements clipped this epoch.
	ClipRate float64 `json:"clip_rate,omitempty"`
	// TokensPerSec is a trained stage's throughput. Run-varying — zeroed
	// by Canonical.
	TokensPerSec float64 `json:"tokens_per_sec,omitempty"`
	// CPUSeconds is a trained stage's process CPU time delta, sampled via
	// the -perf resource sampler (0 when -perf is off). Run-varying —
	// zeroed by Canonical.
	CPUSeconds float64 `json:"cpu_s,omitempty"`
	// Experiment / Variant / Fold locate a predicted stage: the experiment
	// ("figure7", "figure8", "table1"), the model variant within it (e.g.
	// "grewe", "grewe+clgen", "extended+clgen", or Table 1's training
	// suite), and the evaluation fold (the held-out benchmark of a LOOCV
	// fold, or Table 1's testing suite).
	Experiment string `json:"experiment,omitempty"`
	Variant    string `json:"variant,omitempty"`
	Fold       string `json:"fold,omitempty"`
	// Features is a predicted stage's model-input feature vector.
	Features []float64 `json:"features,omitempty"`
	// FeatHeur / FeatPrec are a features stage's heuristic and precise
	// static code features, in FeatureNames order.
	FeatHeur []float64 `json:"feat_heur,omitempty"`
	FeatPrec []float64 `json:"feat_prec,omitempty"`
	// Baseline names a predicted stage's static single-device baseline;
	// Speedup is the predicted mapping's speedup over it (0 when the
	// baseline or predicted runtime is unavailable).
	Baseline string  `json:"baseline,omitempty"`
	Speedup  float64 `json:"speedup,omitempty"`
	// Kernels counts kernel functions in a rewritten unit.
	Kernels int `json:"kernels,omitempty"`
	// Size is the global size of a checked/measured stage.
	Size int `json:"size,omitempty"`
	// Seed is the payload seed of a checked stage.
	Seed int64 `json:"seed,omitempty"`
	// Steps is the interpreter budget a checked stage's executions
	// consumed, the failing one included (0 for a verdict reached without
	// executing).
	Steps int64 `json:"steps,omitempty"`
	// Class is a run-failure checked stage's failure class: "step-limit",
	// "fault", "barrier-divergence" or "other".
	Class string `json:"class,omitempty"`
	// CPUms / GPUms are modeled device runtimes of a measured stage.
	CPUms float64 `json:"cpu_ms,omitempty"`
	GPUms float64 `json:"gpu_ms,omitempty"`
	// Oracle is the faster device of a measured stage.
	Oracle string `json:"oracle,omitempty"`
	// Recovered marks a corpus_filter acceptance the shim header enabled
	// (rejected without it — the paper's 40% → 32% improvement).
	Recovered bool `json:"shim_recovered,omitempty"`
	// Footprint carries a footprint stage's per-argument extents.
	Footprint []FootprintArg `json:"footprint,omitempty"`
	// Fault attributes a run-failure checked stage's crash to the faulting
	// buffer argument and access offset (nil for non-crash verdicts and
	// crashes that are not memory faults).
	Fault *Fault `json:"fault,omitempty"`
	// CacheHit marks a stage whose result was served by internal/cache
	// instead of recomputed (`cltrace funnel` attributes skipped work
	// from it). Run-varying — a warm cache is an execution detail, not a
	// property of the artifact — so Canonical zeroes it.
	CacheHit bool `json:"cache_hit,omitempty"`
	// DurMS is the wall time of the stage's work, for latency funnels.
	DurMS float64 `json:"dur_ms,omitempty"`
}

// Canonical returns the event with its run-varying fields (timestamp,
// wall duration, throughput, CPU time, and cache-hit annotation) zeroed —
// the form under which journals of the same seeded run compare equal
// regardless of worker count, machine speed, or cache warmth.
func (e Event) Canonical() Event {
	e.Time = time.Time{}
	e.DurMS = 0
	e.TokensPerSec = 0
	e.CPUSeconds = 0
	e.CacheHit = false
	return e
}

// ID returns the stable content-hash identifier of an artifact: the first
// 16 hex digits of the SHA-256 of its source text.
func ID(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:8])
}

// Writer appends events to a JSONL stream. Emit encodes each event into
// a buffered writer under a mutex, on the caller's goroutine, so it is
// safe for concurrent use from worker goroutines and every event emitted
// before Close is written.
type Writer struct {
	mu      sync.Mutex
	closed  bool
	bw      *bufio.Writer
	enc     *json.Encoder
	c       io.Closer // underlying file, nil for plain io.Writer sinks
	now     func() time.Time
	written *telemetry.Counter
	err     error // first encode error
	closeE  error
}

// NewWriter returns a journal writer over w. Close flushes it.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{
		bw:  bw,
		enc: json.NewEncoder(bw),
		now: time.Now,
		written: telemetry.Default().Counter("journal_events_written_total",
			"Provenance events written to the journal."),
	}
}

// Create opens (truncating) a journal file at path.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	jw := NewWriter(f)
	jw.c = f
	return jw, nil
}

// SetClock replaces the writer's time source (for tests). Call before the
// first Emit.
func (w *Writer) SetClock(now func() time.Time) { w.now = now }

// Emit writes one event, stamping its Time when unset. After Close it
// does nothing.
func (w *Writer) Emit(e Event) {
	if e.Time.IsZero() {
		e.Time = w.now()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	if err := w.enc.Encode(e); err != nil {
		if w.err == nil {
			w.err = fmt.Errorf("journal: encode: %w", err)
		}
		return
	}
	w.written.Inc()
}

// Close flushes the buffer and closes the underlying file. It is
// idempotent.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.closeE
	}
	w.closed = true
	err := w.err
	if ferr := w.bw.Flush(); err == nil && ferr != nil {
		err = fmt.Errorf("journal: flush: %w", ferr)
	}
	if w.c != nil {
		if cerr := w.c.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("journal: close: %w", cerr)
		}
	}
	w.closeE = err
	return err
}

// active is the process-global journal the emission helpers write to; nil
// (the default) makes Emit a near-free no-op, so pipeline packages call it
// unconditionally.
var active atomic.Pointer[Writer]

// SetActive installs w as the process-global journal (nil deactivates).
// Binaries install it via the shared -journal flag; tests install a
// temporary writer and must clear it before Close.
func SetActive(w *Writer) { active.Store(w) }

// Enabled reports whether a process-global journal is installed. Emission
// sites use it to skip content hashing when no one is listening.
func Enabled() bool { return active.Load() != nil }

// Emit writes e to the process-global journal, if one is installed.
func Emit(e Event) {
	if w := active.Load(); w != nil {
		w.Emit(e)
	}
}

// Read decodes a JSONL event stream.
func Read(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("journal: decode event %d: %w", len(out), err)
		}
		out = append(out, e)
	}
}

// ReadFile reads every event of a journal file.
func ReadFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// CanonicalLines renders events in order-normalized form: each event is
// canonicalized (timestamps and durations zeroed), JSON-encoded, and the
// lines sorted. Two journals of the same seeded run have equal canonical
// lines for every worker count.
func CanonicalLines(events []Event) []string {
	lines := make([]string, len(events))
	for i, e := range events {
		b, err := json.Marshal(e.Canonical())
		if err != nil {
			// Event is a plain struct; Marshal cannot fail on it.
			panic(err)
		}
		lines[i] = string(b)
	}
	sort.Strings(lines)
	return lines
}

// Equivalent reports whether two journals record the same event multiset
// after order normalization.
func Equivalent(a, b []Event) bool {
	la, lb := CanonicalLines(a), CanonicalLines(b)
	if len(la) != len(lb) {
		return false
	}
	for i := range la {
		if la[i] != lb[i] {
			return false
		}
	}
	return true
}

// stageRank orders stages for history rendering; unknown stages sort last.
func stageRank(s Stage) int {
	for i, o := range StageOrder {
		if o == s {
			return i
		}
	}
	return len(StageOrder)
}

// History selects the lifecycle of one artifact: every event whose ID or
// Parent starts with idPrefix, ordered by time (then stage order for
// same-timestamp events, as under a coarse or fake clock).
func History(events []Event, idPrefix string) []Event {
	var out []Event
	for _, e := range events {
		if matchPrefix(e.ID, idPrefix) || matchPrefix(e.Parent, idPrefix) {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Time.Equal(out[j].Time) {
			return out[i].Time.Before(out[j].Time)
		}
		return stageRank(out[i].Stage) < stageRank(out[j].Stage)
	})
	return out
}

func matchPrefix(id, prefix string) bool {
	return prefix != "" && len(id) >= len(prefix) && id[:len(prefix)] == prefix
}

// RenderHistory formats one artifact's history as a human-readable trace.
func RenderHistory(events []Event) string {
	if len(events) == 0 {
		return "no events\n"
	}
	var b []byte
	for _, e := range events {
		b = append(b, fmt.Sprintf("%s  %-13s %s\n",
			e.Time.UTC().Format("2006-01-02T15:04:05.000Z"), e.Stage, describe(e))...)
	}
	return string(b)
}

// featuresMatch reports whether a features event's heuristic and precise
// vectors agree exactly in every position.
func featuresMatch(e Event) bool {
	if len(e.FeatHeur) == 0 || len(e.FeatHeur) != len(e.FeatPrec) {
		return false
	}
	for i := range e.FeatHeur {
		if e.FeatHeur[i] != e.FeatPrec[i] {
			return false
		}
	}
	return true
}

// describe renders an event's stage-specific fields on one line.
func describe(e Event) string {
	s := "id=" + e.ID
	switch e.Stage {
	case StageMined:
		s += fmt.Sprintf(" item=%d", e.Item)
	case StageCorpusFilter, StageSampleFilter, StageDriverLoad:
		if e.Reason == "" {
			s += " accepted"
		} else {
			s += fmt.Sprintf(" rejected (%s)", e.Reason)
		}
		if e.Recovered {
			s += " shim-recovered"
		}
	case StageStaticFilter:
		if e.Reason == "" {
			s += " clean"
		} else {
			s += fmt.Sprintf(" rejected (%s)", e.Reason)
		}
		if e.Predicted != "" {
			s += fmt.Sprintf(" predicted=%q", e.Predicted)
		}
	case StageRewritten:
		s += fmt.Sprintf(" parent=%s kernels=%d", e.Parent, e.Kernels)
	case StageFeatures:
		s += fmt.Sprintf(" kernel=%s heur=%v prec=%v", e.Kernel, e.FeatHeur, e.FeatPrec)
		if featuresMatch(e) {
			s += " (match)"
		}
	case StageTrained:
		s += fmt.Sprintf(" backend=%s epoch=%d loss=%.4f", e.Variant, e.Epoch, e.Loss)
		if e.ClipRate > 0 {
			s += fmt.Sprintf(" clip=%.1f%%", e.ClipRate*100)
		}
		if e.TokensPerSec > 0 {
			s += fmt.Sprintf(" %.0f tok/s", e.TokensPerSec)
		}
		if e.CPUSeconds > 0 {
			s += fmt.Sprintf(" cpu=%.3fs", e.CPUSeconds)
		}
	case StageSampled:
		s += fmt.Sprintf(" attempt=%d", e.Item)
		if e.Model != "" {
			s += fmt.Sprintf(" model=%s", e.Model)
		}
	case StageFootprint:
		s += fmt.Sprintf(" size=%d", e.Size)
		for _, a := range e.Footprint {
			ext := "?"
			if a.Known {
				ext = fmt.Sprintf("[%s, %s]", a.Min, a.Max)
			}
			s += fmt.Sprintf(" %s=%s", a.Name, ext)
			if a.Resized {
				s += fmt.Sprintf("(resized to %d)", a.Elems)
			}
			if a.Overrun {
				s += "(overrun)"
			}
		}
	case StageChecked:
		s += fmt.Sprintf(" verdict=%q size=%d seed=%d", e.Verdict, e.Size, e.Seed)
		if e.Class != "" {
			s += " class=" + e.Class
		}
		if e.Fault != nil {
			op := "read"
			if e.Fault.Write {
				op = "write"
			}
			which := fmt.Sprintf("arg %d", e.Fault.Arg)
			if e.Fault.Arg < 0 {
				which = "anonymous buffer"
			}
			s += fmt.Sprintf(" fault=%s %s slot %d of %d", which, op, e.Fault.Slot, e.Fault.Len)
		}
	case StageMeasured:
		s += fmt.Sprintf(" system=%q", e.System)
		if e.Suite != "" {
			s += fmt.Sprintf(" suite=%s", e.Suite)
		}
		if e.Kernel != "" {
			s += fmt.Sprintf(" kernel=%s", e.Kernel)
		}
		s += fmt.Sprintf(" size=%d cpu=%.3fms gpu=%.3fms -> %s", e.Size, e.CPUms, e.GPUms, e.Oracle)
	case StagePredicted:
		verdict := "WRONG"
		if e.Predicted == e.Oracle {
			verdict = "ok"
		}
		s += fmt.Sprintf(" %s/%s %s fold=%s predicted=%s oracle=%s (%s)",
			e.Experiment, e.Variant, e.Kernel, e.Fold, e.Predicted, e.Oracle, verdict)
		if e.Speedup > 0 {
			s += fmt.Sprintf(" speedup=%.2fx vs %s", e.Speedup, e.Baseline)
		}
	}
	if e.CacheHit {
		s += " (cached)"
	}
	if e.DurMS > 0 {
		s += fmt.Sprintf(" (%.1fms)", e.DurMS)
	}
	return s
}
