// Package corpus implements the paper's §4.1 corpus assembly: the shim
// header of inferred types and constants (Listing 1), the rejection filter
// (compile + minimum static instruction count), and the full content-file →
// language-corpus pipeline with the statistics the paper reports (discard
// rates with and without the shim, kernel counts, vocabulary reduction).
package corpus

import (
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"time"

	"clgen/internal/analysis"
	"clgen/internal/clc"
	"clgen/internal/features"
	"clgen/internal/github"
	"clgen/internal/ir"
	"clgen/internal/journal"
	"clgen/internal/pool"
	"clgen/internal/rewriter"
	"clgen/internal/telemetry"
)

// MinInstructions is the rejection filter's minimum static instruction
// count (§4.1: "a minimum static instruction count of three").
const MinInstructions = 3

// ShimHeader is this reproduction's Listing 1: inferred type aliases and
// constants for OpenCL found in the wild, injected via `#include
// <clc/clc.h>` or by predefining the macros directly.
const ShimHeader = `/* Enable OpenCL features */
#define cl_clang_storage_class_specifiers
#define cl_khr_fp64

/* Inferred types */
typedef float FLOAT_T;
typedef float FLOAT_TYPE;
typedef unsigned int INDEX_TYPE;
typedef double REAL_T;
typedef double REAL_TYPE;
typedef float DATA_TYPE;
typedef int INT_TYPE;
typedef unsigned int UINT_TYPE;
typedef float VALUE_TYPE;

/* Inferred constants */
#define WG_SIZE 128
#define WORKGROUP_SIZE 128
#define GROUP_SIZE 128
#define BLOCK_SIZE 16
#define TILE_SIZE 16
#define LOCAL_SIZE 64
#define NUM_ELEMENTS 1024
#define DATA_SIZE 1024
#define ALPHA_CONST 2.5f
#define EPS 1e-6f
`

// ShimPreprocessor returns a preprocessor whose header table serves the
// shim for `#include <clc/clc.h>` and which predefines the shim contents so
// files that never wrote the include still resolve the identifiers —
// mirroring how the paper "injects" the shim.
func ShimPreprocessor() *clc.Preprocessor {
	return &clc.Preprocessor{
		Headers: map[string]string{
			"clc/clc.h": ShimHeader,
			"clc.h":     ShimHeader,
		},
		Defines: map[string]string{
			"cl_clang_storage_class_specifiers": "1",
			"cl_khr_fp64":                       "1",
			"WG_SIZE":                           "128",
			"WORKGROUP_SIZE":                    "128",
			"GROUP_SIZE":                        "128",
			"BLOCK_SIZE":                        "16",
			"TILE_SIZE":                         "16",
			"LOCAL_SIZE":                        "64",
			"NUM_ELEMENTS":                      "1024",
			"DATA_SIZE":                         "1024",
			"ALPHA_CONST":                       "2.5f",
			"EPS":                               "1e-6f",
		},
	}
}

// shimTypedefs is prepended to sources when filtering with the shim, to
// supply the inferred typedefs (the Defines table above only covers
// constants).
const shimTypedefs = `typedef float FLOAT_T;
typedef float FLOAT_TYPE;
typedef unsigned int INDEX_TYPE;
typedef double REAL_T;
typedef double REAL_TYPE;
typedef float DATA_TYPE;
typedef int INT_TYPE;
typedef unsigned int UINT_TYPE;
typedef float VALUE_TYPE;
`

// RejectReason classifies why the rejection filter discarded an input.
type RejectReason string

// Reject reasons.
const (
	Accepted           RejectReason = ""
	RejectPreprocess   RejectReason = "preprocess error"
	RejectParse        RejectReason = "parse error"
	RejectCheck        RejectReason = "semantic error"
	RejectNoKernel     RejectReason = "no kernel function"
	RejectTooFewInstrs RejectReason = "fewer than 3 static instructions"
)

// StaticReason labels a rejection produced by the static analyzer, naming
// the blocking lint ("static: oob-index"). Static reasons extend the base
// RejectReason values in Stats.Reasons and journal filter events.
func StaticReason(lint string) RejectReason {
	return RejectReason("static: " + lint)
}

// FilterOpts configures the rejection filter.
type FilterOpts struct {
	// Shim injects the §4.1 shim header of inferred types and constants.
	Shim bool
	// Static additionally runs the internal/analysis CFG+dataflow passes
	// (strict mode): error-severity diagnostics reject the input, and dead
	// statements no longer count toward the instruction minimum.
	Static bool
}

// FilterResult is the outcome of the rejection filter on one input.
type FilterResult struct {
	OK     bool
	Reason RejectReason
	File   *clc.File // parsed file when OK
	Instrs int       // static instruction count when compiled
	// Static is the analyzer's report (FilterOpts.Static only), retained
	// for compiling inputs even when they are rejected.
	Static *analysis.Report
	// Predicted is the analyzer's §5.2 forecast for the first kernel — the
	// one the driver would load ("" = expected to pass the checker).
	Predicted string
	// StaticReject marks rejections the static analyzer caused: the input
	// compiles and would have been accepted by the base filter.
	StaticReject bool
}

// Filter runs the §4.1 rejection filter: attempt to compile the input (our
// analogue of compiling to NVIDIA PTX) and require at least
// MinInstructions static instructions. withShim injects the shim header.
func Filter(src string, withShim bool) FilterResult {
	return FilterEx(src, FilterOpts{Shim: withShim})
}

// FilterEx is Filter with full options.
func FilterEx(src string, opts FilterOpts) FilterResult {
	var pp *clc.Preprocessor
	if opts.Shim {
		pp = ShimPreprocessor()
		src = shimTypedefs + src
	} else {
		pp = &clc.Preprocessor{}
	}
	expanded, err := pp.Preprocess(src)
	if err != nil {
		return FilterResult{Reason: RejectPreprocess}
	}
	f, err := clc.Parse(expanded)
	if err != nil {
		return FilterResult{Reason: RejectParse}
	}
	if err := clc.Check(f); err != nil {
		return FilterResult{Reason: RejectCheck}
	}
	if len(f.Kernels()) == 0 {
		return FilterResult{Reason: RejectNoKernel}
	}
	prog := ir.Lower(f)
	n := prog.StaticInstructionCount()
	if n < MinInstructions {
		return FilterResult{Reason: RejectTooFewInstrs, Instrs: n}
	}
	res := FilterResult{OK: true, File: f, Instrs: n}
	if opts.Static {
		rep := analysis.Analyze(f)
		res.Static = rep
		res.Predicted = rep.PredictedVerdict(f.Kernels()[0].Name)
		if d := rep.PrimaryError(); d != nil {
			res.OK, res.File = false, nil
			res.Reason, res.StaticReject = StaticReason(d.Lint), true
			return res
		}
		if n-rep.DeadOps < MinInstructions {
			// Dead statements don't count toward the §4.1 instruction
			// minimum in strict mode: a kernel of provably unread stores
			// is as empty as one with no stores at all.
			res.OK, res.File = false, nil
			res.Reason, res.StaticReject = StaticReason("dead-code"), true
			return res
		}
	}
	return res
}

// FilterSample applies the rejection filter to a model-synthesized kernel
// (§4.3 reuses the same filter; samples never need the shim).
func FilterSample(src string) FilterResult {
	return Filter(src, false)
}

// Stats summarizes one corpus build, mirroring the quantities of §4.1.
type Stats struct {
	Files         int // content files in
	Lines         int // raw line count in
	AcceptedFiles int
	AcceptedLines int
	// Discard rates over files, without and with the shim header.
	DiscardRateNoShim float64
	DiscardRateShim   float64
	Kernels           int // kernel functions in the final corpus
	CorpusLines       int // lines after rewriting
	// Bag-of-words identifier vocabulary before and after rewriting.
	VocabBefore int
	VocabAfter  int
	// Rejection reasons (with shim), for diagnostics.
	Reasons map[RejectReason]int
}

// VocabReduction returns the fractional reduction in identifier vocabulary
// achieved by the rewriter (the paper reports 84%).
func (s *Stats) VocabReduction() float64 {
	if s.VocabBefore == 0 {
		return 0
	}
	return 1 - float64(s.VocabAfter)/float64(s.VocabBefore)
}

// Corpus is the final language corpus: rewritten, concatenated OpenCL.
type Corpus struct {
	Text    string
	Kernels []string // individual rewritten kernels (one file each)
	Stats   Stats
}

// fileOutcome is the result of the per-file pipeline stage: everything
// Build's sequential aggregation needs, computed by one pure function of
// the content file so the fan-out parallelizes without ordering effects.
type fileOutcome struct {
	lines          int
	noShimRejected bool
	reason         RejectReason // Accepted when the file survived
	identsBefore   map[string]bool
	units          []unitOutcome
	featPairs      []featPair // per-kernel heuristic/precise feature vectors
	err            error
	durMS          float64 // wall time of the per-file stage, for the journal
	cacheHit       bool    // outcome served by internal/cache, for the journal
}

// featPair carries one kernel's static feature vector under both
// extraction modes (journal.FeatureNames order). Computed only in
// precise mode, where the feature-agreement journal events need both.
type featPair struct {
	kernel     string
	heur, prec []float64
}

// unitOutcome is one rewritten per-kernel unit of an accepted file.
type unitOutcome struct {
	text        string
	kernels     int
	identsAfter map[string]bool
}

// processFile runs the heavy per-file work of §4.1 — both rejection-filter
// passes, shim stripping, kernel-unit splitting, and rewriting — with no
// shared state.
func processFile(cf github.ContentFile, static bool) (o fileOutcome) {
	start := time.Now()
	defer func() { o.durMS = float64(time.Since(start)) / float64(time.Millisecond) }()
	o = fileOutcome{lines: cf.Lines()}
	o.noShimRejected = !Filter(cf.Text, false).OK
	res := FilterEx(cf.Text, FilterOpts{Shim: true, Static: static})
	if !res.OK {
		o.reason = res.Reason
		return o
	}
	stripShimDecls(res.File)
	if features.Precise() {
		o.featPairs = featurePairs(res.File)
	}
	o.identsBefore = map[string]bool{}
	collectIdents(res.File, o.identsBefore)
	// Split the file into per-kernel units — the corpus is a collection
	// of kernel functions (§4.1 reports 9487 of them), each carrying
	// the helper functions it calls — then rewrite every unit from a
	// clean slate so identifier numbering is consistent corpus-wide.
	for _, unit := range splitKernelUnits(res.File) {
		normalized := rewriter.NormalizeParsed(unit)
		reparsed, err := clc.Parse(normalized)
		if err != nil {
			o.err = fmt.Errorf("corpus: rewritten unit no longer parses: %w", err)
			return o
		}
		idents := map[string]bool{}
		collectIdents(reparsed, idents)
		o.units = append(o.units, unitOutcome{
			text:        normalized,
			kernels:     len(reparsed.Kernels()),
			identsAfter: idents,
		})
	}
	return o
}

// featurePairs extracts every kernel's static features under both the
// heuristic and the precise mode, paired by kernel name, for the
// feature-agreement journal events. Extraction errors drop the file's
// pairs rather than the file — agreement reporting is observability,
// not a filter stage.
func featurePairs(f *clc.File) []featPair {
	ps, err := features.Pairs(f)
	if err != nil {
		return nil
	}
	pairs := make([]featPair, len(ps))
	for i, p := range ps {
		pairs[i] = featPair{kernel: p.Kernel, heur: p.Heur, prec: p.Prec}
	}
	return pairs
}

// Build runs the full pipeline over mined content files: rejection
// filtering (recording the no-shim discard rate for comparison), code
// rewriting, and corpus concatenation. Per-file work fans out over the
// pool's default worker count; see BuildEx.
func Build(files []github.ContentFile) (*Corpus, error) {
	return BuildEx(files, BuildOpts{})
}

// BuildOpts configures a corpus build.
type BuildOpts struct {
	// Workers is the per-file fan-out width (<= 0 means the pool default).
	Workers int
	// Static enables the analyzer-backed strict mode of the rejection
	// filter (FilterOpts.Static) on every content file.
	Static bool
}

// BuildEx is Build with full options. The per-file stage is pure and
// results are aggregated in file order, so the corpus is byte-identical
// for every worker count.
func BuildEx(files []github.ContentFile, opts BuildOpts) (*Corpus, error) {
	span := telemetry.Start("corpus.build")
	defer span.End()
	reg := telemetry.Default()
	c := &Corpus{}
	c.Stats.Reasons = map[RejectReason]int{}
	var rejectedNoShim int
	identsBefore := map[string]bool{}
	identsAfter := map[string]bool{}
	var text strings.Builder

	outcomes := pool.Map(opts.Workers, len(files), func(i int) fileOutcome {
		o, _ := processFileCached(files[i], opts.Static)
		return o
	})
	// Journal emission happens here in the ordered fold (not in the worker
	// fn) so the event stream is deterministic for every worker count.
	for i, o := range outcomes {
		var fileID string
		if journal.Enabled() {
			fileID = journal.ID(files[i].Text)
			journal.Emit(journal.Event{ID: fileID, Stage: journal.StageMined, Item: i})
		}
		c.Stats.Files++
		c.Stats.Lines += o.lines
		reg.Counter("corpus_files_total", "Content files entering the rejection filter.").Inc()
		if o.noShimRejected {
			rejectedNoShim++
		}
		if o.reason != Accepted {
			c.Stats.Reasons[o.reason]++
			reg.Counter(telemetry.Label("corpus_files_discarded_total", "reason", string(o.reason)),
				"Content files discarded by the rejection filter, by reason.").Inc()
			journal.Emit(journal.Event{ID: fileID, Stage: journal.StageCorpusFilter,
				Reason: string(o.reason), CacheHit: o.cacheHit, DurMS: o.durMS})
			continue
		}
		if o.err != nil {
			return nil, o.err
		}
		if o.noShimRejected {
			// The shim header recovered a file the bare filter discarded
			// (the paper's 40% -> 32% discard-rate improvement).
			reg.Counter("corpus_shim_recovered_total",
				"Files rejected without the shim header but accepted with it.").Inc()
		}
		reg.Counter("corpus_files_accepted_total", "Content files surviving the rejection filter.").Inc()
		journal.Emit(journal.Event{ID: fileID, Stage: journal.StageCorpusFilter,
			Recovered: o.noShimRejected, CacheHit: o.cacheHit, DurMS: o.durMS})
		if journal.Enabled() {
			for _, p := range o.featPairs {
				journal.Emit(journal.Event{ID: fileID, Stage: journal.StageFeatures,
					Kernel: p.kernel, FeatHeur: p.heur, FeatPrec: p.prec})
			}
		}
		c.Stats.AcceptedFiles++
		c.Stats.AcceptedLines += o.lines
		for id := range o.identsBefore {
			identsBefore[id] = true
		}
		for _, u := range o.units {
			for id := range u.identsAfter {
				identsAfter[id] = true
			}
			if journal.Enabled() {
				journal.Emit(journal.Event{ID: journal.ID(u.text), Stage: journal.StageRewritten,
					Parent: fileID, Kernels: u.kernels})
			}
			c.Stats.Kernels += u.kernels
			c.Kernels = append(c.Kernels, u.text)
			text.WriteString(u.text)
			text.WriteString("\n")
		}
	}
	if c.Stats.AcceptedFiles == 0 {
		return nil, fmt.Errorf("corpus: no content file survived the rejection filter")
	}
	c.Text = text.String()
	c.Stats.CorpusLines = strings.Count(c.Text, "\n")
	c.Stats.VocabBefore = len(identsBefore)
	c.Stats.VocabAfter = len(identsAfter)
	if c.Stats.Files > 0 {
		c.Stats.DiscardRateNoShim = float64(rejectedNoShim) / float64(c.Stats.Files)
		c.Stats.DiscardRateShim = float64(c.Stats.Files-c.Stats.AcceptedFiles) / float64(c.Stats.Files)
	}
	reg.Counter("corpus_kernels_total", "Kernel functions entering the language corpus.").
		Add(int64(c.Stats.Kernels))
	span.SetAttr("files", c.Stats.Files).SetAttr("accepted", c.Stats.AcceptedFiles).
		SetAttr("kernels", c.Stats.Kernels)
	slog.Debug("corpus built",
		"files", c.Stats.Files, "accepted", c.Stats.AcceptedFiles,
		"kernels", c.Stats.Kernels, "discard_shim", c.Stats.DiscardRateShim,
		"discard_noshim", c.Stats.DiscardRateNoShim)
	return c, nil
}

// splitKernelUnits decomposes a translation unit into one unit per kernel,
// each containing the file's non-function declarations, the transitive
// closure of helper functions the kernel calls, and the kernel itself.
// Units are re-parsed from printed source so they share no AST nodes with
// the original (the rewriter mutates in place).
func splitKernelUnits(f *clc.File) []*clc.File {
	var shared []clc.Decl
	funcs := map[string]*clc.FuncDecl{}
	for _, d := range f.Decls {
		switch x := d.(type) {
		case *clc.FuncDecl:
			if x.Body != nil {
				funcs[x.Name] = x
			}
		case *clc.VarDecl, *clc.StructDecl:
			shared = append(shared, d)
		}
	}
	var units []*clc.File
	for _, k := range f.Kernels() {
		if k.Body == nil {
			continue
		}
		var helperNames []string
		seen := map[string]bool{k.Name: true}
		var visit func(fd *clc.FuncDecl)
		visit = func(fd *clc.FuncDecl) {
			clc.Walk(fd.Body, func(n clc.Node) bool {
				call, ok := n.(*clc.CallExpr)
				if !ok {
					return true
				}
				if h, isUser := funcs[call.Fun]; isUser && !seen[call.Fun] {
					seen[call.Fun] = true
					visit(h)
					helperNames = append(helperNames, call.Fun)
				}
				return true
			})
		}
		visit(k)
		decls := append([]clc.Decl(nil), shared...)
		for _, hn := range helperNames {
			decls = append(decls, funcs[hn])
		}
		decls = append(decls, k)
		src := clc.PrintFile(&clc.File{Decls: decls})
		nf, err := clc.Parse(src)
		if err != nil || clc.Check(nf) != nil {
			continue
		}
		units = append(units, nf)
	}
	return units
}

// shimDeclNames are the typedef names injected by the filter; their
// declarations must not leak into the language corpus.
var shimDeclNames = map[string]bool{
	"FLOAT_T": true, "FLOAT_TYPE": true, "INDEX_TYPE": true, "REAL_T": true,
	"REAL_TYPE": true, "DATA_TYPE": true, "INT_TYPE": true, "UINT_TYPE": true,
	"VALUE_TYPE": true,
}

// stripShimDecls removes the typedef declarations that Filter prepended.
// Type resolution already happened at parse time, so dropping the nodes is
// safe.
func stripShimDecls(f *clc.File) {
	var kept []clc.Decl
	for _, d := range f.Decls {
		if td, ok := d.(*clc.TypedefDecl); ok && shimDeclNames[td.Name] {
			continue
		}
		kept = append(kept, d)
	}
	f.Decls = kept
}

// collectIdents gathers the identifier bag-of-words of a file: declared
// names and references (function names, variables, parameters).
func collectIdents(f *clc.File, into map[string]bool) {
	clc.Walk(f, func(n clc.Node) bool {
		switch x := n.(type) {
		case *clc.FuncDecl:
			into[x.Name] = true
			for _, p := range x.Params {
				if p.Name != "" {
					into[p.Name] = true
				}
			}
		case *clc.VarDecl:
			into[x.Name] = true
		case *clc.Ident:
			into[x.Name] = true
		case *clc.CallExpr:
			into[x.Fun] = true
		}
		return true
	})
}

// ReasonsSummary renders the rejection-reason histogram, most common
// first, for diagnostics and the clexp corpus report.
func (s *Stats) ReasonsSummary() string {
	type rc struct {
		r RejectReason
		n int
	}
	var rcs []rc
	for r, n := range s.Reasons {
		rcs = append(rcs, rc{r, n})
	}
	sort.Slice(rcs, func(i, j int) bool {
		if rcs[i].n != rcs[j].n {
			return rcs[i].n > rcs[j].n
		}
		return rcs[i].r < rcs[j].r
	})
	var b strings.Builder
	for _, x := range rcs {
		fmt.Fprintf(&b, "%6d  %s\n", x.n, x.r)
	}
	return b.String()
}
