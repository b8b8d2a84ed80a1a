// Command cllint runs the internal/analysis static analyzer (CFG +
// dataflow over the internal/clc AST) on OpenCL sources and prints
// file/line diagnostics, one per line:
//
//	file.cl:12:5: warning: [unused-arg] A: kernel argument b is never used
//
// Usage:
//
//	cllint file.cl [file2.cl ...]   lint the named files
//	cllint                          lint stdin
//	cllint -suites                  lint the seven built-in benchmark
//	                                suites (regression baseline; output
//	                                is deterministic and golden-diffable)
//	cllint -format json ...         emit diagnostics as JSON lines
//	                                (file, line, col, lint, severity, msg)
//	cllint -format sarif ...        emit one SARIF 2.1.0 document
//	cllint -footprints ...          also print each kernel's proven
//	                                per-pointer-argument access footprints
//	                                (symbolic extents affine in G)
//
// Identical diagnostics at the same position (same file, line, column,
// lint, severity, and message) are deduplicated before printing, in
// both output formats.
//
// Exit status is 0 when no Error-severity diagnostic was found, 1 when
// at least one input has an Error diagnostic or fails to parse, and 2
// on usage or I/O failure, including a -report or -perf-history file
// that cannot be written. Error-severity diagnostics are the ones the
// strict corpus filter (clgen -static-checks) rejects on.
//
// cllint takes the observability flags of the other binaries
// (cli.Register in internal/cli); -quiet both lowers the log level and
// suppresses the per-input summary on stderr. It runs no pipeline, so it
// rejects the pipeline flags (cli.RegisterPipeline) as usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"clgen/internal/analysis"
	"clgen/internal/clc"
	"clgen/internal/cli"
	"clgen/internal/corpus"
	"clgen/internal/suites"
)

func main() {
	var (
		suitesMode = flag.Bool("suites", false, "lint the built-in benchmark suites instead of files")
		format     = flag.String("format", "text", "output format: text, json, or sarif")
		footprints = flag.Bool("footprints", false, "print per-kernel pointer-argument access footprints")
	)
	tf := cli.Register(flag.CommandLine)
	flag.Parse()
	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(os.Stderr, "cllint: unknown -format %q (want text, json, or sarif)\n", *format)
		os.Exit(2)
	}
	rt, err := tf.Start("cllint")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cllint:", err)
		os.Exit(2)
	}

	p := newPrinter(os.Stdout, *format, *footprints)
	var failed bool
	if *suitesMode {
		failed = lintSuites(p, tf.Quiet)
	} else {
		failed, err = lintFiles(p, flag.Args(), tf.Quiet)
	}
	if ferr := p.flush(); err == nil {
		err = ferr
	}
	if cerr := rt.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cllint:", err)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

// diagJSON is the -format json wire format: one object per diagnostic,
// one per line, stable field names.
type diagJSON struct {
	File      string `json:"file"`
	Line      int    `json:"line"`
	Col       int    `json:"col"`
	Severity  string `json:"severity"`
	Lint      string `json:"lint"`
	Fn        string `json:"fn,omitempty"`
	Kernel    bool   `json:"kernel,omitempty"`
	Msg       string `json:"msg"`
	Predicted string `json:"predicted,omitempty"`
}

// footprintJSON is the -footprints wire format under -format json: one
// object per kernel, one per line.
type footprintJSON struct {
	File       string         `json:"file"`
	Kernel     string         `json:"kernel"`
	Footprints []footprintArg `json:"footprints"`
}

type footprintArg struct {
	Arg     int    `json:"arg"`
	Name    string `json:"name"`
	Extent  string `json:"extent"`
	Known   bool   `json:"known"`
	Written bool   `json:"written,omitempty"`
	Overrun bool   `json:"overrun,omitempty"`
}

// printer renders diagnostics in the selected format, deduplicating
// identical diagnostics at the same position (analyzing a file and then
// a unit split from it, or repeated helper inlining, can repeat one).
// SARIF output buffers results and emits one document on flush.
type printer struct {
	out        io.Writer
	format     string // "text", "json", or "sarif"
	footprints bool
	seen       map[string]bool
	sarif      []sarifResult
}

func newPrinter(out io.Writer, format string, footprints bool) *printer {
	return &printer{out: out, format: format, footprints: footprints, seen: map[string]bool{}}
}

// input resets the dedup scope: diagnostics dedup within one input, not
// across files (the same line/col/message in two files is two findings).
func (p *printer) input() { p.seen = map[string]bool{} }

func (p *printer) diag(prefix string, d analysis.Diagnostic) {
	key := fmt.Sprintf("%d:%d:%s:%d:%s:%s", d.Pos.Line, d.Pos.Col, d.Lint, d.Severity, d.Fn, d.Msg)
	if p.seen[key] {
		return
	}
	p.seen[key] = true
	switch p.format {
	case "json":
		enc := json.NewEncoder(p.out)
		enc.Encode(diagJSON{
			File: prefix, Line: d.Pos.Line, Col: d.Pos.Col,
			Severity: d.Severity.String(), Lint: d.Lint,
			Fn: d.Fn, Kernel: d.Kernel, Msg: d.Msg, Predicted: d.Predicted,
		})
	case "sarif":
		p.sarif = append(p.sarif, sarifResultFor(prefix, d.Lint,
			sarifLevel(d.Severity), d.Msg, d.Pos.Line, d.Pos.Col))
	default:
		fmt.Fprintln(p.out, analysis.FormatDiagnostic(prefix, d))
	}
}

// fail reports an input that did not survive the front end (preprocess,
// parse, or check); rendered as a diagnostic so machine formats stay
// valid.
func (p *printer) fail(prefix, lint string, err error) {
	switch p.format {
	case "json":
		json.NewEncoder(p.out).Encode(diagJSON{
			File: prefix, Severity: "error", Lint: lint, Msg: err.Error(),
		})
	case "sarif":
		p.sarif = append(p.sarif, sarifResultFor(prefix, lint, "error", err.Error(), 0, 0))
	default:
		fmt.Fprintf(p.out, "%s: %s: %v\n", prefix, lint, err)
	}
}

func (p *printer) report(prefix string, rep *analysis.Report) {
	p.input()
	for _, d := range rep.Diags {
		p.diag(prefix, d)
	}
	if p.footprints {
		p.foot(prefix, rep)
	}
}

// foot prints the per-kernel pointer-argument footprints (-footprints),
// kernels in name order. SARIF carries findings only, so footprints are
// skipped there.
func (p *printer) foot(prefix string, rep *analysis.Report) {
	if p.format == "sarif" {
		return
	}
	names := make([]string, 0, len(rep.Footprints))
	for name := range rep.Footprints {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fps := rep.Footprints[name]
		if p.format == "json" {
			fj := footprintJSON{File: prefix, Kernel: name, Footprints: []footprintArg{}}
			for _, f := range fps {
				fj.Footprints = append(fj.Footprints, footprintArg{
					Arg: f.Arg, Name: f.Name, Extent: f.String(),
					Known: f.Known(), Written: f.Written, Overrun: f.Overrun,
				})
			}
			json.NewEncoder(p.out).Encode(fj)
			continue
		}
		fmt.Fprintf(p.out, "%s: kernel %s footprints:\n", prefix, name)
		for _, f := range fps {
			marks := ""
			if f.Written {
				marks += " written"
			}
			if f.Overrun {
				marks += " overrun"
			}
			fmt.Fprintf(p.out, "  arg %d %s: %s%s\n", f.Arg, f.Name, f.String(), marks)
		}
	}
}

// flush completes document-oriented formats; line-oriented formats have
// already written everything.
func (p *printer) flush() error {
	if p.format != "sarif" {
		return nil
	}
	return writeSarif(p.out, p.sarif)
}

// lintFiles analyzes each named file (stdin when none) and reports
// whether any input produced an Error diagnostic or failed to parse.
func lintFiles(p *printer, paths []string, quiet bool) (failed bool, err error) {
	if len(paths) == 0 {
		src, err := io.ReadAll(os.Stdin)
		if err != nil {
			return false, err
		}
		return lintSource(p, "<stdin>", string(src), quiet), nil
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			return failed, err
		}
		if lintSource(p, path, string(src), quiet) {
			failed = true
		}
	}
	return failed, nil
}

// lintSource preprocesses, parses, checks and analyzes one translation
// unit. The shim preprocessor serves the same header set the corpus
// filter uses, so cllint sees kernels exactly as the pipeline does.
func lintSource(p *printer, prefix, src string, quiet bool) (failed bool) {
	expanded, err := corpus.ShimPreprocessor().Preprocess(src)
	if err != nil {
		p.fail(prefix, "preprocess error", err)
		return true
	}
	f, err := clc.Parse(expanded)
	if err != nil {
		p.fail(prefix, "parse error", err)
		return true
	}
	if err := clc.Check(f); err != nil {
		p.fail(prefix, "check error", err)
		return true
	}
	rep := analysis.Analyze(f)
	p.report(prefix, rep)
	if !quiet {
		fmt.Fprintf(os.Stderr, "%s: %d diagnostics, %d errors\n",
			prefix, len(rep.Diags), len(rep.Errors()))
	}
	return rep.HasErrors()
}

// lintSuites analyzes every built-in benchmark, prefixing diagnostics
// with the benchmark ID. Suite sources are pre-expanded, so they parse
// without the preprocessor; any diagnostic here is a candidate false
// positive, and internal/analysis's TestSuitesGolden pins them all.
func lintSuites(p *printer, quiet bool) (failed bool) {
	flagged, errors := 0, 0
	for _, b := range suites.All() {
		f, err := clc.Parse(b.Src)
		if err != nil {
			p.fail(b.ID(), "parse error", err)
			failed = true
			continue
		}
		if err := clc.Check(f); err != nil {
			p.fail(b.ID(), "check error", err)
			failed = true
			continue
		}
		rep := analysis.Analyze(f)
		p.report(b.ID(), rep)
		if len(rep.Diags) > 0 {
			flagged++
		}
		if rep.HasErrors() {
			errors++
			failed = true
		}
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "suites: %d benchmarks flagged, %d with errors\n", flagged, errors)
	}
	return failed
}
