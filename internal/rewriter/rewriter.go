// Package rewriter implements the paper's §4.1 code rewriter: it removes
// preprocessor directives and comments, rewrites identifiers to short
// sequential names ({a, b, c, ...} for variables, {A, B, C, ...} for
// functions) based on order of appearance, and re-prints the program in a
// single canonical style. Unlike lossy prior work, the rewrite preserves
// program behavior: renaming is symbol-accurate, and language built-ins are
// never renamed.
package rewriter

import (
	"fmt"
	"sort"
	"strings"

	"clgen/internal/cache"
	"clgen/internal/clc"
)

// Version stamps cached normalization results (internal/cache). Bump it
// whenever renaming rules or the printer's canonical style change, so
// persistent caches recompute instead of serving stale rewrites.
const Version = "rewriter-v2"

// FuncName returns the i-th function name in the rewrite sequence:
// A, B, ..., Z, AA, AB, ...
func FuncName(i int) string { return seqName(i, 'A') }

func seqName(i int, base byte) string {
	// Bijective base-26 numbering.
	var buf [8]byte
	pos := len(buf)
	n := i + 1
	for n > 0 {
		n--
		pos--
		buf[pos] = base + byte(n%26)
		n /= 26
	}
	return string(buf[pos:])
}

// Normalize runs the full three-step rewrite on raw source: preprocess
// (macro expansion, comment and directive removal), identifier rewriting,
// and style normalization. The preprocessor pp may be nil for sources with
// no macros of interest.
func Normalize(src string, pp *clc.Preprocessor) (string, error) {
	if pp == nil {
		pp = &clc.Preprocessor{}
	}
	expanded, err := pp.Preprocess(src)
	if err != nil {
		return "", fmt.Errorf("rewriter: %w", err)
	}
	f, err := clc.Parse(expanded)
	if err != nil {
		return "", fmt.Errorf("rewriter: %w", err)
	}
	if err := clc.Check(f); err != nil {
		return "", fmt.Errorf("rewriter: %w", err)
	}
	Rename(f)
	return clc.PrintFile(f), nil
}

// NormalizeParsed rewrites an already parsed and checked file in place and
// returns the canonical source.
func NormalizeParsed(f *clc.File) string {
	Rename(f)
	return clc.PrintFile(f)
}

var normalizeMemo = cache.New(cache.Config[string]{
	Name:    "rewrite",
	Version: Version,
	Size:    func(s string) int { return len(s) },
})

// NormalizeCached is Normalize behind the "rewrite" memo, keyed by the
// source and the preprocessor's (deterministically serialized) header and
// define tables. Normalization errors are never cached.
func NormalizeCached(src string, pp *clc.Preprocessor) (string, error) {
	key := cache.Key(ppKey(pp), src)
	s, _, err := normalizeMemo.Do(key, func() (string, error) {
		return Normalize(src, pp)
	})
	return s, err
}

// ppKey serializes a preprocessor configuration into a stable cache-key
// part: both tables rendered in sorted key order.
func ppKey(pp *clc.Preprocessor) string {
	if pp == nil {
		return ""
	}
	var b strings.Builder
	writeTable := func(tag string, m map[string]string) {
		b.WriteString(tag)
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%q=%q;", k, m[k])
		}
	}
	writeTable("headers:", pp.Headers)
	writeTable("defines:", pp.Defines)
	return b.String()
}

// Rename rewrites all user-defined identifiers in f, in order of first
// appearance: functions to A, B, C, ... and variables (globals, parameters,
// and locals) to a, b, c, .... Built-in functions, predeclared constants,
// type names, struct field names, and vector components are left intact.
// Each distinct symbol receives a distinct name, so shadowing cannot change
// program behavior.
func Rename(f *clc.File) {
	r := &renamer{
		funcRenames: map[string]string{},
	}
	// Pass 1: functions, in declaration order.
	for _, d := range f.Decls {
		if fd, ok := d.(*clc.FuncDecl); ok {
			if _, seen := r.funcRenames[fd.Name]; !seen {
				r.funcRenames[fd.Name] = FuncName(len(r.funcRenames))
			}
		}
	}
	// Pass 2: variables, scope-accurately.
	global := newScope(nil)
	for _, d := range f.Decls {
		switch x := d.(type) {
		case *clc.VarDecl:
			if x.Init != nil {
				r.expr(x.Init, global)
			}
			x.Name = r.fresh(global, x.Name)
		case *clc.FuncDecl:
			x.Name = r.funcRenames[x.Name]
			fnScope := newScope(global)
			for _, p := range x.Params {
				p.Name = r.fresh(fnScope, p.Name)
			}
			if x.Body != nil {
				r.block(x.Body, fnScope)
			}
		}
	}
}

type renamer struct {
	funcRenames map[string]string
	nextVar     int // index of the next candidate in the a, b, ... sequence
}

type scope struct {
	parent  *scope
	renames map[string]string
}

func newScope(parent *scope) *scope {
	return &scope{parent: parent, renames: map[string]string{}}
}

func (s *scope) lookup(name string) (string, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if n, ok := sc.renames[name]; ok {
			return n, true
		}
	}
	return "", false
}

// fresh assigns the next variable name in the sequence a, b, ..., z, aa,
// ab, ... to old in scope s. Names OpenCL C reserves are skipped: keywords
// such as "do" and "if", built-in types such as "int" and built-in
// functions such as "abs". A variable named after one would not parse, or
// would shadow the built-in.
func (r *renamer) fresh(s *scope, old string) string {
	name := seqName(r.nextVar, 'a')
	r.nextVar++
	for clc.IsKeyword(name) || clc.LookupBuiltinType(name) != nil || clc.LookupBuiltin(name) != nil {
		name = seqName(r.nextVar, 'a')
		r.nextVar++
	}
	s.renames[old] = name
	return name
}

func (r *renamer) block(b *clc.BlockStmt, parent *scope) {
	s := newScope(parent)
	for _, st := range b.Stmts {
		r.stmt(st, s)
	}
}

func (r *renamer) stmt(st clc.Stmt, s *scope) {
	switch x := st.(type) {
	case *clc.BlockStmt:
		r.block(x, s)
	case *clc.DeclStmt:
		for _, d := range x.Decls {
			if d.Init != nil {
				r.expr(d.Init, s)
			}
			d.Name = r.fresh(s, d.Name)
		}
	case *clc.ExprStmt:
		r.expr(x.X, s)
	case *clc.IfStmt:
		r.expr(x.Cond, s)
		r.stmt(x.Then, newScope(s))
		if x.Else != nil {
			r.stmt(x.Else, newScope(s))
		}
	case *clc.ForStmt:
		loop := newScope(s)
		if x.Init != nil {
			r.stmt(x.Init, loop)
		}
		if x.Cond != nil {
			r.expr(x.Cond, loop)
		}
		if x.Post != nil {
			r.expr(x.Post, loop)
		}
		r.stmt(x.Body, newScope(loop))
	case *clc.WhileStmt:
		r.expr(x.Cond, s)
		r.stmt(x.Body, newScope(s))
	case *clc.DoWhileStmt:
		r.stmt(x.Body, newScope(s))
		r.expr(x.Cond, s)
	case *clc.ReturnStmt:
		if x.X != nil {
			r.expr(x.X, s)
		}
	case *clc.SwitchStmt:
		r.expr(x.Tag, s)
		for _, c := range x.Cases {
			if c.Value != nil {
				r.expr(c.Value, s)
			}
			cs := newScope(s)
			for _, bs := range c.Body {
				r.stmt(bs, cs)
			}
		}
	}
}

func (r *renamer) expr(e clc.Expr, s *scope) {
	switch x := e.(type) {
	case *clc.Ident:
		if n, ok := s.lookup(x.Name); ok {
			x.Name = n
		}
		// Unresolved identifiers are predeclared constants (M_PI, ...):
		// leave them alone.
	case *clc.BinaryExpr:
		r.expr(x.X, s)
		r.expr(x.Y, s)
	case *clc.AssignExpr:
		r.expr(x.X, s)
		r.expr(x.Y, s)
	case *clc.UnaryExpr:
		r.expr(x.X, s)
	case *clc.PostfixExpr:
		r.expr(x.X, s)
	case *clc.CondExpr:
		r.expr(x.Cond, s)
		r.expr(x.A, s)
		r.expr(x.B, s)
	case *clc.CallExpr:
		if n, ok := r.funcRenames[x.Fun]; ok {
			x.Fun = n
		}
		for _, a := range x.Args {
			r.expr(a, s)
		}
	case *clc.IndexExpr:
		r.expr(x.X, s)
		r.expr(x.Index, s)
	case *clc.MemberExpr:
		r.expr(x.X, s)
	case *clc.CastExpr:
		r.expr(x.X, s)
	case *clc.ArgPack:
		for _, a := range x.Args {
			r.expr(a, s)
		}
	case *clc.InitList:
		for _, el := range x.Elems {
			r.expr(el, s)
		}
	case *clc.SizeofExpr:
		if x.X != nil {
			r.expr(x.X, s)
		}
	}
}
