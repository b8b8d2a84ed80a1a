package analysis

import (
	"fmt"

	"clgen/internal/clc"
)

// This file implements the interprocedural symbolic footprint analysis:
// for every kernel pointer argument, a conservative bound on the element
// indices the kernel may access through it, derived by replaying the
// access-region machinery (regions.go) through the symbolic-affine
// domain of symexpr.go and accumulating callee contributions across call
// sites like featurepass.go does. The driver uses the upper extent to
// enlarge §5.1 payload buffers under -footprint-sizing; the analyzer
// gains two lints from the same replay:
//
//   - buffer-overrun (Error): a must-executing access with an exactly
//     attained index provably exceeds the §5.1 extent at every driven
//     size G >= 2 — the four-execution checker is forecast to crash at
//     default sizing (and the kernel is exactly the rescue candidate for
//     -footprint-sizing).
//   - alias-hazard (Warn): two global pointer arguments have overlapping
//     proven footprints and at least one is written — a host that passed
//     aliasing buffers would change the §5.2 verdict.
//
// Soundness contract (checked by the differential test): for every
// argument whose footprint is Known, the max element offset any executed
// work item touches is <= the proven extent resolved at the run's G.
// Accesses whose base does not resolve to a pointer parameter (pointer
// aliases, unknown arithmetic) poison the whole kernel — address spaces
// are unreliable across unqualified callee pointers, so a partial poison
// cannot be trusted. The extents are may-analysis: conditional accesses
// count, provably dead code does not.

// Attribution sentinels for footAccess.arg / footPtrArg.arg.
const (
	argPoison = -1 // unknown base: may touch any pointer argument
	argIgnore = -2 // distinct named object (fixed-size array): not an argument
)

// Expansion budgets: beyond them the kernel degrades to poison instead
// of spending unbounded time on pathological call graphs.
const (
	footMaxDepth    = 8
	footMaxAccesses = 4096
)

// footAccess is one memory access in terms of the enclosing function:
// element offsets relative to the pointer parameter `arg`.
type footAccess struct {
	pos   clc.Pos
	arg   int
	write bool
	must  bool // executes on every run (call-site must folded in)
	idx   symIval
}

// footPtrArg maps one pointer actual at a call site: the enclosing
// function's parameter it aliases (or a sentinel) plus the element
// offset added by pointer arithmetic.
type footPtrArg struct {
	arg int
	off symIval
}

// footCall is one user-function call site with its argument bindings,
// both in the enclosing function's terms.
type footCall struct {
	pos    clc.Pos
	callee string
	must   bool
	ptr    map[int]footPtrArg
	scal   map[int]symIval
}

// footSummary is one function's own accesses and outgoing calls.
type footSummary struct {
	accesses []footAccess
	calls    []footCall
}

// footprinter expands per-function summaries into kernel-level
// footprints, lazily and memoized per file.
type footprinter struct {
	infos   map[string]*fnInfo
	defined map[string]bool
	sums    map[string]*footSummary
}

func newFootprinter(f *clc.File, infos map[string]*fnInfo) *footprinter {
	defined := make(map[string]bool, len(infos))
	for name := range infos {
		defined[name] = true
	}
	return &footprinter{infos: infos, defined: defined, sums: make(map[string]*footSummary)}
}

func (fp *footprinter) summary(name string) *footSummary {
	if s, ok := fp.sums[name]; ok {
		return s
	}
	info := fp.infos[name]
	if info == nil {
		s := &footSummary{}
		fp.sums[name] = s
		return s
	}
	s := collectFoot(info, fp.defined)
	fp.sums[name] = s
	return s
}

// kernel expands one kernel's accesses (own plus substituted callees)
// and assembles its per-argument footprints.
func (fp *footprinter) kernel(info *fnInfo) ([]ArgFootprint, []footAccess) {
	var accs []footAccess
	// Collect the root summary from this exact definition (duplicate
	// kernel names would otherwise resolve to the first definition).
	sum := collectFoot(info, fp.defined)
	fp.expandSum(sum, nil, 0, map[string]bool{info.fn.Name: true}, &accs)
	return assembleFootprints(info, accs), accs
}

// footCtx translates callee-local terms to kernel terms during
// expansion: parameter index -> kernel attribution / symbolic value.
type footCtx struct {
	must bool
	ptr  map[int]footPtrArg
	scal map[int]symIval
}

func (fp *footprinter) expandSum(sum *footSummary, ctx *footCtx, depth int, stack map[string]bool, out *[]footAccess) {
	for _, a := range sum.accesses {
		if len(*out) >= footMaxAccesses {
			*out = append(*out, poisonAccess(a.pos))
			return
		}
		t := translateFootAccess(a, ctx)
		if t.arg == argIgnore {
			continue
		}
		*out = append(*out, t)
	}
	for _, c := range sum.calls {
		if len(*out) >= footMaxAccesses {
			*out = append(*out, poisonAccess(c.pos))
			return
		}
		if stack[c.callee] || depth >= footMaxDepth {
			// Recursion (or pathological depth): give up on attribution.
			*out = append(*out, poisonAccess(c.pos))
			continue
		}
		child := composeCtx(ctx, c)
		stack[c.callee] = true
		fp.expandSum(fp.summary(c.callee), child, depth+1, stack, out)
		delete(stack, c.callee)
	}
}

func poisonAccess(pos clc.Pos) footAccess {
	return footAccess{pos: pos, arg: argPoison, write: true}
}

// translateFootAccess rewrites a callee access into kernel terms via the
// call context; ctx == nil is the kernel's own frame (identity).
func translateFootAccess(a footAccess, ctx *footCtx) footAccess {
	if ctx == nil {
		return a
	}
	r := a
	r.must = a.must && ctx.must
	if a.arg < 0 {
		return r
	}
	pa, ok := ctx.ptr[a.arg]
	if !ok || pa.arg == argPoison {
		r.arg = argPoison
		return r
	}
	if pa.arg == argIgnore {
		r.arg = argIgnore
		return r
	}
	r.arg = pa.arg
	r.idx = addSymIval(substSymIval(a.idx, ctx.scal), pa.off)
	return r
}

// composeCtx builds the callee's translation context from the caller's
// context and the call-site bindings.
func composeCtx(ctx *footCtx, c footCall) *footCtx {
	child := &footCtx{must: c.must, ptr: make(map[int]footPtrArg, len(c.ptr)), scal: make(map[int]symIval, len(c.scal))}
	if ctx != nil {
		child.must = ctx.must && c.must
	}
	for i, pa := range c.ptr {
		npa := pa
		if ctx != nil && pa.arg >= 0 {
			npa.off = substSymIval(pa.off, ctx.scal)
			parent, ok := ctx.ptr[pa.arg]
			switch {
			case !ok || parent.arg == argPoison:
				npa = footPtrArg{arg: argPoison}
			case parent.arg == argIgnore:
				npa = footPtrArg{arg: argIgnore}
			default:
				npa.arg = parent.arg
				npa.off = addSymIval(npa.off, parent.off)
			}
		}
		child.ptr[i] = npa
	}
	for i, sv := range c.scal {
		if ctx != nil {
			sv = substSymIval(sv, ctx.scal)
		}
		child.scal[i] = sv
	}
	return child
}

// --- per-function replay -------------------------------------------------

// footCollector carries the per-function context of one footprint replay.
type footCollector struct {
	info       *fnInfo
	defined    map[string]bool
	reassigned map[*Var]bool
	writes     map[clc.Expr]*clc.AssignExpr
	leas       map[clc.Node]bool
	counted    map[clc.Node]bool
	out        footSummary
}

// collectFoot replays the interval analysis over the live blocks and
// records every access and user call in symbolic form.
func collectFoot(info *fnInfo, defined map[string]bool) *footSummary {
	ev := info.ev
	writes, leas := prewalkAccesses(info.fn)
	fc := &footCollector{
		info: info, defined: defined, reassigned: reassignedVars(info),
		writes: writes, leas: leas, counted: make(map[clc.Node]bool),
	}

	var curBlk *Block
	record := func(site clc.Node, base clc.Expr, v *Var, idx symIval) {
		if fc.counted[site] {
			return
		}
		fc.counted[site] = true
		a := footAccess{pos: site.NodePos(), idx: idx, must: info.must[curBlk]}
		if _, ok := fc.writes[site.(clc.Expr)]; ok {
			a.write = true
		}
		a.arg = fc.classify(base, v)
		if a.arg == argIgnore {
			return
		}
		if a.arg == argPoison {
			a.write = true // unknown target: assume the worst
		}
		fc.out.accesses = append(fc.out.accesses, a)
	}

	onAccess := func(e clc.Expr, _ ival, s *istate) {
		switch x := e.(type) {
		case *clc.IndexExpr:
			if fc.leas[x] {
				return // operand of &: address computation, no memory touched
			}
			if _, ok := x.X.ExprType().(*clc.VectorType); ok {
				return // component selection: a register, not memory
			}
			v, off, ok := fc.symPointerBase(s, x.X)
			if !ok {
				v, off = nil, symIval{}
			}
			record(x, x.X, v, addSymIval(off, fc.symOf(s, x.Index)))
		case *clc.UnaryExpr: // *(p + i)
			v, off, ok := fc.symPointerBase(s, x.X)
			if !ok {
				v, off = nil, symIval{}
			}
			record(x, x.X, v, off)
		}
	}
	onCall := func(x *clc.CallExpr, _ []ival, s *istate) {
		if fc.counted[x] {
			return
		}
		if fc.defined[x.Fun] {
			fc.counted[x] = true
			fc.recordCall(s, x, info.must[curBlk])
			return
		}
		n, ok := clc.VectorWidthOfName(x.Fun)
		if !ok || n == 0 {
			return
		}
		isStore := x.Fun[0] == 'v' && x.Fun[1] == 's' // vstoreN
		offIdx, ptrIdx := 0, 1
		if isStore {
			offIdx, ptrIdx = 1, 2
		}
		if len(x.Args) <= ptrIdx {
			return
		}
		fc.counted[x] = true
		v, off, okBase := fc.symPointerBase(s, x.Args[ptrIdx])
		if !okBase {
			v, off = nil, symIval{}
		}
		// vloadN(off, p) touches elements off*N .. off*N + N-1: a dense
		// per-work-item span, so both endpoints stay attained.
		span := scaleSymIval(fc.symOf(s, x.Args[offIdx]), int64(n))
		if span.ok {
			if hi := addSym(span.hi, symConst(int64(n-1))); hi.ok {
				span.hi = hi
			} else {
				span = symIval{}
			}
		}
		a := footAccess{pos: x.NodePos(), idx: addSymIval(span, off), must: info.must[curBlk], write: isStore}
		a.arg = fc.classify(x.Args[ptrIdx], v)
		if a.arg == argIgnore {
			return
		}
		if a.arg == argPoison {
			a.write = true
		}
		fc.out.accesses = append(fc.out.accesses, a)
	}

	ev.onAccess, ev.onCall = onAccess, onCall
	defer func() { ev.onAccess, ev.onCall = nil, nil }()
	for _, b := range info.g.Blocks {
		if !blockLive(info, b) {
			continue
		}
		curBlk = b
		cur := info.intervals.In[b].clone()
		for _, s := range b.Stmts {
			ev.execStmt(cur, s)
		}
		if b.Cond != nil {
			ev.exec(cur, b.Cond)
		}
	}
	return &fc.out
}

// classify attributes an access base: a pointer parameter's index, or a
// sentinel. Named fixed-size arrays are distinct objects (never an
// argument); everything else unresolved may alias any argument —
// unqualified callee pointers make address spaces unreliable, so there
// is no space-local poison.
func (fc *footCollector) classify(base clc.Expr, v *Var) int {
	switch base.ExprType().(type) {
	case *clc.PointerType:
		if v != nil && v.Kind == ParamVar {
			return v.Index
		}
		return argPoison
	case *clc.ArrayType:
		if v != nil && v.Decl != nil {
			return argIgnore
		}
		return argPoison
	}
	return argIgnore // register-resident: not memory traffic
}

// recordCall captures a user call's argument bindings.
func (fc *footCollector) recordCall(s *istate, x *clc.CallExpr, must bool) {
	c := footCall{
		pos: x.NodePos(), callee: x.Fun, must: must,
		ptr: make(map[int]footPtrArg), scal: make(map[int]symIval),
	}
	for i, a := range x.Args {
		t := a.ExprType()
		switch {
		case isPointerish(t):
			v, off, ok := fc.symPointerBase(s, a)
			if !ok {
				v, off = nil, symIval{}
			}
			pa := footPtrArg{arg: fc.classify(a, v), off: off}
			if pa.arg == argPoison {
				pa.off = symIval{}
			}
			c.ptr[i] = pa
		case isIntScalar(t):
			c.scal[i] = fc.symOf(s, a)
		}
	}
	fc.out.calls = append(fc.out.calls, c)
}

// reassignedVars collects every variable with a definition in the body;
// a parameter term is only valid while the parameter still holds its
// incoming value on every path to the access.
func reassignedVars(info *fnInfo) map[*Var]bool {
	re := make(map[*Var]bool)
	note := func(v *Var) {
		if v != nil {
			re[v] = true
		}
	}
	if info.fn.Body == nil {
		return re
	}
	clc.Walk(info.fn.Body, func(n clc.Node) bool {
		switch x := n.(type) {
		case *clc.AssignExpr:
			note(info.st.varOf(x.X))
		case *clc.UnaryExpr:
			if x.Op == clc.INC || x.Op == clc.DEC {
				note(info.st.varOf(x.X))
			}
		case *clc.PostfixExpr:
			note(info.st.varOf(x.X))
		}
		return true
	})
	return re
}

// symOf decomposes an integer expression into the symbolic-affine
// domain. Work-item queries and their single-definition copies become
// gid/lid terms; a non-kernel function's unmodified integer scalar
// parameters become parameter terms (substituted at call sites); sums,
// differences, and constant scales compose; anything else falls back to
// the interval analysis (affine in G), which in kernels also pins scalar
// parameters and get_global_size(0) to G.
func (fc *footCollector) symOf(s *istate, e clc.Expr) symIval {
	ev := fc.info.ev
	switch x := e.(type) {
	case *clc.IntLit:
		return symPoint(symConst(x.Value))
	case *clc.CharLit:
		return symPoint(symConst(x.Value))
	case *clc.Ident:
		if v := fc.info.st.uses[x]; v != nil {
			if ev.gidCopies[v] {
				return symPoint(symGid())
			}
			if ev.lidCopies[v] {
				return symPoint(symLid())
			}
			if !fc.info.fn.IsKernel && v.Kind == ParamVar && trackable(v) && !fc.reassigned[v] {
				return symPoint(symParam(v.Index))
			}
		}
	case *clc.CallExpr:
		switch workItemCall(x) {
		case "get_global_id":
			return symPoint(symGid())
		case "get_local_id":
			return symPoint(symLid())
		}
	case *clc.BinaryExpr:
		switch x.Op {
		case clc.ADD:
			return addSymIval(fc.symOf(s, x.X), fc.symOf(s, x.Y))
		case clc.SUB:
			return addSymIval(fc.symOf(s, x.X), scaleSymIval(fc.symOf(s, x.Y), -1))
		case clc.MUL:
			if c, ok := clc.ConstIntValue(x.X); ok {
				return scaleSymIval(fc.symOf(s, x.Y), c)
			}
			if c, ok := clc.ConstIntValue(x.Y); ok {
				return scaleSymIval(fc.symOf(s, x.X), c)
			}
		}
	case *clc.CastExpr:
		// Value-preserving integer widenings keep the decomposition.
		if st, ok := x.To.(*clc.ScalarType); ok && st.Kind.IsInteger() && st.Kind.Bits() >= 32 {
			return fc.symOf(s, x.X)
		}
		return symIvalFromIval(ev.pureIval(s, e))
	}
	return symIvalFromIval(ev.pureIval(s, e))
}

// symPointerBase mirrors ienv.pointerBase with symbolic offsets: it
// peels p, p + i, p - i, &p[i], and element-size-preserving casts down
// to a variable, accumulating the element offset symbolically.
func (fc *footCollector) symPointerBase(s *istate, e clc.Expr) (*Var, symIval, bool) {
	switch x := e.(type) {
	case *clc.Ident:
		if v := fc.info.st.uses[x]; v != nil {
			return v, symPoint(symConst(0)), true
		}
	case *clc.BinaryExpr:
		if x.Op != clc.ADD && x.Op != clc.SUB {
			return nil, symIval{}, false
		}
		if isPointerish(x.X.ExprType()) {
			v, off, ok := fc.symPointerBase(s, x.X)
			if !ok {
				return nil, symIval{}, false
			}
			d := fc.symOf(s, x.Y)
			if x.Op == clc.SUB {
				d = scaleSymIval(d, -1)
			}
			return v, addSymIval(off, d), true
		}
		if x.Op == clc.ADD && isPointerish(x.Y.ExprType()) {
			v, off, ok := fc.symPointerBase(s, x.Y)
			if !ok {
				return nil, symIval{}, false
			}
			return v, addSymIval(off, fc.symOf(s, x.X)), true
		}
	case *clc.CastExpr:
		if sameElemSize(x.To, x.X.ExprType()) {
			return fc.symPointerBase(s, x.X)
		}
	case *clc.UnaryExpr:
		if x.Op == clc.AND {
			if ix, ok := x.X.(*clc.IndexExpr); ok {
				v, off, ok := fc.symPointerBase(s, ix.X)
				if !ok {
					return nil, symIval{}, false
				}
				return v, addSymIval(off, fc.symOf(s, ix.Index)), true
			}
			return fc.symPointerBase(s, x.X)
		}
	}
	return nil, symIval{}, false
}

// --- footprint assembly --------------------------------------------------

// ArgFootprint is the proven access footprint of one kernel pointer
// argument: inclusive element-index bounds affine in G, valid for every
// G >= 1 under the §5.1 payload model.
type ArgFootprint struct {
	Arg       int // parameter position
	Name      string
	Space     clc.AddrSpace
	ElemBytes int64 // pointee size
	Accessed  bool  // some access may target this argument
	Written   bool  // some proven-attributed access writes it
	Overrun   bool  // some access provably exceeds the §5.1 extent (buffer-overrun)
	loOK      bool
	hiOK      bool
	lo, hi    bnd
	// uni holds the single attained offset range every access to this
	// argument uses, when that is exactly known (uniOK): the alias-hazard
	// lint uses it to recognize the benign per-work-item map idiom.
	uni   symIval
	uniOK bool
}

// Known reports whether both footprint bounds are proven.
func (a ArgFootprint) Known() bool { return a.loOK && a.hiOK }

// MaxElem returns the largest element index provably accessed at global
// size g; ok is false when the upper bound is symbolic-unknown. An
// argument with no accesses returns (-1, true): an empty footprint.
func (a ArgFootprint) MaxElem(g int64) (int64, bool) {
	if !a.Accessed {
		return -1, true
	}
	if !a.hiOK {
		return 0, false
	}
	return a.hi.a*g + a.hi.b, true
}

// MinElem is the smallest element index possibly accessed at global size
// g; ok is false when the lower bound is symbolic-unknown. An unaccessed
// argument reports -1 (no slot touched), mirroring MaxElem, so the
// min <= max invariant holds for empty footprints too.
func (a ArgFootprint) MinElem(g int64) (int64, bool) {
	if !a.Accessed {
		return -1, true
	}
	if !a.loOK {
		return 0, false
	}
	return a.lo.a*g + a.lo.b, true
}

// MinExpr renders the lower extent as an affine expression in G ("0",
// "G-1"), or "?" when unknown.
func (a ArgFootprint) MinExpr() string {
	if !a.Accessed {
		return "-"
	}
	if !a.loOK {
		return "?"
	}
	return fmtBnd(a.lo)
}

// MaxExpr renders the upper extent ("2*G-2"), or "?" when unknown.
func (a ArgFootprint) MaxExpr() string {
	if !a.Accessed {
		return "-"
	}
	if !a.hiOK {
		return "?"
	}
	return fmtBnd(a.hi)
}

// String renders the footprint for cllint -footprints and journal
// events: "[0, 2*G-2]", "unused", or "?".
func (a ArgFootprint) String() string {
	switch {
	case !a.Accessed:
		return "unused"
	case !a.loOK && !a.hiOK:
		return "?"
	}
	return fmt.Sprintf("[%s, %s]", a.MinExpr(), a.MaxExpr())
}

// assembleFootprints folds expanded accesses into per-argument bounds.
func assembleFootprints(info *fnInfo, accs []footAccess) []ArgFootprint {
	var fps []ArgFootprint
	idxOf := make(map[int]int)
	for _, p := range info.st.params {
		pt, ok := p.Type.(*clc.PointerType)
		if !ok {
			continue
		}
		idxOf[p.Index] = len(fps)
		fps = append(fps, ArgFootprint{
			Arg: p.Index, Name: p.Name, Space: pt.Space,
			ElemBytes: int64(pt.Elem.Size()), loOK: true, hiOK: true,
		})
	}
	poisoned := false
	for _, a := range accs {
		if a.arg == argPoison {
			poisoned = true
			continue
		}
		i, ok := idxOf[a.arg]
		if !ok {
			continue
		}
		f := &fps[i]
		f.Written = f.Written || a.write
		var lo, hi bnd
		okLo, okHi := a.idx.ok, a.idx.ok
		if a.idx.ok {
			lo, _, okLo = resolveSym(a.idx.lo)
			_, hi, okHi = resolveSym(a.idx.hi)
		}
		if !f.Accessed {
			f.Accessed = true
			f.lo, f.loOK = lo, okLo
			f.hi, f.hiOK = hi, okHi
			if a.idx.ok && a.idx.att {
				f.uni, f.uniOK = a.idx, true
			}
			continue
		}
		if f.uniOK && !(a.idx.ok && a.idx.att && symEq(f.uni.lo, a.idx.lo) && symEq(f.uni.hi, a.idx.hi)) {
			f.uniOK = false
		}
		if f.loOK && okLo {
			if m, ok := minB(f.lo, lo); ok {
				f.lo = m
			} else {
				f.loOK = false
			}
		} else {
			f.loOK = false
		}
		if f.hiOK && okHi {
			if m, ok := maxB(f.hi, hi); ok {
				f.hi = m
			} else {
				f.hiOK = false
			}
		} else {
			f.hiOK = false
		}
	}
	for i := range fps {
		if poisoned {
			fps[i].Accessed = true
			fps[i].loOK, fps[i].hiOK = false, false
			fps[i].uniOK = false
		}
		if !fps[i].Accessed {
			// An unused argument has an empty footprint; normalize the
			// bound fields so equal footprints compare equal.
			fps[i].lo, fps[i].hi = bnd{}, bnd{}
		}
	}
	return fps
}

// --- lints ---------------------------------------------------------------

// lintFootprint emits the buffer-overrun and alias-hazard findings and
// marks the Overrun flag on affected footprints. Must run after
// lintBounds so sites the oob-index lint already reports are not
// double-flagged.
func lintFootprint(rep *Report, info *fnInfo, fps []ArgFootprint, accs []footAccess) {
	idxOf := make(map[int]int, len(fps))
	for i, f := range fps {
		idxOf[f.Arg] = i
	}
	seen := make(map[clc.Pos]bool)
	for _, a := range accs {
		if a.arg < 0 || !a.must || !a.idx.ok || !a.idx.att {
			continue
		}
		// lid tops out at L-1, not G-1: the resolved endpoint would not be
		// provably attained.
		if a.idx.hi.lid != 0 {
			continue
		}
		fi, ok := idxOf[a.arg]
		if !ok {
			continue
		}
		f := &fps[fi]
		if f.Space != clc.Global && f.Space != clc.Constant {
			continue // local scratch has extent L, not G
		}
		_, hi, okHi := resolveSym(a.idx.hi)
		if !okHi || hi.inf != 0 {
			continue
		}
		// The attained max index is hi = a*G+b against the §5.1 extent G.
		// Overrun for every driven size G >= 2 iff (a-1)*G + b >= 0 there:
		// size-independent, so the forecast cannot be wrong at any size the
		// pipeline actually drives.
		if hi.a-1 < 0 || 2*(hi.a-1)+hi.b < 0 {
			continue
		}
		f.Overrun = true
		if seen[a.pos] || oobReported(rep, info, a.pos) {
			continue
		}
		seen[a.pos] = true
		addDiag(rep, info, Diagnostic{
			Pos: a.pos, Lint: "buffer-overrun", Severity: Error, Predicted: PredictRunFailure,
			Msg: fmt.Sprintf("access to %q reaches element %s, beyond the §5.1 extent G at default sizing (footprint %s)",
				f.Name, fmtBnd(hi), f.String()),
		})
	}

	// alias-hazard: overlapping proven global footprints with a writer.
	// The §5.1 driver allocates every argument its own buffer, so the
	// verdict is only trustworthy if a host passing aliased buffers would
	// see the same behavior — flag the kernels where it provably wouldn't.
	for i := range fps {
		for j := i + 1; j < len(fps); j++ {
			a, b := &fps[i], &fps[j]
			if a.Space != clc.Global || b.Space != clc.Global {
				continue
			}
			if !a.Accessed || !b.Accessed || !a.Known() || !b.Known() {
				continue
			}
			if !a.Written && !b.Written {
				continue
			}
			// Benign map idiom: when every access to both arguments uses the
			// same attained per-work-item offsets and only one side writes
			// (a[gid] = f(b[gid])), aliasing cannot reorder anything a single
			// work item observes — suppress the warning.
			if a.uniOK && b.uniOK && !(a.Written && b.Written) &&
				symEq(a.uni.lo, b.uni.lo) && symEq(a.uni.hi, b.uni.hi) {
				continue
			}
			// Overlap at the reference size Sg=256.
			const sg = 256
			if evalBnd(a.lo, sg) > evalBnd(b.hi, sg) || evalBnd(b.lo, sg) > evalBnd(a.hi, sg) {
				continue
			}
			writer := a.Name
			if !a.Written {
				writer = b.Name
			}
			addDiag(rep, info, Diagnostic{
				Pos: info.fn.NodePos(), Lint: "alias-hazard", Severity: Warn,
				Msg: fmt.Sprintf("pointer args %q %s and %q %s overlap and %q is written: the verdict depends on payload aliasing",
					a.Name, a.String(), b.Name, b.String(), writer),
			})
		}
	}
}

// oobReported checks whether the oob-index lint already flagged a site.
func oobReported(rep *Report, info *fnInfo, pos clc.Pos) bool {
	for i := range rep.Diags {
		d := &rep.Diags[i]
		if d.Fn == info.fn.Name && d.Lint == "oob-index" && d.Pos == pos {
			return true
		}
	}
	return false
}

// evalBnd evaluates a finite endpoint at a concrete G.
func evalBnd(x bnd, g int64) int64 { return x.a*g + x.b }

// Footprints runs the analyzer and returns the per-kernel pointer-
// argument footprints, for callers that do not need diagnostics.
func Footprints(f *clc.File) map[string][]ArgFootprint {
	return Analyze(f).Footprints
}
