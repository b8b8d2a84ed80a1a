package interp

import (
	"math"
	"slices"

	"clgen/internal/clc"
)

// Proven step limits (DESIGN.md §7). A launch that must spend more than
// its budget, and in which no error other than ErrStepLimit can happen,
// ends with ErrStepLimit after exactly MaxSteps+1 steps, so its outcome is
// known without running it. BoundSteps proves both facts in one pass over
// the kernel, in the spirit of SPEED's bound analysis (Gulwani et al.,
// POPL 2009): integers are intervals, the work-item id among them, so
// every work-item is covered at once, and a statement's cost is the fewest
// steps any of its paths can take under the step accounting of exec.go.
// The fragment is what the synthesis campaign's two step-limit shapes
// need: scalar variables, + and * (and / on floats), < and >= tests,
// get_global_id(0), loads and stores through pointer parameters at proven
// indexes, scalar +=, if, return outside loops, and counted for loops.
// Anything else makes the answer unknown: Safe is false.

// StepBound is what BoundSteps proves about a launch.
type StepBound struct {
	// Steps is a lower bound on the launch's Profile.Steps: the fewest
	// steps any work-item's path can take, times the work-items. It is 0
	// unless Safe, since an error could end the launch at any step.
	Steps int64
	// Safe reports a proof that no error other than ErrStepLimit can end
	// the launch: no memory fault, barrier, call-depth or unsupported
	// construct.
	Safe bool
	// Budget is the launch's MaxSteps, DefaultMaxSteps for 0.
	Budget int64
}

// RunsOut reports that the launch is proven to fail with ErrStepLimit
// after Budget+1 steps.
func (b StepBound) RunsOut() bool { return b.Safe && b.Steps > b.Budget }

// inf is the cost of a path that does not exist.
const inf = math.MaxInt64

// ival is the abstract value of a scalar variable: its kind and, for an
// integer, the range [lo, hi] of values it may hold. A float, or a ulong
// whose range is not known, has top set.
type ival struct {
	kind   clc.ScalarKind
	lo, hi int64
	top    bool
}

// kindRange is the range of values of an integer kind that an ival can
// hold: a ulong past MaxInt64 is stored as a negative pattern. Other kinds
// hold no integers.
func kindRange(k clc.ScalarKind) (lo, hi int64) {
	switch k {
	case clc.Bool:
		return 0, 1
	case clc.Char:
		return math.MinInt8, math.MaxInt8
	case clc.UChar:
		return 0, math.MaxUint8
	case clc.Short:
		return math.MinInt16, math.MaxInt16
	case clc.UShort:
		return 0, math.MaxUint16
	case clc.Int:
		return math.MinInt32, math.MaxInt32
	case clc.UInt:
		return 0, math.MaxUint32
	case clc.Long:
		return math.MinInt64, math.MaxInt64
	case clc.ULong:
		return 0, math.MaxInt64
	}
	return 0, -1
}

// topOf is any value of kind k.
func topOf(k clc.ScalarKind) ival {
	if k.IsFloat() || k == clc.ULong {
		return ival{kind: k, top: true}
	}
	lo, hi := kindRange(k)
	return ival{kind: k, lo: lo, hi: hi}
}

// exact is the integers [lo, hi] as kind k, or any value of k when the
// range does not fit k: the interpreter would truncate them.
func exact(k clc.ScalarKind, lo, hi int64) ival {
	if klo, khi := kindRange(k); k.IsFloat() || lo < klo || hi > khi {
		return topOf(k)
	}
	return ival{kind: k, lo: lo, hi: hi}
}

// fits reports that v holds the same integers as kind k.
func (v ival) fits(k clc.ScalarKind) bool {
	klo, khi := kindRange(k)
	return !v.top && !k.IsFloat() && v.lo >= klo && v.hi <= khi
}

// conv converts v to kind k.
func conv(v ival, k clc.ScalarKind) ival {
	if v.top {
		return topOf(k)
	}
	return exact(k, v.lo, v.hi)
}

// truth reports whether a condition of value v may be true and may be
// false, testing it as Value.Bool does.
func (v ival) truth() (maybeTrue, maybeFalse bool) {
	if v.top {
		return true, true
	}
	return v.lo != 0 || v.hi != 0, v.lo <= 0 && v.hi >= 0
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// add64, sub64 and mul64 return the result and whether it did not
// overflow.
func add64(a, b int64) (int64, bool) { c := a + b; return c, (c > a) == (b > 0) }
func sub64(a, b int64) (int64, bool) { c := a - b; return c, (c < a) == (b > 0) }
func mul64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	c := a * b
	return c, c/b == a && !(a == -1 && b == math.MinInt64) && !(b == -1 && a == math.MinInt64)
}

// times multiplies a path cost, saturating at inf.
func times(n, c int64) int64 {
	if v, ok := mul64(n, c); ok && v >= 0 {
		return v
	}
	return inf
}

// cost adds path costs, saturating at inf.
func cost(cs ...int64) int64 {
	var s int64
	for _, c := range cs {
		if s, _ = add64(s, c); s < 0 || c == inf {
			return inf
		}
	}
	return s
}

// prover walks one kernel body for BoundSteps. vars holds the abstract
// value of every scalar variable in scope, by the index scopes resolve its
// name to; ptrs holds the pointer parameters, which nothing in the
// fragment assigns. dead marks a path no work-item takes, fail a construct
// outside the fragment or an error that may happen.
type prover struct {
	env    *Env
	gid    ival // get_global_id(0)
	ptrs   map[string]*Pointer
	vars   []ival
	scopes []map[string]int
	dead   bool
	fail   bool
}

// BoundSteps proves what it can about the launch Run(name, args, cfg)
// would make, without running it. It reads the scalars, the buffer
// lengths and the NDRange, never buffer contents.
func (env *Env) BoundSteps(name string, args []Value, cfg RunConfig) StepBound {
	err := cfg.normalize()
	b := StepBound{Budget: cfg.MaxSteps}
	fn := env.funcs[name]
	if err != nil || fn == nil || !fn.decl.IsKernel || len(args) != len(fn.decl.Params) ||
		env.usesBarrier[name] || len(uncertainNames(fn.decl.Body)) > 0 {
		return b
	}
	items := int64(1)
	for _, g := range cfg.GlobalSize {
		items = times(items, int64(g))
	}
	p := &prover{env: env, gid: exact(clc.ULong, 0, int64(cfg.GlobalSize[0])-1), ptrs: map[string]*Pointer{}}
	p.push()
	for i, prm := range fn.decl.Params {
		a := args[i]
		switch t := prm.Type.(type) {
		case *clc.PointerType:
			st, ok := t.Elem.(*clc.ScalarType)
			if !ok || t.Space == clc.Local || a.Ptr == nil || a.Ptr.Buf == nil {
				return b
			}
			if pst, ok := a.Ptr.Elem.(*clc.ScalarType); !ok || !staticKind(pst.Kind) || !staticKind(st.Kind) {
				return b
			}
			p.ptrs[prm.Name] = a.Ptr
		case *clc.ScalarType:
			if a.Ptr != nil || a.Width != 1 || !staticKind(t.Kind) {
				return b
			}
			p.bind(prm.Name, constant(ConvertScalar(a, t.Kind)))
		default:
			return b
		}
	}
	p.push()
	next, ret := p.block(fn.decl.Body.Stmts)
	if p.fail {
		return b
	}
	b.Safe, b.Steps = true, times(items, min(next, ret))
	return b
}

// constant is the abstract value of a scalar Value.
func constant(v Value) ival {
	if v.Kind.IsFloat() {
		return topOf(v.Kind)
	}
	return exact(v.Kind, v.i, v.i)
}

func (p *prover) push() { p.scopes = append(p.scopes, map[string]int{}) }
func (p *prover) pop()  { p.scopes = p.scopes[:len(p.scopes)-1] }

func (p *prover) bind(name string, v ival) {
	p.scopes[len(p.scopes)-1][name] = len(p.vars)
	p.vars = append(p.vars, v)
}

// lookup returns the index of the scalar variable name resolves to, or -1.
func (p *prover) lookup(name string) int {
	for i := len(p.scopes) - 1; i >= 0; i-- {
		if idx, ok := p.scopes[i][name]; ok {
			return idx
		}
	}
	return -1
}

// scalarVar returns the index of the scalar variable e names, failing the
// proof when e names none.
func (p *prover) scalarVar(e clc.Expr) int {
	if id, ok := e.(*clc.Ident); ok {
		if idx := p.lookup(id.Name); idx >= 0 {
			return idx
		}
	}
	p.fail = true
	return -1
}

// block analyzes statements in order and returns the fewest steps of
// their paths that fall through (next) and that return (ret), inf where
// no such path exists.
func (p *prover) block(stmts []clc.Stmt) (next, ret int64) {
	ret = inf
	for _, s := range stmts {
		if p.dead || p.fail {
			break
		}
		n, r := p.stmt(s)
		ret = min(ret, cost(next, r))
		next = cost(next, n)
	}
	return next, ret
}

// stmt analyzes one statement, which spends one step before anything
// else.
func (p *prover) stmt(s clc.Stmt) (next, ret int64) {
	next, ret = p.stmtBody(s)
	return cost(1, next), cost(1, ret)
}

func (p *prover) stmtBody(s clc.Stmt) (next, ret int64) {
	switch x := s.(type) {
	case *clc.BlockStmt:
		p.push()
		defer p.pop()
		return p.block(x.Stmts)
	case *clc.ExprStmt:
		_, c := p.expr(x.X)
		return c, inf
	case *clc.DeclStmt:
		var c int64
		for _, d := range x.Decls {
			st, ok := d.Type.(*clc.ScalarType)
			if !ok || !staticKind(st.Kind) || d.Init == nil {
				p.fail = true
				return 0, inf
			}
			v, ic := p.expr(d.Init)
			c = cost(c, ic)
			p.bind(d.Name, conv(v, st.Kind))
		}
		return c, inf
	case *clc.IfStmt:
		return p.ifStmt(x)
	case *clc.ForStmt:
		p.push()
		defer p.pop()
		return p.forStmt(x), inf
	case *clc.ReturnStmt:
		p.fail = p.fail || x.X != nil
		p.dead = true
		return inf, 0
	}
	p.fail = true
	return 0, inf
}

// ifStmt analyzes both branches a work-item may take, each on the state
// its condition leaves, and joins the states of those that fall through.
func (p *prover) ifStmt(x *clc.IfStmt) (next, ret int64) {
	c, cc := p.expr(x.Cond)
	maybeTrue, maybeFalse := c.truth()
	entry := slices.Clone(p.vars)
	var out []ival // the join of the branches that fall through
	next, ret = inf, inf
	for _, branch := range []struct {
		taken bool
		s     clc.Stmt
	}{{maybeTrue, x.Then}, {maybeFalse, x.Else}} {
		if !branch.taken || p.fail {
			continue
		}
		p.vars, p.dead = slices.Clone(entry), false
		p.assume(x.Cond, branch.s == x.Then)
		bn, br := int64(0), int64(inf)
		if p.dead {
			continue
		} else if branch.s != nil {
			bn, br = p.stmt(branch.s)
		}
		next, ret = min(next, bn), min(ret, br)
		if p.dead {
			continue
		}
		if out == nil {
			out = p.vars[:len(entry)]
		} else {
			for i := range out {
				out[i] = join(out[i], p.vars[i])
			}
		}
	}
	p.vars, p.dead = out, out == nil
	if p.dead {
		p.vars = entry
	}
	return cost(cc, next), cost(cc, ret)
}

// join is the least interval holding a and b, two values of one variable.
func join(a, b ival) ival {
	if a.top || b.top {
		return topOf(a.kind)
	}
	return ival{kind: a.kind, lo: min(a.lo, b.lo), hi: max(a.hi, b.hi)}
}

// assume narrows the state to the work-items for which cond, already
// evaluated, tested as truth: a < or >= test of two integers narrows the
// variables it compares, and an empty range kills the path.
func (p *prover) assume(cond clc.Expr, truth bool) {
	x, ok := cond.(*clc.BinaryExpr)
	if !ok || x.Op != clc.LT && x.Op != clc.GEQ || !pure(x) {
		return
	}
	a, _ := p.expr(x.X)
	b, _ := p.expr(x.Y)
	k := promoteKind(a.kind, b.kind)
	if !a.fits(k) || !b.fits(k) {
		return
	}
	if (x.Op == clc.LT) == truth { // a < b
		a.hi, b.lo = min(a.hi, b.hi-1), max(b.lo, a.lo+1)
	} else { // a >= b
		a.lo, b.hi = max(a.lo, b.lo), min(b.hi, a.hi)
	}
	for _, side := range []struct {
		e clc.Expr
		v ival
	}{{x.X, a}, {x.Y, b}} {
		if side.v.lo > side.v.hi {
			p.dead = true
		}
		if id, ok := side.e.(*clc.Ident); ok {
			if idx := p.lookup(id.Name); idx >= 0 {
				p.vars[idx].lo, p.vars[idx].hi = side.v.lo, side.v.hi
			}
		}
	}
}

// forStmt analyzes a counted loop, in its own scope: for (init; g < N;
// g++), with g an integer variable that only the update writes, N pure
// and unchanged by the body, and no break, continue or return in the
// body. Its cost is init, then at least the loop's fewest iterations of
// one unit, the test, the body's cheapest path and the update, then the
// final test.
func (p *prover) forStmt(x *clc.ForStmt) int64 {
	var initCost int64
	if x.Init != nil {
		initCost, _ = p.stmt(x.Init)
	}
	g, bound, written := p.counted(x)
	if p.fail {
		return 0
	}
	gv := p.vars[g]
	n, _ := p.expr(bound)
	ck := promoteKind(gv.kind, n.kind) // the test's kind
	// Every value g takes, up to n.hi after its last update, must hold in
	// its kind, the test's and the update's (g + 1), so that none wraps.
	reach := ival{kind: gv.kind, lo: gv.lo, hi: max(gv.hi, n.hi)}
	if !n.fits(ck) || !reach.fits(gv.kind) || !reach.fits(ck) || !reach.fits(promoteKind(gv.kind, clc.Int)) {
		p.fail = true
		return 0
	}
	_, test := p.expr(x.Cond)
	var iter int64
	if n.hi > gv.lo { // some work-item enters the body
		p.havoc(written)
		p.vars[g].lo, p.vars[g].hi = gv.lo, n.hi-1
		body, _ := p.stmt(x.Body)
		_, update := p.expr(x.Post)
		iter = cost(1, test, body, update)
		if p.fail = p.fail || p.dead; p.fail {
			return 0
		}
	}
	p.havoc(written)
	p.vars[g] = reach
	var trips int64 // the fewest iterations any work-item runs
	if span, ok := sub64(n.lo, gv.hi); ok && span > 0 {
		trips = span
	}
	return cost(initCost, times(trips, iter), 1, test)
}

// counted recognizes x's induction variable g and bound N, and returns
// the names its body writes, or fails the proof.
func (p *prover) counted(x *clc.ForStmt) (g int, bound clc.Expr, written map[string]bool) {
	c, ok := x.Cond.(*clc.BinaryExpr)
	u, inc := x.Post.(*clc.PostfixExpr)
	if !ok || !inc || u.Op != clc.INC || c.Op != clc.LT || !sameIdent(c.X, u.X) || !pure(c.Y) || escapes(x.Body) {
		p.fail = true
		return
	}
	name := u.X.(*clc.Ident).Name
	written = assigned(x.Body)
	for n := range names(c.Y) {
		if written[n] || n == name {
			p.fail = true
			return
		}
	}
	if g = p.scalarVar(u.X); !p.fail && (written[name] || p.vars[g].top) {
		p.fail = true
	}
	return g, c.Y, written
}

// havoc forgets what is known of the variables in scope that written
// names.
func (p *prover) havoc(written map[string]bool) {
	for name := range written {
		if idx := p.lookup(name); idx >= 0 {
			p.vars[idx] = topOf(p.vars[idx].kind)
		}
	}
}

func sameIdent(a, b clc.Expr) bool {
	x, ok := a.(*clc.Ident)
	y, ok2 := b.(*clc.Ident)
	return ok && ok2 && x.Name == y.Name
}

// assigned returns the variables n assigns or increments: the only
// writes the fragment admits.
func assigned(n clc.Node) map[string]bool {
	out := map[string]bool{}
	clc.Walk(n, func(n clc.Node) bool {
		var target clc.Expr
		switch x := n.(type) {
		case *clc.AssignExpr:
			target = x.X
		case *clc.PostfixExpr:
			target = x.X
		}
		if id, ok := target.(*clc.Ident); ok {
			out[id.Name] = true
		}
		return true
	})
	return out
}

// names returns the identifiers e reads.
func names(e clc.Expr) map[string]bool {
	out := map[string]bool{}
	clc.Walk(e, func(n clc.Node) bool {
		if id, ok := n.(*clc.Ident); ok {
			out[id.Name] = true
		}
		return true
	})
	return out
}

// escapes reports a break, continue or return in s.
func escapes(s clc.Stmt) bool {
	found := false
	clc.Walk(s, func(n clc.Node) bool {
		switch n.(type) {
		case *clc.BreakStmt, *clc.ContinueStmt, *clc.ReturnStmt:
			found = true
		}
		return !found
	})
	return found
}

// pure reports that e writes nothing. The fragment admits no other side
// effect.
func pure(e clc.Expr) bool {
	ok := true
	clc.Walk(e, func(n clc.Node) bool {
		switch n.(type) {
		case *clc.AssignExpr, *clc.PostfixExpr:
			ok = false
		}
		return ok
	})
	return ok
}

// expr analyzes e, applying its writes to the state, and returns its
// value and the fewest steps it can take: one per node, before its
// operands, as exec.go and kinds.go spend them.
func (p *prover) expr(e clc.Expr) (ival, int64) {
	if p.fail {
		return ival{}, 0
	}
	if v, ok := literal(e); ok {
		if !staticKind(v.Kind) {
			p.fail = true // a string
		}
		return constant(v), 1
	}
	switch x := e.(type) {
	case *clc.Ident:
		idx := p.scalarVar(x)
		if p.fail {
			return ival{}, 0
		}
		return p.vars[idx], 1
	case *clc.BinaryExpr:
		a, ca := p.expr(x.X)
		b, cb := p.expr(x.Y)
		return p.binary(x.Op, a, b), cost(1, ca, cb)
	case *clc.AssignExpr:
		return p.assign(x)
	case *clc.PostfixExpr:
		return p.inc(x)
	case *clc.CallExpr:
		return p.globalID(x)
	case *clc.IndexExpr:
		v, c := p.element(x)
		return v, cost(1, c)
	}
	p.fail = true
	return ival{}, 0
}

// binary applies op to a and b, promoted to one kind, as binaryOp does:
// + and * on integers range over their results at the operands' ends, +,
// * and / on floats give any float, and < and >= compare. Any other
// operator fails the proof.
func (p *prover) binary(op clc.TokenKind, a, b ival) ival {
	k := promoteKind(a.kind, b.kind)
	a, b = conv(a, k), conv(b, k)
	switch {
	case op == clc.LT || op == clc.GEQ:
		return compareI(op, a, b)
	case k.IsFloat() && (op == clc.ADD || op == clc.MUL || op == clc.DIV):
		return topOf(k)
	case op != clc.ADD && op != clc.MUL:
		p.fail = true
		return ival{}
	case a.top || b.top:
		return topOf(k)
	}
	f := add64
	if op == clc.MUL {
		f = mul64
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, x := range [2]int64{a.lo, a.hi} {
		for _, y := range [2]int64{b.lo, b.hi} {
			v, ok := f(x, y)
			if !ok {
				return topOf(k)
			}
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	return exact(k, lo, hi)
}

// compareI applies < or >= to a and b, already of one kind.
func compareI(op clc.TokenKind, a, b ival) ival {
	if a.top || b.top {
		return ival{kind: clc.Int, hi: 1}
	}
	always, never := a.hi < b.lo, a.lo >= b.hi // of a < b
	if op == clc.GEQ {
		always, never = never, always
	}
	return ival{kind: clc.Int, lo: b2i(always), hi: b2i(!never)}
}

// element analyzes base[index] as a load or store target: base a pointer
// parameter, index an integer proven to address its buffer. It returns
// the value a load yields and the cost of the base's step and the index.
func (p *prover) element(x *clc.IndexExpr) (ival, int64) {
	var ptr *Pointer
	if id, ok := x.X.(*clc.Ident); ok && p.lookup(id.Name) < 0 {
		ptr = p.ptrs[id.Name]
	}
	if ptr == nil {
		p.fail = true
		return ival{}, 0
	}
	i, c := p.expr(x.Index)
	lo, okLo := add64(ptr.Off, i.lo)
	hi, okHi := add64(ptr.Off, i.hi)
	if i.top || !okLo || !okHi || lo < 0 || hi >= int64(ptr.Buf.Len()) {
		p.fail = true
	}
	return topOf(ptr.Elem.(*clc.ScalarType).Kind), cost(1, c)
}

// assign analyzes = to a scalar variable or a buffer element, and += to a
// scalar variable. It yields the right-hand side before conversion, += the
// promoted sum.
func (p *prover) assign(x *clc.AssignExpr) (ival, int64) {
	v, c := p.expr(x.Y)
	if ix, ok := x.X.(*clc.IndexExpr); ok && x.Op == clc.ASSIGN {
		_, lc := p.element(ix)
		return v, cost(1, c, lc)
	}
	idx := p.scalarVar(x.X)
	if p.fail || x.Op != clc.ASSIGN && x.Op != clc.ADDASSIGN {
		p.fail = true
		return ival{}, 0
	}
	t := p.vars[idx]
	if x.Op == clc.ADDASSIGN {
		v = p.binary(clc.ADD, t, v)
	}
	p.vars[idx] = conv(v, t.kind)
	return v, cost(1, c)
}

// inc analyzes a postfix ++ on a scalar variable.
func (p *prover) inc(x *clc.PostfixExpr) (ival, int64) {
	idx := p.scalarVar(x.X)
	if p.fail || x.Op != clc.INC {
		p.fail = true
		return ival{}, 0
	}
	old := p.vars[idx]
	p.vars[idx] = conv(p.binary(clc.ADD, old, exact(clc.Int, 1, 1)), old.kind)
	return old, 1
}

// globalID analyzes get_global_id(0): its step and its argument's.
func (p *prover) globalID(x *clc.CallExpr) (ival, int64) {
	if _, user := p.env.funcs[x.Fun]; user || x.Fun != "get_global_id" || len(x.Args) != 1 {
		p.fail = true
		return ival{}, 0
	}
	d, c := p.expr(x.Args[0])
	if d.top || d.lo != 0 || d.hi != 0 {
		p.fail = true
		return ival{}, 0
	}
	return p.gid, cost(1, c)
}
