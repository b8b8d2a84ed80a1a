package interp

import (
	"fmt"
	"math"
	"slices"

	"clgen/internal/clc"
)

// Static kinds (DESIGN.md §7). An expression whose run-time kind and width
// the interpreter's own rules fix compiles into a staticFn: a scalar into a
// laneFn, which returns its lane unboxed, a vector into a lanesFn, which
// writes its lanes unboxed, with its operator (laneOp, relOp), conversion,
// splat and Profile counter chosen at compile time. Either spends its budget
// unit, touches memory and counts exactly where the Value closure it
// replaces does.
//
// A static lane holds only the view of its kind: i for integers, f for
// floats. Every Value-path operation of the fragment derives the other view
// from that one, so boxing derives it too (boxLane). A statically kinded
// variable's slots hold its lanes the same way, and only the Value path
// boxes them, when it reads the variable (staticFn.value).

// laneFn evaluates a scalar expression of a kind fixed at compile time.
type laneFn func(c *wiCtx) (lane, error)

// lanesFn evaluates a vector expression of a kind and width fixed at
// compile time into dst, which has one lane per element.
type lanesFn func(c *wiCtx, dst []lane) error

// shape is a static kind and width: width 1 for a scalar.
type shape struct {
	kind  clc.ScalarKind
	width int
}

// shapeOf reports the shape of a scalar or vector type of a static kind.
func shapeOf(t clc.Type) (shape, bool) {
	switch x := t.(type) {
	case *clc.ScalarType:
		return shape{x.Kind, 1}, staticKind(x.Kind)
	case *clc.VectorType:
		return shape{x.Elem, x.Len}, staticKind(x.Elem) && x.Len > 1 && x.Len <= MaxLanes
	}
	return shape{}, false
}

// staticFn is a compiled expression and its shape: a scalar evaluated by
// eval, or a vector evaluated by lanes. A comparison or logical operator
// also has test, which a condition runs instead of eval.
type staticFn struct {
	shape
	eval  laneFn
	lanes lanesFn
	test  condFn
}

func scalarOf(k clc.ScalarKind, eval laneFn) staticFn {
	return staticFn{shape: shape{k, 1}, eval: eval}
}

// condOf is the int, 1 or 0, of a condition that test evaluates.
func condOf(test condFn) staticFn {
	s := scalarOf(clc.Int, func(c *wiCtx) (lane, error) {
		ok, err := test(c)
		return lane{i: boolToInt(ok)}, err
	})
	s.test = test
	return s
}

func vectorOf(sh shape, lanes lanesFn) staticFn { return staticFn{shape: sh, lanes: lanes} }

// shaped is vectorOf for a run of any width: a scalar runs it on one lane
// of the work-item's temporaries.
func shaped(sh shape, run lanesFn) staticFn {
	if sh.width > 1 {
		return vectorOf(sh, run)
	}
	return scalarOf(sh.kind, func(c *wiCtx) (lane, error) {
		n := len(c.tmp)
		t := c.take(1)
		err := run(c, t)
		c.tmp = c.tmp[:n]
		return t[0], err
	})
}

// take returns w lanes of c's stack of vector temporaries. A node takes
// what its operands need and gives it back by truncating c.tmp to the
// length it found. Lanes taken before the stack grows stay in the old
// array, which their holders keep.
func (c *wiCtx) take(w int) []lane {
	n := len(c.tmp)
	if n+w > cap(c.tmp) {
		c.tmp = make([]lane, n, max(2*cap(c.tmp)+w, 64))
	}
	c.tmp = c.tmp[:n+w]
	return c.tmp[n : n+w : n+w]
}

// guard is a parameter whose kind a typed body assumes. A scalar
// parameter (elem zero) must not be passed a pointer; a pointer parameter
// must be passed a non-nil pointer whose pointee is exactly elem: the
// scalar of its kind, or the vector of its kind and width.
type guard struct {
	arg  int
	elem shape
}

// admits reports whether args meet f's guards. Neither Env.Run nor a user
// call makes an argument match its parameter's declaration, so a call
// that breaks a guard runs f.plain() instead.
func (f *function) admits(args []Value) bool {
	if len(args) != len(f.decl.Params) {
		return true // the call fails the same way in either body
	}
	for _, g := range f.guards {
		p := args[g.arg].Ptr
		if g.elem.kind == clc.Void {
			if p != nil {
				return false
			}
		} else if p == nil {
			return false
		} else if sh, _ := shapeOf(p.Elem); sh != g.elem {
			return false
		}
	}
	return true
}

// plain returns f compiled with no variable or parameter kinds, on first
// need. Its calls run the callees' plain bodies too.
func (f *function) plain() *function {
	f.plainOnce.Do(func() {
		p := &function{decl: f.decl, env: f.env, parks: f.parks}
		p.plainOnce.Do(func() { p.plainFn = p })
		(&compiler{env: f.env}).compileFunction(p)
		f.plainFn = p
	})
	return f.plainFn
}

// inferKinds finds the statically kinded names of fd, by the rules of
// DESIGN.md §7, and its entry guards: variables whose every declaration is
// a scalar, or a vector that is not a parameter, of one kind and width, and
// whose every initializer and assignment is statically kinded; and pointer
// parameters to such a scalar or vector that are never reassigned.
func (cp *compiler) inferKinds(fd *clc.FuncDecl) []guard {
	// bad holds the names that are address-taken, bound through a cell or
	// written through a swizzle or lane.
	decls, local, bad := map[string][]clc.Type{}, map[string]bool{}, map[string]bool{}
	params := map[string]bool{}
	for _, p := range fd.Params {
		decls[p.Name] = append(decls[p.Name], p.Type)
		params[p.Name] = true
	}
	for _, names := range cp.uncertain {
		for name := range names {
			bad[name] = true
		}
	}
	type write struct {
		name string
		e    clc.Expr // must be statically kinded for name to be
		init bool     // e initializes a declaration
	}
	var writes []write
	var targets []*clc.Ident
	target := func(e, assign clc.Expr) {
		if id, ok := e.(*clc.Ident); ok {
			targets = append(targets, id)
			writes = append(writes, write{id.Name, assign, false})
		} else if id := laneTarget(e); id != nil {
			bad[id.Name] = true
		}
	}
	clc.Walk(fd.Body, func(n clc.Node) bool {
		switch x := n.(type) {
		case *clc.VarDecl:
			decls[x.Name] = append(decls[x.Name], x.Type)
			local[x.Name] = true
			if x.Init != nil {
				writes = append(writes, write{x.Name, x.Init, true})
			}
		case *clc.AssignExpr:
			target(x.X, x)
		case *clc.PostfixExpr:
			target(x.X, x)
		case *clc.UnaryExpr:
			if x.Op == clc.INC || x.Op == clc.DEC {
				target(x.X, x)
			} else if id, ok := x.X.(*clc.Ident); ok && x.Op == clc.AND {
				bad[id.Name] = true
			}
		}
		return true
	})
	cp.vars, cp.ptrs = map[string]shape{}, map[string]shape{}
	for name, ts := range decls {
		_, isConst := cp.env.consts[name]
		_, isGlobal := cp.env.globals[name]
		_, isPredeclared := clc.PredeclaredValue(name)
		if bad[name] || isConst || isGlobal || isPredeclared {
			continue // a name resolving to file scope where no local binds it
		}
		sh, ok := shapeOf(ts[0])
		for _, t := range ts[1:] {
			other, okT := shapeOf(t)
			ok = ok && okT && other == sh
		}
		if ok && (sh.width == 1 || !params[name]) {
			cp.vars[name] = sh
		} else if pt, isPtr := ts[0].(*clc.PointerType); isPtr && len(ts) == 1 && !local[name] {
			if sh, ok := shapeOf(pt.Elem); ok {
				cp.ptrs[name] = sh
			}
		}
	}
	for _, id := range targets {
		delete(cp.ptrs, id.Name)
		if sh, ok := shapeOf(id.ExprType()); !ok || sh != cp.vars[id.Name] {
			delete(cp.vars, id.Name)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, w := range writes {
			sh, ok := cp.vars[w.name]
			if !ok {
				continue
			}
			// A declaration converts its initializer or splats a scalar.
			if s, ok := cp.static(w.e); !ok || w.init && s.width != 1 && s.width != sh.width {
				delete(cp.vars, w.name)
				changed = true
			}
		}
	}
	var guards []guard
	for i, p := range fd.Params {
		if _, ok := cp.vars[p.Name]; ok {
			guards = append(guards, guard{arg: i})
		} else if sh, ok := cp.ptrs[p.Name]; ok {
			guards = append(guards, guard{arg: i, elem: sh})
		}
	}
	return guards
}

// laneTarget returns the variable that an assignment to a swizzle or lane
// of it writes, as lvalue resolves it: through members, and through
// indexes of anything but a pointer or array.
func laneTarget(e clc.Expr) *clc.Ident {
	for {
		switch x := e.(type) {
		case *clc.MemberExpr:
			e = x.X
		case *clc.IndexExpr:
			switch x.X.ExprType().(type) {
			case *clc.PointerType, *clc.ArrayType:
				return nil
			}
			e = x.X
		case *clc.Ident:
			return x
		default:
			return nil
		}
	}
}

// staticKind reports whether a scalar expression of kind k can be typed.
func staticKind(k clc.ScalarKind) bool { return k >= clc.Bool && k <= clc.Double }

// promoteKind is promote for two scalars.
func promoteKind(a, b clc.ScalarKind) clc.ScalarKind {
	if rankOf(b) > rankOf(a) {
		return b
	}
	return a
}

// arithKind reports the kind op yields on operands promoted to k, if arith
// implements it for k.
func arithKind(op clc.TokenKind, k clc.ScalarKind) (clc.ScalarKind, bool) {
	switch op {
	case clc.ADD, clc.SUB, clc.MUL, clc.DIV, clc.REM:
		return k, true
	case clc.AND, clc.OR, clc.XOR, clc.SHL, clc.SHR:
		return k, !k.IsFloat()
	}
	return 0, false
}

// static compiles e into a staticFn if its kind and width are static. The
// compiler asks it first of every expression; inferKinds asks it of every
// value bound to a variable. Without inferKinds (a plain body) no variable
// or parameter has a static kind and no vector is static, but literals,
// casts, queries and the logical operators still are.
func (cp *compiler) static(e clc.Expr) (staticFn, bool) {
	s, ok := cp.kinded(e)
	return s, ok && (s.width == 1 || cp.typed)
}

// scalar is static for a scalar.
func (cp *compiler) scalar(e clc.Expr) (staticFn, bool) {
	s, ok := cp.static(e)
	return s, ok && s.width == 1
}

func (cp *compiler) kinded(e clc.Expr) (staticFn, bool) {
	switch x := e.(type) {
	case *clc.Ident:
		return cp.variable(x)
	case *clc.BinaryExpr:
		return cp.binaryLane(x)
	case *clc.UnaryExpr:
		return cp.unaryLane(x)
	case *clc.PostfixExpr:
		return cp.incDecLane(x.X, x.Op, true)
	case *clc.AssignExpr:
		return cp.assignLane(x)
	case *clc.CondExpr:
		a, okA := cp.scalar(x.A)
		b, okB := cp.scalar(x.B)
		if !okA || !okB || a.kind != b.kind {
			return staticFn{}, false
		}
		cond := cp.cond(x.Cond)
		return scalarOf(a.kind, stepped(func(c *wiCtx) (lane, error) {
			if ok, err := test(c, cond); err != nil {
				return lane{}, err
			} else if ok {
				return a.eval(c)
			}
			return b.eval(c)
		})), true
	case *clc.CastExpr:
		return cp.castLane(x)
	case *clc.CallExpr:
		return cp.callLane(x)
	case *clc.IndexExpr:
		return cp.elemLoad(x)
	case *clc.MemberExpr:
		return cp.swizzle(x)
	}
	v, ok := literal(e)
	if _, isFloat := e.(*clc.FloatLit); !ok || !staticKind(v.Kind) || isFloat != v.Kind.IsFloat() {
		return staticFn{}, false // a string, or a literal the checker typed across kinds
	}
	l := lane{v.i, v.f}
	return scalarOf(v.Kind, func(c *wiCtx) (lane, error) { return l, c.step() }), true
}

// variable compiles a read of a statically kinded variable, whose lane l
// is the slot l past its first.
func (cp *compiler) variable(x *clc.Ident) (staticFn, bool) {
	sh, ok := cp.vars[x.Name]
	if !ok {
		return staticFn{}, false
	}
	r, name := cp.lookup(x.Name), x.Name
	if !r.bound {
		// The error is made when the node runs: inferKinds compiles every
		// variable unbound.
		return shaped(sh, func(c *wiCtx, _ []lane) error {
			if err := c.step(); err != nil {
				return err
			}
			return fmt.Errorf("interp: unknown identifier %q", name)
		}), true
	}
	idx, w := r.idx, sh.width
	if w == 1 {
		return scalarOf(sh.kind, func(c *wiCtx) (lane, error) {
			v := &c.frame[idx].val
			return lane{v.i, v.f}, c.step()
		}), true
	}
	return vectorOf(sh, func(c *wiCtx, dst []lane) error {
		fr := c.frame[idx : idx+w]
		for l := range dst {
			v := &fr[l].val
			dst[l] = lane{v.i, v.f}
		}
		return c.step()
	}), true
}

func (cp *compiler) binaryLane(x *clc.BinaryExpr) (staticFn, bool) {
	op := x.Op
	if op == clc.LAND || op == clc.LOR {
		a, b, and := cp.cond(x.X), cp.cond(x.Y), op == clc.LAND
		return condOf(stepped(func(c *wiCtx) (bool, error) {
			if ok, err := a(c); err != nil || ok != and {
				return !and, err
			}
			return b(c)
		})), true
	}
	sa, okA := cp.static(x.X)
	sb, okB := cp.static(x.Y)
	if !okA || !okB {
		return staticFn{}, false
	}
	pk := promoteKind(sa.kind, sb.kind)
	k, ok := arithKind(op, pk)
	if sa.width > 1 || sb.width > 1 {
		w := max(sa.width, sb.width)
		if !ok || sa.width != sb.width && min(sa.width, sb.width) > 1 {
			return staticFn{}, false
		}
		return vectorOf(shape{k, w}, lanewise(op, k, w, sa.widened(pk), sb.widened(pk))), true
	}
	a, b := sa.widen(pk), sb.widen(pk)
	if rel := relOp(op, pk); rel != nil {
		return condOf(func(c *wiCtx) (bool, error) {
			if err := c.step(); err != nil {
				return false, err
			}
			u, err := a(c)
			if err != nil {
				return false, err
			}
			v, err := b(c)
			if err != nil {
				return false, err
			}
			c.prof.IntOps++
			return rel(u, v), nil
		}), true
	}
	if !ok {
		return staticFn{}, false
	}
	apply, float := laneOp(op, k), k.IsFloat()
	return scalarOf(k, func(c *wiCtx) (lane, error) {
		if err := c.step(); err != nil {
			return lane{}, err
		}
		u, err := a(c)
		if err != nil {
			return lane{}, err
		}
		v, err := b(c)
		if err != nil {
			return lane{}, err
		}
		c.count(float, 1)
		return apply(u, v), nil
	}), true
}

// lanewise compiles a binary arithmetic node of width w whose operands,
// vectors or scalars to splat, are already of kind k, as binaryOp applies
// it: the left operand evaluates into the result's lanes, a vector right
// operand into temporaries.
func lanewise(op clc.TokenKind, k clc.ScalarKind, w int, a, b staticFn) lanesFn {
	apply, float, lanes := laneOp(op, k), k.IsFloat(), int64(w)
	switch {
	case a.width > 1 && b.width > 1:
		ea, eb := a.lanes, b.lanes
		return func(c *wiCtx, dst []lane) error {
			if err := c.step(); err != nil {
				return err
			}
			if err := ea(c, dst); err != nil {
				return err
			}
			n := len(c.tmp)
			t := c.take(w)
			err := eb(c, t)
			c.tmp = c.tmp[:n]
			if err != nil {
				return err
			}
			for l, y := range t {
				dst[l] = apply(dst[l], y)
			}
			c.count(float, lanes)
			return nil
		}
	case a.width > 1:
		ea, eb := a.lanes, b.eval
		return func(c *wiCtx, dst []lane) error {
			if err := c.step(); err != nil {
				return err
			}
			if err := ea(c, dst); err != nil {
				return err
			}
			y, err := eb(c)
			if err != nil {
				return err
			}
			for l, x := range dst {
				dst[l] = apply(x, y)
			}
			c.count(float, lanes)
			return nil
		}
	}
	ea, eb := a.eval, b.lanes
	return func(c *wiCtx, dst []lane) error {
		if err := c.step(); err != nil {
			return err
		}
		x, err := ea(c)
		if err != nil {
			return err
		}
		if err := eb(c, dst); err != nil {
			return err
		}
		for l, y := range dst {
			dst[l] = apply(x, y)
		}
		c.count(float, lanes)
		return nil
	}
}

// laneOp returns op on lanes of kind k, as arith computes it. Every
// operator arithKind admits is written out for every static kind but bool,
// which calls arith, as does anything else. The result is a lane of kind k:
// truncated or rounded to it by the conversion to its Go type.
// TestLaneOpsMatchArith is its oracle.
func laneOp(op clc.TokenKind, k clc.ScalarKind) func(x, y lane) lane {
	var f func(x, y lane) lane
	switch k {
	case clc.Char:
		f = intOp[int8](op)
	case clc.UChar:
		f = intOp[uint8](op)
	case clc.Short:
		f = intOp[int16](op)
	case clc.UShort:
		f = intOp[uint16](op)
	case clc.Int:
		f = intOp[int32](op)
	case clc.UInt:
		f = intOp[uint32](op)
	case clc.Long:
		f = intOp[int64](op)
	case clc.ULong:
		f = intOp[uint64](op)
	case clc.Half, clc.Float:
		f = floatOp[float32](op)
	case clc.Double:
		f = floatOp[float64](op)
	}
	if f != nil {
		return f
	}
	return func(x, y lane) lane {
		r, _ := arith(op, k, x, y) // arithKind admits only operators arith implements
		return r
	}
}

// intOp is laneOp for the integer kind whose Go type is T: intBinary on the
// 64-bit view, then truncation to the kind by the conversion to T. As in
// intBinary, / and % by zero yield 0, Go's MinInt64 / -1 is MinInt64 and
// its remainder 0, and a shift count is masked with 63.
func intOp[T int8 | uint8 | int16 | uint16 | int32 | uint32 | int64 | uint64](op clc.TokenKind) func(x, y lane) lane {
	var zero T
	unsigned := ^zero > 0
	switch op {
	case clc.ADD:
		return func(x, y lane) lane { return lane{i: int64(T(x.i + y.i))} }
	case clc.SUB:
		return func(x, y lane) lane { return lane{i: int64(T(x.i - y.i))} }
	case clc.MUL:
		return func(x, y lane) lane { return lane{i: int64(T(x.i * y.i))} }
	case clc.AND:
		return func(x, y lane) lane { return lane{i: int64(T(x.i & y.i))} }
	case clc.OR:
		return func(x, y lane) lane { return lane{i: int64(T(x.i | y.i))} }
	case clc.XOR:
		return func(x, y lane) lane { return lane{i: int64(T(x.i ^ y.i))} }
	case clc.SHL:
		return func(x, y lane) lane { return lane{i: int64(T(x.i << (uint64(y.i) & 63)))} }
	case clc.SHR:
		if unsigned {
			return func(x, y lane) lane { return lane{i: int64(T(uint64(x.i) >> (uint64(y.i) & 63)))} }
		}
		return func(x, y lane) lane { return lane{i: int64(T(x.i >> (uint64(y.i) & 63)))} }
	case clc.DIV:
		if unsigned {
			return func(x, y lane) lane {
				if y.i == 0 {
					return lane{}
				}
				return lane{i: int64(T(uint64(x.i) / uint64(y.i)))}
			}
		}
		return func(x, y lane) lane {
			if y.i == 0 {
				return lane{}
			}
			return lane{i: int64(T(x.i / y.i))}
		}
	case clc.REM:
		if unsigned {
			return func(x, y lane) lane {
				if y.i == 0 {
					return lane{}
				}
				return lane{i: int64(T(uint64(x.i) % uint64(y.i)))}
			}
		}
		return func(x, y lane) lane {
			if y.i == 0 {
				return lane{}
			}
			return lane{i: int64(T(x.i % y.i))}
		}
	}
	return nil
}

// floatOp is laneOp for a float kind computed in float64 and rounded once
// to T: float32 for float and half, as arith rounds them.
func floatOp[T float32 | float64](op clc.TokenKind) func(x, y lane) lane {
	switch op {
	case clc.ADD:
		return func(x, y lane) lane { return lane{f: float64(T(x.f + y.f))} }
	case clc.SUB:
		return func(x, y lane) lane { return lane{f: float64(T(x.f - y.f))} }
	case clc.MUL:
		return func(x, y lane) lane { return lane{f: float64(T(x.f * y.f))} }
	case clc.DIV:
		return func(x, y lane) lane { return lane{f: float64(T(x.f / y.f))} }
	case clc.REM:
		return func(x, y lane) lane { return lane{f: float64(T(math.Mod(x.f, y.f)))} }
	}
	return nil
}

// relOp returns a relational operator on lanes of kind k, as compareLanes
// applies it, or nil for any other operator.
func relOp(op clc.TokenKind, k clc.ScalarKind) func(x, y lane) bool {
	switch {
	case k.IsUnsigned():
		return intRel[uint64](op)
	case !k.IsFloat():
		return intRel[int64](op)
	}
	switch op {
	case clc.EQ:
		return func(x, y lane) bool { return x.f == y.f }
	case clc.NEQ:
		return func(x, y lane) bool { return x.f != y.f }
	case clc.LT:
		return func(x, y lane) bool { return x.f < y.f }
	case clc.GT:
		return func(x, y lane) bool { return x.f > y.f }
	case clc.LEQ:
		return func(x, y lane) bool { return x.f <= y.f }
	case clc.GEQ:
		return func(x, y lane) bool { return x.f >= y.f }
	}
	return nil
}

// intRel is relOp for an integer kind, compared as T: uint64 for an
// unsigned kind, int64 for a signed one.
func intRel[T int64 | uint64](op clc.TokenKind) func(x, y lane) bool {
	switch op {
	case clc.EQ:
		return func(x, y lane) bool { return x.i == y.i }
	case clc.NEQ:
		return func(x, y lane) bool { return x.i != y.i }
	case clc.LT:
		return func(x, y lane) bool { return T(x.i) < T(y.i) }
	case clc.GT:
		return func(x, y lane) bool { return T(x.i) > T(y.i) }
	case clc.LEQ:
		return func(x, y lane) bool { return T(x.i) <= T(y.i) }
	case clc.GEQ:
		return func(x, y lane) bool { return T(x.i) >= T(y.i) }
	}
	return nil
}

func (cp *compiler) unaryLane(x *clc.UnaryExpr) (staticFn, bool) {
	switch x.Op {
	case clc.INC, clc.DEC:
		return cp.incDecLane(x.X, x.Op, false)
	case clc.NOT:
		operand := cp.cond(x.X)
		return condOf(stepped(func(c *wiCtx) (bool, error) {
			ok, err := operand(c)
			if err != nil {
				return false, err
			}
			c.prof.IntOps++
			return !ok, nil
		})), true
	case clc.ADD, clc.SUB, clc.BNOT:
		s, ok := cp.static(x.X)
		k, op := s.kind, x.Op
		if !ok || op == clc.BNOT && k.IsFloat() {
			return staticFn{}, false
		}
		apply, float := unaryLaneOp(op, k), k.IsFloat()
		if s.width > 1 {
			operand, n := s.lanes, int64(s.width)
			return vectorOf(s.shape, func(c *wiCtx, dst []lane) error {
				if err := c.step(); err != nil {
					return err
				}
				if err := operand(c, dst); err != nil {
					return err
				}
				for l, x := range dst {
					dst[l] = apply(x)
				}
				c.count(float, n)
				return nil
			}), true
		}
		operand := s.eval
		return scalarOf(k, func(c *wiCtx) (lane, error) {
			if err := c.step(); err != nil {
				return lane{}, err
			}
			l, err := operand(c)
			if err != nil {
				return lane{}, err
			}
			c.count(float, 1)
			return apply(l), nil
		}), true
	}
	return staticFn{}, false
}

// unaryLaneOp returns a prefix +, - or ~ on lanes of kind k, as unaryOp
// applies it: an integer's -x and ~x are the table's 0 - x and x ^ -1.
func unaryLaneOp(op clc.TokenKind, k clc.ScalarKind) func(x lane) lane {
	switch {
	case op == clc.ADD:
		return func(x lane) lane { return x }
	case op == clc.SUB && k.IsFloat():
		return func(x lane) lane { return lane{f: -x.f} }
	case op == clc.SUB:
		sub := laneOp(clc.SUB, k)
		return func(x lane) lane { return sub(lane{}, x) }
	}
	xor := laneOp(clc.XOR, k)
	return func(x lane) lane { return xor(x, lane{i: -1}) }
}

// varTarget is a statically kinded variable as an assignment target.
type varTarget struct {
	shape
	idx     int    // its first frame slot
	unbound string // its name when no declaration binds it here
}

// unknown is the error an assignment to t raises, if no declaration binds
// it here. It is made when the assignment runs: inferKinds compiles every
// target unbound.
func (t *varTarget) unknown() error {
	if t.unbound == "" {
		return nil
	}
	return fmt.Errorf("interp: assignment to unknown identifier %q", t.unbound)
}

func (cp *compiler) varTarget(e clc.Expr) (varTarget, bool) {
	id, ok := e.(*clc.Ident)
	if !ok {
		return varTarget{}, false
	}
	t := varTarget{shape: cp.vars[id.Name]}
	if r := cp.lookup(id.Name); r.bound {
		t.idx = r.idx
	} else {
		t.unbound = id.Name
	}
	_, ok = cp.vars[id.Name]
	return t, ok
}

// incDecLane compiles ++ and -- on a statically kinded scalar variable: it
// counts under the variable's kind and yields the promoted result, or the
// old value when postfix.
func (cp *compiler) incDecLane(target clc.Expr, tok clc.TokenKind, postfix bool) (staticFn, bool) {
	t, ok := cp.varTarget(target)
	kv, op, pk := t.kind, clc.ADD, promoteKind(t.kind, clc.Int)
	if tok == clc.DEC {
		op = clc.SUB
	}
	one, k, idx := convertTo(lane{i: 1}, clc.Int, pk), pk, t.idx
	if postfix {
		k = kv
	}
	switch {
	case !ok || t.width != 1:
		return staticFn{}, false
	case t.unbound != "":
		return scalarOf(k, stepped(func(*wiCtx) (lane, error) { return lane{}, t.unknown() })), true
	}
	apply, float := laneOp(op, pk), kv.IsFloat()
	return scalarOf(k, func(c *wiCtx) (lane, error) {
		if err := c.step(); err != nil {
			return lane{}, err
		}
		s := &c.frame[idx].val
		old := lane{s.i, s.f}
		nv := apply(widenTo(old, kv, pk), one)
		c.count(float, 1)
		r := convertTo(nv, pk, kv)
		s.i, s.f = r.i, r.f
		if postfix {
			return old, nil
		}
		return nv, nil
	}), true
}

// assignLane compiles = and op= to a statically kinded variable, or through
// a guarded pointer parameter. An assignment yields its right-hand side
// before conversion, op= the promoted result; op= counts under the
// target's kind.
func (cp *compiler) assignLane(x *clc.AssignExpr) (staticFn, bool) {
	s, okR := cp.static(x.Y)
	t, okT := cp.varTarget(x.X)
	ix, isElem := x.X.(*clc.IndexExpr)
	if isElem {
		t.shape, okT = cp.elemShape(ix)
	}
	rhs, kr, kt, compound := s.eval, s.kind, t.kind, x.Op != clc.ASSIGN
	op, k, okOp := compoundOps[x.Op], kr, true
	if compound {
		k, okOp = arithKind(op, promoteKind(kt, kr))
	}
	if !okR || !okT || !okOp {
		return staticFn{}, false
	}
	if compound && t.width > 1 {
		if s.width != 1 && s.width != t.width {
			return staticFn{}, false
		}
		return vectorOf(shape{k, t.width}, cp.compoundLanes(x, s, t, k)), true
	}
	if compound && (isElem || s.width > 1) {
		return staticFn{}, false // op= on a scalar element stays on the Value path
	}
	if s.width > 1 || t.width > 1 {
		// A vector is stored lane by lane, a scalar splat to a vector, and a
		// vector stored through a scalar pointer keeps its lane 0.
		if s.width != 1 && s.width != t.width && !(isElem && t.width == 1) {
			return staticFn{}, false
		}
		return shaped(s.shape, cp.storeLanes(x, s, t)), true
	}
	switch {
	case isElem:
		return scalarOf(k, cp.elemStore(x, ix, s, kt)), true
	case t.unbound != "":
		return scalarOf(k, stepped(func(c *wiCtx) (lane, error) {
			if _, err := rhs(c); err != nil {
				return lane{}, err
			}
			return lane{}, t.unknown()
		})), true
	case compound:
		return scalarOf(k, compoundLane(op, k, s, t)), true
	}
	idx := t.idx
	return scalarOf(k, func(c *wiCtx) (lane, error) {
		if err := c.step(); err != nil {
			return lane{}, err
		}
		v, err := rhs(c)
		if err != nil {
			return lane{}, err
		}
		r := convertTo(v, kr, kt)
		s := &c.frame[idx].val
		s.i, s.f = r.i, r.f
		return v, nil
	}), true
}

// compoundLane compiles op= of s, at the promoted kind k, to t, a bound
// scalar variable: it counts under the variable's kind and yields the
// promoted result.
func compoundLane(op clc.TokenKind, k clc.ScalarKind, s staticFn, t varTarget) laneFn {
	rhs, kr, kt, idx := s.eval, s.kind, t.kind, t.idx
	apply, float := laneOp(op, k), kt.IsFloat()
	return func(c *wiCtx) (lane, error) {
		if err := c.step(); err != nil {
			return lane{}, err
		}
		v, err := rhs(c)
		if err != nil {
			return lane{}, err
		}
		d := &c.frame[idx].val
		r := apply(widenTo(lane{d.i, d.f}, kt, k), widenTo(v, kr, k))
		c.count(float, 1)
		w := convertTo(r, k, kt)
		d.i, d.f = w.i, w.f
		return r, nil
	}
}

// elemStore compiles = of scalar s to ix, an element of a guarded pointer
// parameter to kind kt: the right-hand side, the base identifier's unit of
// budget and the index, then a store that counts before it faults.
func (cp *compiler) elemStore(x *clc.AssignExpr, ix *clc.IndexExpr, s staticFn, kt clc.ScalarKind) laneFn {
	rhs, kr := s.eval, s.kind
	base, index := cp.lookup(ix.X.(*clc.Ident).Name).idx, cp.intOf(ix.Index)
	return func(c *wiCtx) (lane, error) {
		if err := c.step(); err != nil {
			return lane{}, err
		}
		v, err := rhs(c)
		if err != nil {
			return lane{}, err
		}
		if err := c.step(); err != nil {
			return lane{}, err
		}
		i, err := index(c)
		if err != nil {
			return lane{}, err
		}
		p := c.frame[base].val.Ptr
		c.countMem(p.Buf.Space, 1, true)
		if err := storeLane(p.Buf, p.Off+i.i, convertTo(v, kr, kt), kt); err != nil {
			return lane{}, fmt.Errorf("interp: %s: %w", x.Pos, err)
		}
		return v, nil
	}
}

// storeLanes compiles = of s to t where either is a vector: it evaluates
// s into dst, which it yields, then stores it to a variable's slots or,
// after the target's base and index, to memory.
func (cp *compiler) storeLanes(x *clc.AssignExpr, s staticFn, t varTarget) lanesFn {
	rhs, kr, kt, tw := s.into(), s.kind, t.kind, t.width
	stride := min(s.width-1, 1) // 0 splats a scalar
	if ix, ok := x.X.(*clc.IndexExpr); ok {
		elem := cp.elemRef(ix, tw)
		return func(c *wiCtx, dst []lane) error {
			if err := c.step(); err != nil {
				return err
			}
			if err := rhs(c, dst); err != nil {
				return err
			}
			b, off, err := elem(c)
			if err != nil {
				return err
			}
			c.countMem(b.Space, tw, true)
			if tw == 1 {
				err = storeLane(b, off, convertTo(dst[0], kr, kt), kt)
			} else if stride == 0 {
				n := len(c.tmp)
				ls := c.take(tw)
				for l := range ls {
					ls[l] = dst[0]
				}
				err = storeVector(b, off, ls, kr, kt)
				c.tmp = c.tmp[:n]
			} else {
				err = storeVector(b, off, dst, kr, kt)
			}
			if err != nil {
				return fmt.Errorf("interp: %s: %w", x.Pos, err)
			}
			return nil
		}
	}
	return func(c *wiCtx, dst []lane) error {
		if err := c.step(); err != nil {
			return err
		}
		err := rhs(c, dst)
		if err == nil && t.unbound != "" {
			err = t.unknown()
		}
		if err != nil {
			return err
		}
		fr := c.frame[t.idx : t.idx+tw]
		for l := range fr {
			v := convertTo(dst[l*stride], kr, kt)
			fr[l].val.i, fr[l].val.f = v.i, v.f
		}
		return nil
	}
}

// compoundLanes compiles op= to t, a vector variable or a guarded pointer
// to a vector, as assign does: the right-hand side, the target's base and
// index, a load that counts, the operator at the promoted kind k, counted
// under the target's kind, then a store that counts before it faults. It
// yields the result into dst. A load's fault is raised as load raises it,
// a store's wrapped with the node's position.
func (cp *compiler) compoundLanes(x *clc.AssignExpr, s staticFn, t varTarget, k clc.ScalarKind) lanesFn {
	rhs, kr, kt, tw, sw := s.into(), s.kind, t.kind, t.width, s.width
	apply, float, stride := laneOp(compoundOps[x.Op], k), kt.IsFloat(), min(sw-1, 1)
	operand := widenTo
	if sw < tw {
		operand = convertTo // a scalar splat to the target's width
	}
	var elem func(*wiCtx) (*Buffer, int64, error)
	if ix, ok := x.X.(*clc.IndexExpr); ok {
		elem = cp.elemRef(ix, tw)
	}
	return func(c *wiCtx, dst []lane) error {
		if err := c.step(); err != nil {
			return err
		}
		n := len(c.tmp)
		defer func() { c.tmp = c.tmp[:n] }()
		v := c.take(sw)
		if err := rhs(c, v); err != nil {
			return err
		}
		var b *Buffer
		var off int64
		switch {
		case elem == nil:
			if t.unbound != "" {
				return t.unknown()
			}
			fr := c.frame[t.idx : t.idx+tw]
			for l := range dst {
				dst[l] = lane{fr[l].val.i, fr[l].val.f}
			}
		default:
			var err error
			if b, off, err = elem(c); err != nil {
				return err
			}
			if err = loadVector(b, off, kt, dst); err != nil {
				return err
			}
			c.countMem(b.Space, tw, false)
		}
		for l := range dst {
			dst[l] = apply(widenTo(dst[l], kt, k), operand(v[l*stride], kr, k))
		}
		c.count(float, int64(tw))
		if b == nil {
			fr := c.frame[t.idx : t.idx+tw]
			for l := range fr {
				r := convertTo(dst[l], k, kt)
				fr[l].val.i, fr[l].val.f = r.i, r.f
			}
			return nil
		}
		c.countMem(b.Space, tw, true)
		if err := storeVector(b, off, dst, k, kt); err != nil {
			return fmt.Errorf("interp: %s: %w", x.Pos, err)
		}
		return nil
	}
}

// elemShape reports the pointee shape of base[index] for a guarded pointer
// parameter base.
func (cp *compiler) elemShape(x *clc.IndexExpr) (shape, bool) {
	if id, ok := x.X.(*clc.Ident); ok {
		sh, ok := cp.ptrs[id.Name]
		return sh, ok
	}
	return shape{}, false
}

// elemRef compiles the target of base[index] for a guarded pointer
// parameter base whose pointee is w slots wide: it spends the base
// identifier's unit of budget, evaluates the index and yields the buffer
// and slot it addresses.
func (cp *compiler) elemRef(x *clc.IndexExpr, w int) func(*wiCtx) (*Buffer, int64, error) {
	idx, index, n := cp.lookup(x.X.(*clc.Ident).Name).idx, cp.intOf(x.Index), int64(w)
	return func(c *wiCtx) (*Buffer, int64, error) {
		if err := c.step(); err != nil {
			return nil, 0, err
		}
		p := c.frame[idx].val.Ptr
		i, err := index(c)
		return p.Buf, p.Off + i.i*n, err
	}
}

// elemLoad compiles base[index] for a guarded pointer parameter base.
func (cp *compiler) elemLoad(x *clc.IndexExpr) (staticFn, bool) {
	sh, ok := cp.elemShape(x)
	if !ok {
		return staticFn{}, false
	}
	k, w := sh.kind, sh.width
	if w == 1 {
		// The node's unit of budget, then the base identifier's, then the
		// index, as elemRef spends them.
		base, index := cp.lookup(x.X.(*clc.Ident).Name).idx, cp.intOf(x.Index)
		return scalarOf(k, func(c *wiCtx) (lane, error) {
			if err := c.step(); err != nil {
				return lane{}, err
			}
			if err := c.step(); err != nil {
				return lane{}, err
			}
			i, err := index(c)
			if err != nil {
				return lane{}, err
			}
			p := c.frame[base].val.Ptr
			l, err := loadLane(p.Buf, p.Off+i.i, k)
			if err != nil {
				return lane{}, fmt.Errorf("interp: %s: %w", x.Pos, err)
			}
			c.countMem(p.Buf.Space, 1, false)
			return l, nil
		}), true
	}
	elem := cp.elemRef(x, w)
	return vectorOf(sh, func(c *wiCtx, dst []lane) error {
		if err := c.step(); err != nil {
			return err
		}
		b, off, err := elem(c)
		if err != nil {
			return err
		}
		if err := loadVector(b, off, k, dst); err != nil {
			return fmt.Errorf("interp: %s: %w", x.Pos, err)
		}
		c.countMem(b.Space, w, false)
		return nil
	}), true
}

// swizzle compiles a swizzle read of a static vector.
func (cp *compiler) swizzle(x *clc.MemberExpr) (staticFn, bool) {
	s, ok := cp.static(x.X)
	if !ok || s.width == 1 || x.Arrow {
		return staticFn{}, false
	}
	lanes, err := clc.VectorComponents(x.Member, s.width)
	if err != nil || len(lanes) == 0 || len(lanes) > MaxLanes || slices.Max(lanes) >= s.width {
		return staticFn{}, false
	}
	base, w := s.lanes, s.width
	return shaped(shape{s.kind, len(lanes)}, func(c *wiCtx, dst []lane) error {
		if err := c.step(); err != nil {
			return err
		}
		n := len(c.tmp)
		t := c.take(w)
		err := base(c, t)
		for i, l := range lanes {
			dst[i] = t[l]
		}
		c.tmp = c.tmp[:n]
		return err
	}), true
}

// castLane compiles a cast to a scalar, a vector conversion or splat, or a
// vector literal.
func (cp *compiler) castLane(x *clc.CastExpr) (staticFn, bool) {
	pack, isPack := x.X.(*clc.ArgPack)
	to, ok := shapeOf(x.To)
	if !ok {
		return staticFn{}, false
	}
	if to.width == 1 {
		if isPack {
			return staticFn{}, false
		}
		if s, ok := cp.scalar(x.X); ok {
			return scalarOf(to.kind, stepped(s.convert(to.kind))), true
		}
		operand := cp.expr(x.X)
		return scalarOf(to.kind, stepped(func(c *wiCtx) (lane, error) {
			v, err := operand(c)
			cv := ConvertScalar(v, to.kind)
			return lane{cv.i, cv.f}, err
		})), true
	}
	args := []clc.Expr{x.X}
	if isPack {
		args = pack.Args
	}
	parts, n := make([]staticFn, len(args)), 0
	for i, a := range args {
		if parts[i], ok = cp.static(a); !ok {
			return staticFn{}, false
		}
		n += parts[i].width
	}
	if n == 1 {
		// A scalar splats, converted to the element kind.
		s := parts[0].convert(to.kind)
		return vectorOf(to, func(c *wiCtx, dst []lane) error {
			if err := c.step(); err != nil {
				return err
			}
			l, err := s(c)
			for i := range dst {
				dst[i] = l
			}
			return err
		}), true
	}
	if n != to.width {
		return staticFn{}, false
	}
	// The parts' lanes, flattened and each converted to the element kind.
	ev := make([]lanesFn, len(parts))
	for i, p := range parts {
		ev[i] = p.into()
	}
	return vectorOf(to, func(c *wiCtx, dst []lane) error {
		if err := c.step(); err != nil {
			return err
		}
		at := 0
		for i, p := range parts {
			ls := dst[at : at+p.width]
			if err := ev[i](c, ls); err != nil {
				return err
			}
			for l, v := range ls {
				ls[l] = convertTo(v, p.kind, to.kind)
			}
			at += p.width
		}
		return nil
	}), true
}

// callLane compiles a work-item query, a lane-wise float builtin, abs or
// dot. A user function of the same name takes precedence, and its result
// is a Value.
func (cp *compiler) callLane(x *clc.CallExpr) (staticFn, bool) {
	if _, user := cp.env.funcs[x.Fun]; user {
		return staticFn{}, false
	}
	if x.Fun == "get_work_dim" {
		return scalarOf(clc.UInt, func(c *wiCtx) (lane, error) {
			dims := int64(1)
			for d := 1; d < 3; d++ {
				if c.ids[globalSize][d] > 1 {
					dims = int64(d + 1)
				}
			}
			return lane{i: dims}, c.step()
		}), true
	}
	if q := slices.Index(queries[:], x.Fun); q >= 0 || x.Fun == "get_global_offset" {
		// A query reads only its first argument, as the dimension.
		dim := func(*wiCtx) (lane, error) { return lane{}, nil }
		if len(x.Args) > 0 {
			dim = cp.intOf(x.Args[0])
		}
		return scalarOf(clc.ULong, stepped(func(c *wiCtx) (lane, error) {
			d, err := dim(c)
			if err != nil || d.i < 0 || d.i > 2 || q < 0 {
				return lane{}, err
			}
			return lane{i: c.ids[q][d.i]}, nil
		})), true
	}
	n := len(x.Args)
	f := mathFns{mathUnary[x.Fun], mathBinary[x.Fun], mathTernary[x.Fun]}
	switch {
	case x.Fun == "dot" && n == 2, x.Fun == "abs" && n == 1:
	case n == 1 && f.f1 != nil, n == 2 && f.f2 != nil, n == 3 && f.f3 != nil:
	default:
		return staticFn{}, false // checked first, so that no other call compiles its arguments twice
	}
	args, k, w := make([]staticFn, n), clc.Void, 1
	for i, a := range x.Args {
		var ok bool
		if args[i], ok = cp.static(a); !ok {
			return staticFn{}, false
		}
		k = promoteKind(k, args[i].kind)
		if w > 1 && args[i].width > 1 && args[i].width != w {
			return staticFn{}, false // mismatched widths stay on the Value path
		}
		w = max(w, args[i].width)
	}
	switch {
	case x.Fun == "dot":
		return dotLane(args[0], args[1]), true
	case x.Fun == "abs" && w == 1:
		return staticFn{}, false // a scalar abs stays on the Value path
	case x.Fun == "abs" && !k.IsFloat():
		return absLane(args[0]), true
	case x.Fun == "abs":
		f.f1 = math.Abs
	}
	return mathLane(floatKindFor(k), w, args, f), true
}

// mathFns is a lane-wise float builtin by arity.
type mathFns struct {
	f1 func(float64) float64
	f2 func(a, b float64) float64
	f3 func(a, b, c float64) float64
}

// apply applies the builtin to the first n of in.
func (f mathFns) apply(n int, in [3]float64) float64 {
	switch n {
	case 1:
		return f.f1(in[0])
	case 2:
		return f.f2(in[0], in[1])
	}
	return f.f3(in[0], in[1], in[2])
}

// mathLane compiles a lane-wise float builtin of width w and result kind
// k, counting a FloatOps per lane. One argument is read as Value.Float
// reads it; more are widened to k, a scalar splat, as mapLanes2 and
// mapLanes3 do.
func mathLane(k clc.ScalarKind, w int, args []staticFn, f mathFns) staticFn {
	n, to := len(args), k
	if n == 1 {
		to = clc.Double
	}
	if w == 1 {
		ev := make([]laneFn, len(args))
		for i, a := range args {
			ev[i] = a.widen(to)
			if to == clc.Double && a.kind.IsFloat() {
				ev[i] = a.eval // widening keeps a float's f view
			}
		}
		f1, f2, f3 := f.f1, f.f2, f.f3
		return scalarOf(k, func(c *wiCtx) (lane, error) {
			if err := c.step(); err != nil {
				return lane{}, err
			}
			var in [3]float64
			for i, e := range ev {
				l, err := e(c)
				if err != nil {
					return lane{}, err
				}
				in[i] = l.f
			}
			var r float64
			switch n {
			case 1:
				r = f1(in[0])
			case 2:
				r = f2(in[0], in[1])
			default:
				r = f3(in[0], in[1], in[2])
			}
			c.prof.FloatOps++
			return floatLane(k, r), nil
		})
	}
	ev, strides := make([]lanesFn, len(args)), make([]int, len(args))
	for i, a := range args {
		ev[i], strides[i] = a.widened(to).into(), min(a.width-1, 1)
	}
	if n == 1 {
		operand, f1 := ev[0], f.f1
		return vectorOf(shape{k, w}, func(c *wiCtx, dst []lane) error {
			if err := c.step(); err != nil {
				return err
			}
			if err := operand(c, dst); err != nil {
				return err
			}
			for l, x := range dst {
				dst[l] = floatLane(k, f1(x.f))
			}
			c.prof.FloatOps += int64(w)
			return nil
		})
	}
	return vectorOf(shape{k, w}, func(c *wiCtx, dst []lane) error {
		if err := c.step(); err != nil {
			return err
		}
		top := len(c.tmp)
		var in [3][]lane
		for i, e := range ev {
			in[i] = c.take(max(w*strides[i], 1))
			if err := e(c, in[i]); err != nil {
				c.tmp = c.tmp[:top]
				return err
			}
		}
		for l := range dst {
			var x [3]float64
			for i, s := range strides {
				x[i] = in[i][l*s].f
			}
			dst[l] = floatLane(k, f.apply(n, x))
		}
		c.tmp = c.tmp[:top]
		c.prof.FloatOps += int64(w)
		return nil
	})
}

// dotLane compiles dot as the Value path computes it: lanes read as
// Value.Float reads them, a's width of them, b's repeating, summed in
// float64 and rounded to a's float kind, for one FloatOps.
func dotLane(a, b staticFn) staticFn {
	k, ea, eb, wb := floatKindFor(a.kind), a.into(), b.into(), b.width
	fa, fb := a.kind.IsFloat(), b.kind.IsFloat()
	return scalarOf(k, stepped(func(c *wiCtx) (lane, error) {
		n := len(c.tmp)
		ta, tb := c.take(a.width), c.take(wb)
		err := ea(c, ta)
		if err == nil {
			err = eb(c, tb)
		}
		var s float64
		for l, x := range ta {
			s += laneFloat(x, fa) * laneFloat(tb[l%wb], fb)
		}
		c.tmp = c.tmp[:n]
		if err != nil {
			return lane{}, err
		}
		c.prof.FloatOps++
		return convertTo(lane{f: s}, clc.Double, k), nil
	}))
}

// laneFloat reads a lane as Value.Float does.
func laneFloat(l lane, float bool) float64 {
	if float {
		return l.f
	}
	return float64(l.i)
}

// absLane compiles abs of an integer vector as the Value path computes it:
// negative lanes negated without wrapping to the kind.
func absLane(a staticFn) staticFn {
	ev, n := a.lanes, int64(a.width)
	return vectorOf(a.shape, func(c *wiCtx, dst []lane) error {
		if err := c.step(); err != nil {
			return err
		}
		if err := ev(c, dst); err != nil {
			return err
		}
		for l, x := range dst {
			if x.i < 0 {
				dst[l].i = -x.i
			}
		}
		c.prof.IntOps += n
		return nil
	})
}

// into returns s as a lanesFn: a scalar writes its one lane.
func (s staticFn) into() lanesFn {
	if s.width > 1 {
		return s.lanes
	}
	ev := s.eval
	return func(c *wiCtx, dst []lane) (err error) {
		dst[0], err = ev(c)
		return err
	}
}

// widen compiles scalar s converted to kind to as widenLane does: a lane
// already of kind to passes unchanged.
func (s staticFn) widen(to clc.ScalarKind) laneFn {
	if s.kind == to {
		return s.eval
	}
	return s.convert(to)
}

// widened is s as an operand of a vector operation at kind to, as widen
// makes it: a vector converted lane by lane unless already of kind to, a
// scalar converted to be splat even when it is, as splat converts it.
func (s staticFn) widened(to clc.ScalarKind) staticFn {
	if s.width == 1 {
		return scalarOf(to, s.convert(to))
	}
	if s.kind == to {
		return s
	}
	ev, from := s.lanes, s.kind
	return vectorOf(shape{to, s.width}, func(c *wiCtx, dst []lane) error {
		err := ev(c, dst)
		for l, x := range dst {
			dst[l] = convertTo(x, from, to)
		}
		return err
	})
}

// convert compiles scalar s converted to kind to, as convertLane does.
func (s staticFn) convert(to clc.ScalarKind) laneFn {
	ev, from := s.eval, s.kind
	return func(c *wiCtx) (lane, error) {
		l, err := ev(c)
		return convertTo(l, from, to), err
	}
}

// value compiles s for a consumer that needs a Value. A vector's lanes are
// boxed in place, in the work-item's lane arena.
func (s staticFn) value() evalFn {
	k := s.kind
	if s.width == 1 {
		ev := s.eval
		return func(c *wiCtx) (Value, error) {
			l, err := ev(c)
			return box(k, l), err
		}
	}
	ev, w := s.lanes, s.width
	return func(c *wiCtx) (Value, error) {
		ls := c.arena.alloc(w)
		if err := ev(c, ls); err != nil {
			return Value{}, err
		}
		for l, x := range ls {
			ls[l] = boxLane(k, x)
		}
		return vector(k, ls), nil
	}
}

// cond compiles e for a consumer that tests it as Value.Bool does.
func (cp *compiler) cond(e clc.Expr) condFn {
	if s, ok := cp.scalar(e); ok && s.test != nil {
		return s.test
	} else if ok {
		ev, float := s.eval, s.kind.IsFloat()
		return func(c *wiCtx) (bool, error) {
			l, err := ev(c)
			return float && l.f != 0 || !float && l.i != 0, err
		}
	}
	ev := cp.expr(e)
	return func(c *wiCtx) (bool, error) {
		v, err := ev(c)
		return v.Bool(), err
	}
}

// intOf compiles e for a consumer that reads it as Value.Int does, into
// the i view.
func (cp *compiler) intOf(e clc.Expr) laneFn {
	if s, ok := cp.scalar(e); ok && s.kind.IsFloat() {
		return s.convert(clc.Long) // int64(clampToInt64(f))
	} else if ok {
		return s.eval
	}
	ev := cp.expr(e)
	return func(c *wiCtx) (lane, error) {
		v, err := ev(c)
		return lane{i: v.Int()}, err
	}
}

// convertTo converts l from kind from to kind to, as convertLane does for
// a scalar that is not a pointer.
func convertTo(l lane, from, to clc.ScalarKind) lane {
	switch {
	case to.IsFloat():
		f := l.f
		if !from.IsFloat() {
			f = float64(l.i)
		}
		if to != clc.Double {
			f = float64(float32(f))
		}
		return lane{f: f}
	case from.IsFloat():
		return lane{i: truncInt(to, int64(clampToInt64(l.f)))}
	}
	return lane{i: truncInt(to, l.i)}
}

// widenTo is convertTo for an operand of promote, which passes a lane
// already of the promoted kind unchanged.
func widenTo(l lane, from, to clc.ScalarKind) lane {
	if from == to {
		return l
	}
	return convertTo(l, from, to)
}

// boxLane completes a lane of kind k with the view it does not hold.
func boxLane(k clc.ScalarKind, l lane) lane {
	if k.IsFloat() {
		return lane{int64(clampToInt64(l.f)), l.f}
	}
	return lane{l.i, float64(l.i)}
}

// box builds the Value of a lane of kind k, as boxLane completes it. It
// stays small enough for the compiler to inline into the scalar closures.
func box(k clc.ScalarKind, l lane) Value {
	if k.IsFloat() {
		return scalar(k, int64(clampToInt64(l.f)), l.f)
	}
	return scalar(k, l.i, float64(l.i))
}

// loadLane reads slot off of b as load does for a scalar of kind k: an
// integer buffer read as float through float64(i), a float buffer read as
// an integer kind through an unclamped int64(f).
func loadLane(b *Buffer, off int64, k clc.ScalarKind) (lane, error) {
	i, f, err := b.loadScalar(off)
	if k.IsFloat() {
		return convertTo(lane{f: f}, clc.Double, k), err
	}
	return lane{i: truncInt(k, i)}, err
}

// storeLane writes l, already of the pointee kind elem, to slot off of b,
// converting it to the buffer's kind as store does.
func storeLane(b *Buffer, off int64, l lane, elem clc.ScalarKind) error {
	if b.Kind != elem {
		l = convertTo(l, elem, b.Kind)
	}
	return b.storeScalar(off, l.i, l.f)
}

// loadVector reads len(dst) slots from off of b as load does for a vector
// of kind k, whose lanes convert from the buffer's kind as convertLane
// does. It goes lane by lane, so a fault leaves the lanes before it read
// and MaxSlot raised past them.
func loadVector(b *Buffer, off int64, k clc.ScalarKind, dst []lane) error {
	n := int64(len(dst))
	if off < 0 || off > int64(b.Len())-n {
		from := clc.Long
		if b.Kind.IsFloat() {
			from = clc.Double
		}
		for l := range dst {
			i, f, err := b.loadScalar(off + int64(l))
			if err != nil {
				return err
			}
			dst[l] = convertTo(lane{i, f}, from, k)
		}
		return nil
	}
	switch {
	case b.Kind.IsFloat() && k == clc.Float:
		for l, f := range b.F[off : off+n] {
			dst[l] = lane{f: float64(float32(f))}
		}
	case b.Kind.IsFloat():
		for l, f := range b.F[off : off+n] {
			dst[l] = convertTo(lane{f: f}, clc.Double, k)
		}
	default:
		for l, i := range b.I[off : off+n] {
			dst[l] = convertTo(lane{i: i}, clc.Long, k)
		}
	}
	b.MaxSlot = max(b.MaxSlot, off+n-1)
	return nil
}

// storeVector writes ls, lanes of kind from, to len(ls) slots from off of
// b as store does for a vector of kind elem: each lane converted to elem,
// then to the buffer's kind. It goes lane by lane, so a fault leaves the
// lanes before it stored.
func storeVector(b *Buffer, off int64, ls []lane, from, elem clc.ScalarKind) error {
	n := int64(len(ls))
	if off < 0 || off > int64(b.Len())-n {
		for l, x := range ls {
			c := convertTo(convertTo(x, from, elem), elem, b.Kind)
			if err := b.storeScalar(off+int64(l), c.i, c.f); err != nil {
				return err
			}
		}
		return nil
	}
	switch {
	case b.Kind == clc.Float && from == clc.Float && elem == clc.Float:
		fs := b.F[off : off+n]
		for l, x := range ls {
			fs[l] = float64(float32(x.f))
		}
	case b.Kind.IsFloat():
		fs := b.F[off : off+n]
		for l, x := range ls {
			fs[l] = convertTo(convertTo(x, from, elem), elem, b.Kind).f
		}
	default:
		is := b.I[off : off+n]
		for l, x := range ls {
			is[l] = convertTo(convertTo(x, from, elem), elem, b.Kind).i
		}
	}
	b.MaxSlot = max(b.MaxSlot, off+n-1)
	return nil
}
