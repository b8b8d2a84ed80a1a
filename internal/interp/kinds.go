package interp

import (
	"fmt"
	"slices"

	"clgen/internal/clc"
)

// Static kinds (DESIGN.md §7). An expression whose run-time kind the
// interpreter's own rules fix compiles into a laneFn, which returns its
// lane unboxed, with its operator, conversion and Profile counter chosen at
// compile time. A laneFn spends its budget unit, touches memory and counts
// exactly where the Value closure it replaces does.

// laneFn evaluates a scalar expression of a kind fixed at compile time; only
// the lane's view of that kind (i for integers, f for floats) is meaningful.
type laneFn func(c *wiCtx) (lane, error)

// scalarFn is a compiled scalar expression and its kind.
type scalarFn struct {
	kind clc.ScalarKind
	eval laneFn
}

// guard is a parameter whose kind a typed body assumes. A scalar
// parameter (elem Void) must not be passed a pointer; a pointer parameter
// must be passed a non-nil pointer to a scalar of kind elem.
type guard struct {
	arg  int
	elem clc.ScalarKind
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
		if g.elem == clc.Void {
			if p != nil {
				return false
			}
		} else if p == nil {
			return false
		} else if st, ok := p.Elem.(*clc.ScalarType); !ok || st.Kind != g.elem {
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
// a scalar of one kind and every initializer and assignment statically
// kinded, and pointer parameters to a scalar that are never reassigned.
func (cp *compiler) inferKinds(fd *clc.FuncDecl) []guard {
	// bad holds the names that are address-taken or bound through a cell.
	decls, local, bad := map[string][]clc.Type{}, map[string]bool{}, map[string]bool{}
	for _, p := range fd.Params {
		decls[p.Name] = append(decls[p.Name], p.Type)
	}
	for _, names := range cp.uncertain {
		for name := range names {
			bad[name] = true
		}
	}
	type write struct {
		name string
		e    clc.Expr // must be statically kinded for name to be
	}
	var writes []write
	var targets []*clc.Ident
	target := func(e, assign clc.Expr) {
		if id, ok := e.(*clc.Ident); ok {
			targets = append(targets, id)
			writes = append(writes, write{id.Name, assign})
		}
	}
	clc.Walk(fd.Body, func(n clc.Node) bool {
		switch x := n.(type) {
		case *clc.VarDecl:
			decls[x.Name] = append(decls[x.Name], x.Type)
			local[x.Name] = true
			if x.Init != nil {
				writes = append(writes, write{x.Name, x.Init})
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
	cp.vars, cp.ptrs = map[string]clc.ScalarKind{}, map[string]clc.ScalarKind{}
	for name, ts := range decls {
		_, isConst := cp.env.consts[name]
		_, isGlobal := cp.env.globals[name]
		_, isPredeclared := clc.PredeclaredValue(name)
		if bad[name] || isConst || isGlobal || isPredeclared {
			continue // a name resolving to file scope where no local binds it
		}
		st, scalar := ts[0].(*clc.ScalarType)
		for _, t := range ts[1:] {
			other, ok := t.(*clc.ScalarType)
			scalar = scalar && ok && other.Kind == st.Kind
		}
		if scalar && staticKind(st.Kind) {
			cp.vars[name] = st.Kind
		} else if pt, ok := ts[0].(*clc.PointerType); ok && len(ts) == 1 && !local[name] {
			if st, ok := pt.Elem.(*clc.ScalarType); ok && staticKind(st.Kind) {
				cp.ptrs[name] = st.Kind
			}
		}
	}
	for _, id := range targets {
		delete(cp.ptrs, id.Name)
		if st, ok := id.ExprType().(*clc.ScalarType); !ok || st.Kind != cp.vars[id.Name] {
			delete(cp.vars, id.Name)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, w := range writes {
			if _, ok := cp.vars[w.name]; ok {
				if _, ok := cp.scalar(w.e); !ok {
					delete(cp.vars, w.name)
					changed = true
				}
			}
		}
	}
	var guards []guard
	for i, p := range fd.Params {
		if _, ok := cp.vars[p.Name]; ok {
			guards = append(guards, guard{arg: i})
		} else if k, ok := cp.ptrs[p.Name]; ok {
			guards = append(guards, guard{arg: i, elem: k})
		}
	}
	return guards
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

// scalar compiles e into a laneFn if its kind is static. The compiler
// asks it first of every expression; inferKinds asks it of every value
// bound to a variable. Without inferKinds (a plain body) no variable or
// parameter has a static kind, but literals, casts, queries and the
// logical operators still do.
func (cp *compiler) scalar(e clc.Expr) (scalarFn, bool) {
	switch x := e.(type) {
	case *clc.Ident:
		k, ok := cp.vars[x.Name]
		if !ok {
			return scalarFn{}, false
		}
		r := cp.lookup(x.Name)
		if !r.bound {
			err := fmt.Errorf("interp: unknown identifier %q", x.Name)
			return scalarFn{k, stepped(func(*wiCtx) (lane, error) { return lane{}, err })}, true
		}
		return scalarFn{k, func(c *wiCtx) (lane, error) {
			v := &c.frame[r.idx].val
			return lane{v.i, v.f}, c.step()
		}}, true
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
			return scalarFn{}, false
		}
		cond := cp.cond(x.Cond)
		return scalarFn{a.kind, stepped(func(c *wiCtx) (lane, error) {
			if ok, err := test(c, cond); err != nil {
				return lane{}, err
			} else if ok {
				return a.eval(c)
			}
			return b.eval(c)
		})}, true
	case *clc.CastExpr:
		st, ok := x.To.(*clc.ScalarType)
		if _, pack := x.X.(*clc.ArgPack); !ok || pack || !staticKind(st.Kind) {
			return scalarFn{}, false
		}
		if s, ok := cp.scalar(x.X); ok {
			return scalarFn{st.Kind, stepped(s.convert(st.Kind))}, true
		}
		operand := cp.expr(x.X)
		return scalarFn{st.Kind, stepped(func(c *wiCtx) (lane, error) {
			v, err := operand(c)
			cv := ConvertScalar(v, st.Kind)
			return lane{cv.i, cv.f}, err
		})}, true
	case *clc.CallExpr:
		return cp.callLane(x)
	case *clc.IndexExpr:
		k, ok := cp.elemKind(x)
		if !ok {
			return scalarFn{}, false
		}
		elem := cp.elemRef(x)
		return scalarFn{k, stepped(func(c *wiCtx) (lane, error) {
			b, off, err := elem(c)
			if err != nil {
				return lane{}, err
			}
			l, err := loadLane(b, off, k)
			if err != nil {
				return lane{}, fmt.Errorf("interp: %s: %w", x.Pos, err)
			}
			c.countMem(b.Space, 1, false)
			return l, nil
		})}, true
	}
	v, ok := literal(e)
	if _, isFloat := e.(*clc.FloatLit); !ok || !staticKind(v.Kind) || isFloat != v.Kind.IsFloat() {
		return scalarFn{}, false // a string, or a literal the checker typed across kinds
	}
	l := lane{v.i, v.f}
	return scalarFn{v.Kind, func(c *wiCtx) (lane, error) { return l, c.step() }}, true
}

// operands evaluates a binary node's operands in order, after its unit of
// budget.
func (c *wiCtx) operands(a, b laneFn) (lane, lane, error) {
	if err := c.step(); err != nil {
		return lane{}, lane{}, err
	}
	u, err := a(c)
	if err != nil {
		return u, lane{}, err
	}
	v, err := b(c)
	return u, v, err
}

func (cp *compiler) binaryLane(x *clc.BinaryExpr) (scalarFn, bool) {
	op := x.Op
	if op == clc.LAND || op == clc.LOR {
		a, b, and := cp.cond(x.X), cp.cond(x.Y), op == clc.LAND
		return scalarFn{clc.Int, stepped(func(c *wiCtx) (lane, error) {
			if ok, err := a(c); err != nil || ok != and {
				return lane{i: boolToInt(!and)}, err
			}
			ok, err := b(c)
			return lane{i: boolToInt(ok)}, err
		})}, true
	}
	sa, okA := cp.scalar(x.X)
	sb, okB := cp.scalar(x.Y)
	if !okA || !okB {
		return scalarFn{}, false
	}
	pk := promoteKind(sa.kind, sb.kind)
	a, b := sa.widen(pk), sb.widen(pk)
	k, ok := arithKind(op, pk)
	cmp := false
	switch op {
	case clc.EQ, clc.NEQ, clc.LT, clc.GT, clc.LEQ, clc.GEQ:
		k, ok, cmp = clc.Int, true, true
	}
	return scalarFn{k, func(c *wiCtx) (lane, error) {
		u, v, err := c.operands(a, b)
		if err != nil {
			return lane{}, err
		}
		if cmp {
			c.prof.IntOps++
			return lane{i: boolToInt(compareLanes(op, pk, u, v))}, nil
		}
		r, _ := arith(op, k, u, v) // arithKind admits only operators arith implements
		c.countArith(k, 1)
		return r, nil
	}}, ok
}

func (cp *compiler) unaryLane(x *clc.UnaryExpr) (scalarFn, bool) {
	switch x.Op {
	case clc.INC, clc.DEC:
		return cp.incDecLane(x.X, x.Op, false)
	case clc.NOT:
		operand := cp.cond(x.X)
		return scalarFn{clc.Int, stepped(func(c *wiCtx) (lane, error) {
			ok, err := operand(c)
			if err != nil {
				return lane{}, err
			}
			c.prof.IntOps++
			return lane{i: boolToInt(!ok)}, nil
		})}, true
	case clc.ADD, clc.SUB, clc.BNOT:
		s, ok := cp.scalar(x.X)
		k, operand, op, float := s.kind, s.eval, x.Op, s.kind.IsFloat()
		return scalarFn{k, stepped(func(c *wiCtx) (lane, error) {
			l, err := operand(c)
			if err != nil {
				return lane{}, err
			}
			switch {
			case op == clc.SUB && float:
				l.f = -l.f
			case op == clc.SUB:
				l.i = truncInt(k, -l.i)
			case op == clc.BNOT:
				l.i = truncInt(k, ^l.i)
			}
			c.countArith(k, 1)
			return l, nil
		})}, ok && !(op == clc.BNOT && float)
	}
	return scalarFn{}, false
}

// varTarget is a statically kinded variable as an assignment target.
type varTarget struct {
	kind    clc.ScalarKind
	idx     int   // its frame slot
	unknown error // raised instead when no declaration binds it here
}

func (cp *compiler) varTarget(e clc.Expr) (varTarget, bool) {
	id, ok := e.(*clc.Ident)
	if !ok {
		return varTarget{}, false
	}
	t := varTarget{kind: cp.vars[id.Name]}
	if r := cp.lookup(id.Name); r.bound {
		t.idx = r.idx
	} else {
		t.unknown = fmt.Errorf("interp: assignment to unknown identifier %q", id.Name)
	}
	_, ok = cp.vars[id.Name]
	return t, ok
}

// incDecLane compiles ++ and -- on a statically kinded variable: it counts
// under the variable's kind and yields the promoted result, or the old
// value when postfix.
func (cp *compiler) incDecLane(target clc.Expr, tok clc.TokenKind, postfix bool) (scalarFn, bool) {
	t, ok := cp.varTarget(target)
	kv, op, pk := t.kind, clc.ADD, promoteKind(t.kind, clc.Int)
	if tok == clc.DEC {
		op = clc.SUB
	}
	one, k := convertTo(lane{i: 1}, clc.Int, pk), pk
	if postfix {
		k = kv
	}
	return scalarFn{k, stepped(func(c *wiCtx) (lane, error) {
		if t.unknown != nil {
			return lane{}, t.unknown
		}
		s := &c.frame[t.idx].val
		old := lane{s.i, s.f}
		nv, _ := arith(op, pk, widenTo(old, kv, pk), one)
		c.countArith(kv, 1)
		*s = box(kv, convertTo(nv, pk, kv))
		if postfix {
			return old, nil
		}
		return nv, nil
	})}, ok
}

// assignLane compiles = and op= to a statically kinded variable, or = through
// a guarded pointer parameter. An assignment yields its right-hand side
// before conversion, op= the promoted result; op= counts under the
// target's kind.
func (cp *compiler) assignLane(x *clc.AssignExpr) (scalarFn, bool) {
	s, okR := cp.scalar(x.Y)
	t, okT := cp.varTarget(x.X)
	ix, isElem := x.X.(*clc.IndexExpr)
	if isElem {
		t.kind, okT = cp.elemKind(ix)
	}
	rhs, kr, kt, compound := s.eval, s.kind, t.kind, x.Op != clc.ASSIGN
	op, k, okOp := compoundOps[x.Op], kr, true
	if compound {
		k, okOp = arithKind(op, promoteKind(kt, kr))
	}
	if !okR || !okT || !okOp || compound && isElem {
		return scalarFn{}, false
	}
	if !isElem {
		return scalarFn{k, stepped(func(c *wiCtx) (lane, error) {
			v, err := rhs(c)
			if err == nil {
				err = t.unknown
			}
			if err != nil {
				return lane{}, err
			}
			s, from := &c.frame[t.idx].val, kr
			if compound {
				v, _ = arith(op, k, widenTo(lane{s.i, s.f}, kt, k), widenTo(v, kr, k))
				from = k
				c.countArith(kt, 1)
			}
			*s = box(kt, convertTo(v, from, kt))
			return v, nil
		})}, true
	}
	elem := cp.elemRef(ix)
	return scalarFn{k, stepped(func(c *wiCtx) (lane, error) {
		v, err := rhs(c)
		if err != nil {
			return lane{}, err
		}
		b, off, err := elem(c)
		if err != nil {
			return lane{}, err
		}
		c.countMem(b.Space, 1, true)
		if err := storeLane(b, off, convertTo(v, kr, kt), kt); err != nil {
			return lane{}, fmt.Errorf("interp: %s: %w", x.Pos, err)
		}
		return v, nil
	})}, true
}

// elemKind reports the pointee kind of base[index] for a guarded pointer
// parameter base.
func (cp *compiler) elemKind(x *clc.IndexExpr) (clc.ScalarKind, bool) {
	if id, ok := x.X.(*clc.Ident); ok {
		k, ok := cp.ptrs[id.Name]
		return k, ok
	}
	return 0, false
}

// elemRef compiles the target of base[index] for a guarded pointer
// parameter base: it spends the base identifier's unit of budget,
// evaluates the index and yields the buffer and slot it addresses.
func (cp *compiler) elemRef(x *clc.IndexExpr) func(*wiCtx) (*Buffer, int64, error) {
	idx, index := cp.lookup(x.X.(*clc.Ident).Name).idx, cp.intOf(x.Index)
	return func(c *wiCtx) (*Buffer, int64, error) {
		if err := c.step(); err != nil {
			return nil, 0, err
		}
		p := c.frame[idx].val.Ptr
		i, err := index(c)
		return p.Buf, p.Off + i.i, err
	}
}

// callLane compiles a work-item query or a lane-wise float builtin. A user
// function of the same name takes precedence, and its result is a Value.
func (cp *compiler) callLane(x *clc.CallExpr) (scalarFn, bool) {
	if _, user := cp.env.funcs[x.Fun]; user {
		return scalarFn{}, false
	}
	if x.Fun == "get_work_dim" {
		return scalarFn{clc.UInt, func(c *wiCtx) (lane, error) {
			dims := int64(1)
			for d := 1; d < 3; d++ {
				if c.ids[globalSize][d] > 1 {
					dims = int64(d + 1)
				}
			}
			return lane{i: dims}, c.step()
		}}, true
	}
	if q := slices.Index(queries[:], x.Fun); q >= 0 || x.Fun == "get_global_offset" {
		// A query reads only its first argument, as the dimension.
		dim := func(*wiCtx) (lane, error) { return lane{}, nil }
		if len(x.Args) > 0 {
			dim = cp.intOf(x.Args[0])
		}
		return scalarFn{clc.ULong, stepped(func(c *wiCtx) (lane, error) {
			d, err := dim(c)
			if err != nil || d.i < 0 || d.i > 2 || q < 0 {
				return lane{}, err
			}
			return lane{i: c.ids[q][d.i]}, nil
		})}, true
	}
	f1, f2, f3 := mathUnary[x.Fun], mathBinary[x.Fun], mathTernary[x.Fun]
	n := len(x.Args)
	if !(n == 1 && f1 != nil || n == 2 && f2 != nil || n == 3 && f3 != nil) {
		return scalarFn{}, false
	}
	args, k := make([]scalarFn, n), clc.Void
	for i, a := range x.Args {
		var ok bool
		if args[i], ok = cp.scalar(a); !ok {
			return scalarFn{}, false
		}
		k = promoteKind(k, args[i].kind)
	}
	// One argument is read as Value.Float reads it; more are widened to
	// the result kind, as mapLanes2 and mapLanes3 do.
	k = floatKindFor(k)
	ev := make([]laneFn, n)
	for i, s := range args {
		ev[i] = s.widen(k)
	}
	if n == 1 {
		ev[0] = args[0].widen(clc.Double)
	}
	return scalarFn{k, stepped(func(c *wiCtx) (lane, error) {
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
	})}, true
}

// widen compiles s converted to kind to as widenLane does: a lane already
// of kind to passes unchanged.
func (s scalarFn) widen(to clc.ScalarKind) laneFn {
	if s.kind == to {
		return s.eval
	}
	return s.convert(to)
}

// convert compiles s converted to kind to, as convertLane does.
func (s scalarFn) convert(to clc.ScalarKind) laneFn {
	ev, from := s.eval, s.kind
	return func(c *wiCtx) (lane, error) {
		l, err := ev(c)
		return convertTo(l, from, to), err
	}
}

// value compiles s for a consumer that needs a Value.
func (s scalarFn) value() evalFn {
	ev, k := s.eval, s.kind
	return func(c *wiCtx) (Value, error) {
		l, err := ev(c)
		return box(k, l), err
	}
}

// cond compiles e for a consumer that tests it as Value.Bool does.
func (cp *compiler) cond(e clc.Expr) condFn {
	if s, ok := cp.scalar(e); ok {
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

// box builds the Value of a lane of kind k.
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
