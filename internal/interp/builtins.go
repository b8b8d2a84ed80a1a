package interp

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"clgen/internal/clc"
)

// queries are the work-item query builtins, in wiCtx.ids order.
var queries = [...]string{"get_global_id", "get_local_id", "get_group_id",
	"get_global_size", "get_local_size", "get_num_groups"}

const globalSize = 3 // queries index of get_global_size

// call compiles a call that is not statically kinded (callLane compiles
// the others). User functions take precedence over builtins of the same
// name; both resolve here, once.
func (cp *compiler) call(x *clc.CallExpr) evalFn {
	args := cp.exprs(x.Args)
	if f, ok := cp.env.funcs[x.Fun]; ok {
		if !cp.typed {
			return withArgs(args, func(c *wiCtx, vals []Value) (Value, error) { return c.call(f.plain(), vals) })
		}
		return withArgs(args, func(c *wiCtx, vals []Value) (Value, error) { return c.call(f, vals) })
	}
	name := x.Fun
	// evalAll evaluates every argument for its side effects.
	evalAll := func(c *wiCtx) error {
		for _, a := range args {
			if _, err := a(c); err != nil {
				return err
			}
		}
		return nil
	}
	switch name {
	case "barrier", "work_group_barrier", "mem_fence", "read_mem_fence", "write_mem_fence":
		sync := name == "barrier" || name == "work_group_barrier"
		return func(c *wiCtx) (Value, error) {
			if err := evalAll(c); err != nil {
				return Value{}, err
			}
			c.prof.Barriers++
			if sync && c.yield != nil {
				if err := c.yield(); err != nil {
					return Value{}, err
				}
			}
			return Value{}, nil
		}
	case "printf", "prefetch", "wait_group_events":
		var result Value
		if name == "printf" {
			result = IntValue(clc.Int, 0)
		}
		return func(c *wiCtx) (Value, error) { return result, evalAll(c) }
	}
	if b := clc.LookupBuiltin(name); b != nil && b.Atomic {
		return atomic(name, args)
	}
	return withArgs(args, cp.builtin(name))
}

// withArgs evaluates the arguments, then applies f to them.
func withArgs(args []evalFn, f func(*wiCtx, []Value) (Value, error)) evalFn {
	return func(c *wiCtx) (Value, error) {
		vals, base, err := c.evalArgs(args)
		if err != nil {
			return Value{}, err
		}
		v, err := f(c, vals)
		c.vals = c.vals[:base]
		return v, err
	}
}

// builtin resolves a builtin that takes its arguments evaluated.
func (cp *compiler) builtin(name string) func(*wiCtx, []Value) (Value, error) {
	if t, ok := clc.ConversionTarget(name); ok {
		reinterpret := strings.HasPrefix(name, "as_")
		return func(c *wiCtx, args []Value) (Value, error) {
			if len(args) != 1 {
				return Value{}, fmt.Errorf("interp: %s takes 1 argument", name)
			}
			if reinterpret {
				return bitReinterpret(args[0], t)
			}
			return Convert(args[0], t)
		}
	}
	if n, ok := clc.VectorWidthOfName(name); ok {
		if strings.HasPrefix(name, "vload") {
			return func(c *wiCtx, args []Value) (Value, error) { return c.vload(n, args) }
		}
		return func(c *wiCtx, args []Value) (Value, error) { return Value{}, c.vstore(n, args) }
	}
	if name == "async_work_group_copy" || name == "async_work_group_strided_copy" {
		// Async copies complete synchronously.
		return func(c *wiCtx, args []Value) (Value, error) { return c.asyncCopy(name, args) }
	}
	if fn, ok := mathBuiltins[name]; ok {
		return func(c *wiCtx, args []Value) (Value, error) {
			v, err := fn(c, args)
			if err != nil {
				return Value{}, fmt.Errorf("interp: %s: %w", name, err)
			}
			c.countArith(v.Kind, v.Width)
			return v, nil
		}
	}
	err := fmt.Errorf("interp: unimplemented builtin %q", name)
	return func(*wiCtx, []Value) (Value, error) { return Value{}, err }
}

// atomic compiles an atomic read-modify-write. The pointer is evaluated
// and read before the operands.
func atomic(name string, args []evalFn) evalFn {
	op := strings.TrimPrefix(strings.TrimPrefix(name, "atomic_"), "atom_")
	operand := func(c *wiCtx, i int) (int64, error) {
		if len(args) <= i {
			return 0, nil
		}
		v, err := args[i](c)
		return v.Int(), err
	}
	return func(c *wiCtx) (Value, error) {
		if len(args) == 0 {
			return Value{}, fmt.Errorf("interp: %s needs a pointer argument", name)
		}
		pv, err := args[0](c)
		if err != nil {
			return Value{}, err
		}
		if !pv.IsPointer() {
			return Value{}, fmt.Errorf("interp: %s on non-pointer", name)
		}
		p := pv.Ptr
		old, _, err := p.Buf.loadScalar(p.Off)
		if err != nil {
			return Value{}, err
		}
		c.prof.Atomics++
		x, err := operand(c, 1)
		if err != nil {
			return Value{}, err
		}
		nv := old
		switch op {
		case "add":
			nv = old + x
		case "sub":
			nv = old - x
		case "inc":
			nv = old + 1
		case "dec":
			nv = old - 1
		case "xchg":
			nv = x
		case "min":
			nv = min(old, x)
		case "max":
			nv = max(old, x)
		case "and":
			nv = old & x
		case "or":
			nv = old | x
		case "xor":
			nv = old ^ x
		case "cmpxchg":
			val, err := operand(c, 2)
			if err != nil {
				return Value{}, err
			}
			if old == x {
				nv = val
			}
		default:
			return Value{}, fmt.Errorf("interp: unknown atomic %q", name)
		}
		if err := p.Buf.storeScalar(p.Off, nv, float64(nv)); err != nil {
			return Value{}, err
		}
		kind := clc.Int
		if st, ok := p.Elem.(*clc.ScalarType); ok {
			kind = st.Kind
		}
		return IntValue(kind, old), nil
	}
}

func (c *wiCtx) vload(n int, args []Value) (Value, error) {
	if len(args) != 2 || !args[1].IsPointer() {
		return Value{}, fmt.Errorf("interp: vload%d(offset, pointer)", n)
	}
	p := args[1].Ptr
	off := args[0].Int() * int64(n)
	kind := elemKind(p.Elem)
	src := Value{Kind: p.Buf.Kind, Width: 1}
	ls := make([]lane, n)
	for l := range ls {
		i, f, err := p.Buf.loadScalar(p.Off + off + int64(l))
		if err != nil {
			return Value{}, err
		}
		ls[l] = convertLane(lane{i, f}, src, kind)
	}
	c.countMem(p.Buf.Space, n, false)
	return vector(kind, ls), nil
}

func (c *wiCtx) vstore(n int, args []Value) error {
	if len(args) != 3 || !args[2].IsPointer() {
		return fmt.Errorf("interp: vstore%d(value, offset, pointer)", n)
	}
	p := args[2].Ptr
	off := args[1].Int() * int64(n)
	v := args[0]
	for l := 0; l < n; l++ {
		var cb lane
		if v.Width > 1 {
			cb = convertLane(v.lane(l%v.Width), v, p.Buf.Kind)
		} else {
			cb = convertLane(v.lane(0), v, p.Buf.Kind)
		}
		if err := p.Buf.storeScalar(p.Off+off+int64(l), cb.i, cb.f); err != nil {
			return err
		}
	}
	c.countMem(p.Buf.Space, n, true)
	return nil
}

func (c *wiCtx) asyncCopy(name string, args []Value) (Value, error) {
	if len(args) < 3 || !args[0].IsPointer() || !args[1].IsPointer() {
		return Value{}, fmt.Errorf("interp: %s(dst, src, n, ...)", name)
	}
	dst, src := args[0].Ptr, args[1].Ptr
	n := args[2].Int() * scalarSlots(dst.Elem)
	stride := int64(1)
	if name == "async_work_group_strided_copy" && len(args) > 3 {
		stride = max(args[3].Int(), 1)
	}
	for i := int64(0); i < n; i++ {
		iv, fv, err := src.Buf.loadScalar(src.Off + i*stride)
		if err != nil {
			return Value{}, err
		}
		if err := dst.Buf.storeScalar(dst.Off+i, iv, fv); err != nil {
			return Value{}, err
		}
	}
	c.countMem(src.Buf.Space, int(n), false)
	c.countMem(dst.Buf.Space, int(n), true)
	return IntValue(clc.ULong, 0), nil
}

// bitReinterpret implements as_T for scalar float/int pairs bit-exactly and
// falls back to numeric conversion elsewhere.
func bitReinterpret(v Value, t clc.Type) (Value, error) {
	st, isScalar := t.(*clc.ScalarType)
	if isScalar && v.Width <= 1 {
		switch {
		case st.Kind == clc.Float && !v.Kind.IsFloat():
			return FloatValue(clc.Float, float64(math.Float32frombits(uint32(v.i)))), nil
		case st.Kind.IsInteger() && (v.Kind == clc.Float || v.Kind == clc.Half):
			return IntValue(st.Kind, int64(math.Float32bits(float32(v.f)))), nil
		case st.Kind == clc.Double && !v.Kind.IsFloat():
			return FloatValue(clc.Double, math.Float64frombits(uint64(v.i))), nil
		case st.Kind.IsInteger() && v.Kind == clc.Double:
			return IntValue(st.Kind, int64(math.Float64bits(v.f))), nil
		}
	}
	return Convert(v, t)
}

// mathFn implements one math-family builtin over evaluated arguments.
type mathFn func(c *wiCtx, args []Value) (Value, error)

// arity wraps f with a check of the argument count.
func arity(n int, f func(args []Value) (Value, error)) mathFn {
	return func(c *wiCtx, args []Value) (Value, error) {
		if len(args) != n {
			if n == 1 {
				return Value{}, fmt.Errorf("want 1 argument")
			}
			return Value{}, fmt.Errorf("want %d arguments", n)
		}
		return f(args)
	}
}

// laneUnary lifts a float function lane-wise.
func laneUnary(f func(float64) float64) mathFn {
	return arity(1, func(args []Value) (Value, error) { return mapLanes1(args[0], f), nil })
}

func laneBinary(f func(a, b float64) float64) mathFn {
	return arity(2, func(args []Value) (Value, error) { return mapLanes2(args[0], args[1], f), nil })
}

func laneTernary(f func(a, b, x float64) float64) mathFn {
	return arity(3, func(args []Value) (Value, error) { return mapLanes3(args[0], args[1], args[2], f), nil })
}

// floatLane is a float result lane, rounded to single precision for float.
func floatLane(kind clc.ScalarKind, r float64) lane {
	if kind == clc.Float {
		r = float64(float32(r))
	}
	return lane{int64(clampToInt64(r)), r}
}

func mapLanes1(v Value, f func(float64) float64) Value {
	kind := floatKindFor(v.Kind)
	return makeValue(kind, max(v.Width, 1), func(l int) lane { return floatLane(kind, f(v.Lane(l).Float())) })
}

func mapLanes2(a, b Value, f func(x, y float64) float64) Value {
	kind, w := promote(a, b)
	kind = floatKindFor(kind)
	av, bv := widen(a, kind, w), widen(b, kind, w)
	return makeValue(kind, w, func(l int) lane { return floatLane(kind, f(av.lane(l).f, bv.lane(l).f)) })
}

func mapLanes3(a, b, x Value, f func(p, q, r float64) float64) Value {
	kind, w := promote(a, b)
	kind, w = promote(x, Value{Kind: kind, Width: w})
	kind = floatKindFor(kind)
	av, bv, xv := widen(a, kind, w), widen(b, kind, w), widen(x, kind, w)
	return makeValue(kind, w, func(l int) lane {
		return floatLane(kind, f(av.lane(l).f, bv.lane(l).f, xv.lane(l).f))
	})
}

// floatKindFor maps integer kinds to float for math functions that always
// produce floating-point results.
func floatKindFor(k clc.ScalarKind) clc.ScalarKind {
	if k.IsFloat() {
		return k
	}
	return clc.Float
}

// intLane is an integer result lane of kind.
func intLane(kind clc.ScalarKind, i int64) lane {
	i = truncInt(kind, i)
	return lane{i, float64(i)}
}

// boolLane is a relational result lane.
func boolLane(b bool) lane {
	i := boolToInt(b)
	return lane{i, float64(i)}
}

func wrapIntBinary(f func(a, b int64) int64) mathFn {
	return arity(2, func(args []Value) (Value, error) {
		kind, w := promote(args[0], args[1])
		av, bv := widen(args[0], kind, w), widen(args[1], kind, w)
		return makeValue(kind, w, func(l int) lane { return intLane(kind, f(av.lane(l).i, bv.lane(l).i)) }), nil
	})
}

func wrapIntUnary(f func(a int64) int64) mathFn {
	return arity(1, func(args []Value) (Value, error) {
		v := args[0]
		return makeValue(v.Kind, max(v.Width, 1), func(l int) lane { return intLane(v.Kind, f(v.lane(l).i)) }), nil
	})
}

func boolLaneUnary(f func(float64) bool) mathFn {
	return arity(1, func(args []Value) (Value, error) {
		v := args[0]
		return makeValue(clc.Int, max(v.Width, 1), func(l int) lane { return boolLane(f(v.Lane(l).Float())) }), nil
	})
}

func cmp2(f func(a, b float64) bool) mathFn {
	return arity(2, func(args []Value) (Value, error) {
		kind, w := promote(args[0], args[1])
		av, bv := widen(args[0], kind, w), widen(args[1], kind, w)
		return makeValue(clc.Int, w, func(l int) lane { return boolLane(f(av.Lane(l).Float(), bv.Lane(l).Float())) }), nil
	})
}

// minMax is OpenCL min/max over promoted operands, integer-aware.
func minMax(isMax bool, a, b Value) Value {
	kind, w := promote(a, b)
	av, bv := widen(a, kind, w), widen(b, kind, w)
	return makeValue(kind, w, func(l int) lane {
		x, y := av.lane(l), bv.lane(l)
		var takeB bool
		if kind.IsFloat() {
			takeB = y.f > x.f == isMax && y.f != x.f
		} else if kind.IsUnsigned() {
			takeB = (uint64(y.i) > uint64(x.i)) == isMax && y.i != x.i
		} else {
			takeB = (y.i > x.i) == isMax && y.i != x.i
		}
		if takeB {
			return y
		}
		return x
	})
}

// ptrOutBinary lifts f, whose second result goes through the pointer
// argument, lane-wise.
func ptrOutBinary(f func(x float64) (ret, out float64)) mathFn {
	return func(c *wiCtx, args []Value) (Value, error) {
		if len(args) != 2 || !args[1].IsPointer() {
			return Value{}, fmt.Errorf("want (value, pointer)")
		}
		v, p := args[0], args[1].Ptr
		w, kind := max(v.Width, 1), floatKindFor(v.Kind)
		ls := make([]lane, w)
		for l := range ls {
			r, o := f(v.Lane(l).Float())
			ls[l] = lane{int64(clampToInt64(r)), r}
			co := ConvertScalar(FloatValue(kind, o), p.Buf.Kind)
			if err := p.Buf.storeScalar(p.Off+int64(l), co.i, co.f); err != nil {
				return Value{}, err
			}
		}
		c.countMem(p.Buf.Space, w, true)
		return vector(kind, ls), nil
	}
}

func signOf(x float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

var mathBuiltins map[string]mathFn

// mathUnary, mathBinary and mathTernary are the builtins that apply a float
// function lane by lane; the typed compilation calls them on scalars.
var (
	mathUnary = map[string]func(float64) float64{
		"sqrt":    math.Sqrt,
		"rsqrt":   func(x float64) float64 { return 1 / math.Sqrt(x) },
		"cbrt":    math.Cbrt,
		"sin":     math.Sin,
		"cos":     math.Cos,
		"tan":     math.Tan,
		"asin":    math.Asin,
		"acos":    math.Acos,
		"atan":    math.Atan,
		"sinh":    math.Sinh,
		"cosh":    math.Cosh,
		"tanh":    math.Tanh,
		"asinh":   math.Asinh,
		"acosh":   math.Acosh,
		"atanh":   math.Atanh,
		"exp":     math.Exp,
		"exp2":    math.Exp2,
		"exp10":   func(x float64) float64 { return math.Pow(10, x) },
		"expm1":   math.Expm1,
		"log":     math.Log,
		"log2":    math.Log2,
		"log10":   math.Log10,
		"log1p":   math.Log1p,
		"fabs":    math.Abs,
		"floor":   math.Floor,
		"ceil":    math.Ceil,
		"round":   math.Round,
		"trunc":   math.Trunc,
		"rint":    math.RoundToEven,
		"erf":     math.Erf,
		"erfc":    math.Erfc,
		"tgamma":  math.Gamma,
		"lgamma":  func(x float64) float64 { l, _ := math.Lgamma(x); return l },
		"sign":    signOf,
		"degrees": func(x float64) float64 { return x * 180 / math.Pi },
		"radians": func(x float64) float64 { return x * math.Pi / 180 },
		"sinpi":   func(x float64) float64 { return math.Sin(math.Pi * x) },
		"cospi":   func(x float64) float64 { return math.Cos(math.Pi * x) },
		"tanpi":   func(x float64) float64 { return math.Tan(math.Pi * x) },
		"nan":     func(float64) float64 { return math.NaN() },

		"native_recip": func(x float64) float64 { return 1 / x },
	}
	mathBinary = map[string]func(a, b float64) float64{
		"atan2":     math.Atan2,
		"pow":       math.Pow,
		"powr":      math.Pow,
		"fmod":      math.Mod,
		"remainder": math.Remainder,
		"fdim":      math.Dim,
		"copysign":  math.Copysign,
		"hypot":     math.Hypot,
		"nextafter": math.Nextafter,
		"maxmag": func(a, b float64) float64 {
			if math.Abs(a) >= math.Abs(b) {
				return a
			}
			return b
		},
		"minmag": func(a, b float64) float64 {
			if math.Abs(a) <= math.Abs(b) {
				return a
			}
			return b
		},
		"step": func(edge, x float64) float64 {
			if x < edge {
				return 0
			}
			return 1
		},
		"ldexp": func(x, e float64) float64 { return math.Ldexp(x, int(e)) },
		"pown":  math.Pow,
		"rootn": func(x, n float64) float64 { return math.Pow(x, 1/n) },
		"fmin":  math.Min,
		"fmax":  math.Max,

		"native_divide": func(a, b float64) float64 { return a / b },
		"native_powr":   math.Pow,
	}
	mathTernary = map[string]func(a, b, x float64) float64{
		"mad": func(a, b, cc float64) float64 { return a*b + cc },
		"fma": math.FMA,
		"mix": func(a, b, t float64) float64 { return a + (b-a)*t },
		"smoothstep": func(e0, e1, x float64) float64 {
			t := (x - e0) / (e1 - e0)
			if t < 0 {
				t = 0
			}
			if t > 1 {
				t = 1
			}
			return t * t * (3 - 2*t)
		},
	}
)

func init() {
	// native_* and half_* alias the precise functions.
	for _, base := range []string{"sqrt", "rsqrt", "sin", "cos", "tan", "exp",
		"exp2", "log", "log2", "log10"} {
		mathUnary["native_"+base] = mathUnary[base]
		mathUnary["half_"+base] = mathUnary[base]
	}
	mathUnary["half_recip"] = mathUnary["native_recip"]
	mathBinary["half_divide"] = mathBinary["native_divide"]
	mathBinary["half_powr"] = mathBinary["native_powr"]

	mathBuiltins = map[string]mathFn{}
	for name, f := range mathUnary {
		mathBuiltins[name] = laneUnary(f)
	}
	for name, f := range mathBinary {
		mathBuiltins[name] = laneBinary(f)
	}
	for name, f := range mathTernary {
		mathBuiltins[name] = laneTernary(f)
	}

	// Integer-aware min/max/clamp/abs.
	mathBuiltins["min"] = arity(2, func(a []Value) (Value, error) { return minMax(false, a[0], a[1]), nil })
	mathBuiltins["max"] = arity(2, func(a []Value) (Value, error) { return minMax(true, a[0], a[1]), nil })
	mathBuiltins["clamp"] = arity(3, func(a []Value) (Value, error) {
		return minMax(false, minMax(true, a[0], a[1]), a[2]), nil
	})
	mathBuiltins["abs"] = arity(1, func(a []Value) (Value, error) {
		v := a[0]
		if v.Kind.IsFloat() {
			return mapLanes1(v, math.Abs), nil
		}
		return makeValue(v.Kind, max(v.Width, 1), func(l int) lane {
			x := v.lane(l).i
			if x < 0 {
				x = -x
			}
			return lane{x, float64(x)}
		}), nil
	})
	mathBuiltins["abs_diff"] = wrapIntBinary(func(a, b int64) int64 {
		if a > b {
			return a - b
		}
		return b - a
	})
	mathBuiltins["add_sat"] = wrapIntBinary(func(a, b int64) int64 { return a + b })
	mathBuiltins["sub_sat"] = wrapIntBinary(func(a, b int64) int64 { return a - b })
	mathBuiltins["hadd"] = wrapIntBinary(func(a, b int64) int64 { return (a + b) >> 1 })
	mathBuiltins["rhadd"] = wrapIntBinary(func(a, b int64) int64 { return (a + b + 1) >> 1 })
	mathBuiltins["mul24"] = wrapIntBinary(func(a, b int64) int64 { return (a & 0xFFFFFF) * (b & 0xFFFFFF) })
	mathBuiltins["mul_hi"] = wrapIntBinary(func(a, b int64) int64 {
		hi, _ := bits.Mul64(uint64(a), uint64(b))
		return int64(hi)
	})
	mathBuiltins["rotate"] = wrapIntBinary(func(a, b int64) int64 {
		return int64(bits.RotateLeft32(uint32(a), int(b)))
	})
	mathBuiltins["upsample"] = wrapIntBinary(func(a, b int64) int64 { return a<<16 | (b & 0xFFFF) })
	// mad24, mad_hi and mad_sat add their third argument to a product.
	madOf := func(mul mathFn) mathFn {
		return func(c *wiCtx, args []Value) (Value, error) {
			if len(args) != 3 {
				return Value{}, fmt.Errorf("want 3 arguments")
			}
			m, err := mul(c, args[:2])
			if err != nil {
				return Value{}, err
			}
			return binaryOp(clc.ADD, m, args[2])
		}
	}
	mathBuiltins["mad24"] = madOf(mathBuiltins["mul24"])
	mathBuiltins["mad_hi"] = madOf(mathBuiltins["mul_hi"])
	mathBuiltins["mad_sat"] = madOf(func(c *wiCtx, a []Value) (Value, error) { return binaryOp(clc.MUL, a[0], a[1]) })
	mathBuiltins["popcount"] = wrapIntUnary(func(a int64) int64 { return int64(bits.OnesCount64(uint64(a))) })
	mathBuiltins["clz"] = wrapIntUnary(func(a int64) int64 { return int64(bits.LeadingZeros32(uint32(a))) })
	mathBuiltins["ctz"] = wrapIntUnary(func(a int64) int64 { return int64(bits.TrailingZeros32(uint32(a))) })

	// Geometric.
	mathBuiltins["dot"] = arity(2, func(args []Value) (Value, error) {
		a, b := args[0], args[1]
		var s float64
		for l := 0; l < max(a.Width, 1); l++ {
			s += a.Lane(l).Float() * b.Lane(l%max(b.Width, 1)).Float()
		}
		return FloatValue(floatKindFor(a.Kind), s), nil
	})
	length := func(v Value) Value {
		var s float64
		for l := 0; l < max(v.Width, 1); l++ {
			f := v.Lane(l).Float()
			s += f * f
		}
		return FloatValue(floatKindFor(v.Kind), math.Sqrt(s))
	}
	mathBuiltins["length"] = arity(1, func(a []Value) (Value, error) { return length(a[0]), nil })
	mathBuiltins["fast_length"] = mathBuiltins["length"]
	mathBuiltins["distance"] = arity(2, func(a []Value) (Value, error) {
		d, err := binaryOp(clc.SUB, a[0], a[1])
		if err != nil {
			return Value{}, err
		}
		return length(d), nil
	})
	mathBuiltins["fast_distance"] = mathBuiltins["distance"]
	mathBuiltins["normalize"] = arity(1, func(a []Value) (Value, error) {
		l := length(a[0])
		if l.Float() == 0 {
			return a[0], nil
		}
		return binaryOp(clc.DIV, a[0], l)
	})
	mathBuiltins["fast_normalize"] = mathBuiltins["normalize"]
	mathBuiltins["cross"] = arity(2, func(args []Value) (Value, error) {
		a, b := args[0], args[1]
		wa, wb := max(a.Width, 1), max(b.Width, 1)
		ax, ay, az := a.Lane(0).Float(), a.Lane(1%wa).Float(), a.Lane(2%wa).Float()
		bx, by, bz := b.Lane(0).Float(), b.Lane(1%wb).Float(), b.Lane(2%wb).Float()
		// Only the float views of the three result lanes are set.
		ls := make([]lane, max(a.Width, 3))
		ls[0].f, ls[1].f, ls[2].f = ay*bz-az*by, az*bx-ax*bz, ax*by-ay*bx
		return vector(floatKindFor(a.Kind), ls), nil
	})

	// Relational.
	mathBuiltins["isnan"] = boolLaneUnary(math.IsNaN)
	mathBuiltins["isinf"] = boolLaneUnary(func(x float64) bool { return math.IsInf(x, 0) })
	mathBuiltins["isfinite"] = boolLaneUnary(func(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) })
	mathBuiltins["isnormal"] = boolLaneUnary(func(x float64) bool { return x != 0 && !math.IsInf(x, 0) && !math.IsNaN(x) })
	mathBuiltins["signbit"] = boolLaneUnary(math.Signbit)
	mathBuiltins["isequal"] = cmp2(func(a, b float64) bool { return a == b })
	mathBuiltins["isnotequal"] = cmp2(func(a, b float64) bool { return a != b })
	mathBuiltins["isgreater"] = cmp2(func(a, b float64) bool { return a > b })
	mathBuiltins["isgreaterequal"] = cmp2(func(a, b float64) bool { return a >= b })
	mathBuiltins["isless"] = cmp2(func(a, b float64) bool { return a < b })
	mathBuiltins["islessequal"] = cmp2(func(a, b float64) bool { return a <= b })
	mathBuiltins["islessgreater"] = cmp2(func(a, b float64) bool { return a != b })
	mathBuiltins["isordered"] = cmp2(func(a, b float64) bool { return !math.IsNaN(a) && !math.IsNaN(b) })
	mathBuiltins["isunordered"] = cmp2(func(a, b float64) bool { return math.IsNaN(a) || math.IsNaN(b) })
	// any and all report whether some or every lane is true.
	anyAll := func(want bool) mathFn {
		return func(c *wiCtx, args []Value) (Value, error) {
			if len(args) == 0 {
				return Value{}, fmt.Errorf("want 1 argument")
			}
			v := args[0]
			for l := 0; l < max(v.Width, 1); l++ {
				if v.Lane(l).Bool() == want {
					return IntValue(clc.Int, boolToInt(want)), nil
				}
			}
			return IntValue(clc.Int, boolToInt(!want)), nil
		}
	}
	mathBuiltins["any"] = anyAll(true)
	mathBuiltins["all"] = anyAll(false)
	mathBuiltins["select"] = arity(3, func(args []Value) (Value, error) {
		a, b, sel := args[0], args[1], args[2]
		kind, w := promote(a, b)
		av, bv, sv := widen(a, kind, w), widen(b, kind, w), widen(sel, sel.Kind, w)
		return makeValue(kind, w, func(l int) lane {
			if sv.Lane(l).Bool() {
				return bv.lane(l)
			}
			return av.lane(l)
		}), nil
	})
	mathBuiltins["bitselect"] = arity(3, func(args []Value) (Value, error) {
		kind, w := promote(args[0], args[1])
		av, bv, mv := widen(args[0], kind, w), widen(args[1], kind, w), widen(args[2], kind, w)
		return makeValue(kind, w, func(l int) lane {
			i := (av.lane(l).i &^ mv.lane(l).i) | (bv.lane(l).i & mv.lane(l).i)
			return lane{i, float64(i)}
		}), nil
	})
	mathBuiltins["shuffle"] = arity(2, func(args []Value) (Value, error) {
		src, mask := args[0], args[1]
		return makeValue(src.Kind, max(mask.Width, 1), func(l int) lane {
			return src.lane(max(int(mask.lane(l).i)%max(src.Width, 1), 0))
		}), nil
	})
	mathBuiltins["shuffle2"] = arity(3, func(args []Value) (Value, error) {
		a, b, mask := args[0], args[1], args[2]
		wa := max(a.Width, 1)
		return makeValue(a.Kind, max(mask.Width, 1), func(l int) lane {
			idx := max(int(mask.lane(l).i)%(wa*2), 0)
			if idx < wa {
				return a.lane(idx)
			}
			return b.lane(idx - wa)
		}), nil
	})

	// Pointer-out-parameter functions.
	mathBuiltins["fract"] = ptrOutBinary(func(x float64) (float64, float64) {
		fl := math.Floor(x)
		return x - fl, fl
	})
	mathBuiltins["modf"] = ptrOutBinary(func(x float64) (float64, float64) {
		ip, fp := math.Modf(x)
		return fp, ip
	})
	mathBuiltins["sincos"] = ptrOutBinary(math.Sincos)
	mathBuiltins["frexp"] = ptrOutBinary(func(x float64) (float64, float64) {
		fr, e := math.Frexp(x)
		return fr, float64(e)
	})
	mathBuiltins["remquo"] = func(c *wiCtx, args []Value) (Value, error) {
		if len(args) != 3 || !args[2].IsPointer() {
			return Value{}, fmt.Errorf("remquo(x, y, ptr)")
		}
		r := math.Remainder(args[0].Float(), args[1].Float())
		q := math.Round((args[0].Float() - r) / args[1].Float())
		p := args[2].Ptr
		if err := p.Buf.storeScalar(p.Off, int64(q), q); err != nil {
			return Value{}, err
		}
		return FloatValue(clc.Float, r), nil
	}
}
