package interp

import (
	"fmt"
	"math"

	"clgen/internal/clc"
)

// binaryOp applies a binary operator lane-wise, following OpenCL's usual
// arithmetic conversions: operands are promoted to a common type, scalars
// splat across vector widths, and relational results are integer (0 / -1
// per lane for vectors, 0 / 1 for scalars — we use 1; only truthiness is
// observable in the subset). A vector result's lanes come from ar.
func binaryOp(ar *arena, op clc.TokenKind, a, b Value) (Value, error) {
	// Pointer arithmetic.
	if a.Ptr != nil || b.Ptr != nil {
		return pointerOp(op, a, b)
	}
	kind, width := promote(a, b)
	if width == 1 {
		return scalarOp(op, kind, widenLane(a, kind), widenLane(b, kind))
	}
	av, bv := widen(ar, a, kind, width), widen(ar, b, kind, width)
	switch op {
	case clc.EQ, clc.NEQ, clc.LT, clc.GT, clc.LEQ, clc.GEQ:
		return makeValue(ar, clc.Int, width, func(l int) lane {
			return boolLane(compareLanes(op, kind, av.lane(l), bv.lane(l)))
		}), nil
	case clc.LAND:
		return IntValue(clc.Int, boolToInt(av.Bool() && bv.Bool())), nil
	case clc.LOR:
		return IntValue(clc.Int, boolToInt(av.Bool() || bv.Bool())), nil
	case clc.COMMA:
		return bv, nil
	}
	ls := ar.alloc(width)
	for l := range ls {
		r, err := arith(op, kind, av.lane(l), bv.lane(l))
		if err != nil {
			return Value{}, err
		}
		ls[l] = r
	}
	return vector(kind, ls), nil
}

// scalarOp is binaryOp on two scalars already promoted to kind.
func scalarOp(op clc.TokenKind, kind clc.ScalarKind, x, y lane) (Value, error) {
	switch op {
	case clc.EQ, clc.NEQ, clc.LT, clc.GT, clc.LEQ, clc.GEQ:
		r := boolLane(compareLanes(op, kind, x, y))
		return scalar(clc.Int, r.i, r.f), nil
	case clc.LAND:
		return IntValue(clc.Int, boolToInt(scalar(kind, x.i, x.f).Bool() && scalar(kind, y.i, y.f).Bool())), nil
	case clc.LOR:
		return IntValue(clc.Int, boolToInt(scalar(kind, x.i, x.f).Bool() || scalar(kind, y.i, y.f).Bool())), nil
	case clc.COMMA:
		return scalar(kind, y.i, y.f), nil
	}
	r, err := arith(op, kind, x, y)
	if err != nil {
		return Value{}, err
	}
	return scalar(kind, r.i, r.f), nil
}

// compareLanes applies a relational operator to one lane pair of kind.
func compareLanes(op clc.TokenKind, kind clc.ScalarKind, x, y lane) bool {
	if kind.IsFloat() {
		return compare(op, x.f, y.f)
	}
	if kind.IsUnsigned() {
		return compare(op, uint64(x.i), uint64(y.i))
	}
	return compare(op, x.i, y.i)
}

// arith applies an arithmetic or bitwise operator to one lane pair of the
// promoted kind.
func arith(op clc.TokenKind, kind clc.ScalarKind, x, y lane) (lane, error) {
	if kind.IsFloat() {
		f, err := floatBinary(op, x.f, y.f)
		if err != nil {
			return lane{}, err
		}
		if kind == clc.Float || kind == clc.Half {
			f = float64(float32(f))
		}
		return lane{int64(clampToInt64(f)), f}, nil
	}
	i, err := intBinary(op, x.i, y.i, kind)
	if err != nil {
		return lane{}, err
	}
	i = truncInt(kind, i)
	return lane{i, float64(i)}, nil
}

func promote(a, b Value) (clc.ScalarKind, int) {
	kind := a.Kind
	if rankOf(b.Kind) > rankOf(a.Kind) {
		kind = b.Kind
	}
	width := a.Width
	if b.Width > width {
		width = b.Width
	}
	if width < 1 {
		width = 1
	}
	return kind, width
}

// rankOf mirrors clc's promotion rank for runtime kinds, which clc
// declares in rank order after void.
func rankOf(k clc.ScalarKind) int {
	if k > clc.Double {
		return -1
	}
	return int(k) - 1
}

// widen converts v to kind and width, splatting a scalar; new lanes come
// from ar.
func widen(ar *arena, v Value, kind clc.ScalarKind, width int) Value {
	if v.Width == width && v.Kind == kind {
		return v
	}
	if v.Width <= 1 {
		return splat(ar, v, kind, width)
	}
	return makeValue(ar, kind, width, func(l int) lane { return convertLane(v.lane(l), v, kind) })
}

// widenLane is widen to a scalar of kind, as a lane.
func widenLane(v Value, kind clc.ScalarKind) lane {
	if v.Width == 1 && v.Kind == kind {
		return lane{v.i, v.f}
	}
	return convertLane(v.lane(0), v, kind)
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// compare applies a relational operator.
func compare[T int64 | uint64 | float64](op clc.TokenKind, a, b T) bool {
	switch op {
	case clc.EQ:
		return a == b
	case clc.NEQ:
		return a != b
	case clc.LT:
		return a < b
	case clc.GT:
		return a > b
	case clc.LEQ:
		return a <= b
	case clc.GEQ:
		return a >= b
	}
	return false
}

func floatBinary(op clc.TokenKind, a, b float64) (float64, error) {
	switch op {
	case clc.ADD:
		return a + b, nil
	case clc.SUB:
		return a - b, nil
	case clc.MUL:
		return a * b, nil
	case clc.DIV:
		return a / b, nil // IEEE: inf/nan allowed
	case clc.REM:
		return math.Mod(a, b), nil
	case clc.AND, clc.OR, clc.XOR, clc.SHL, clc.SHR:
		return 0, fmt.Errorf("bitwise operator %s on float operands", op)
	}
	return 0, fmt.Errorf("unsupported float operator %s", op)
}

func intBinary(op clc.TokenKind, a, b int64, kind clc.ScalarKind) (int64, error) {
	unsigned := kind.IsUnsigned()
	switch op {
	case clc.ADD:
		return a + b, nil
	case clc.SUB:
		return a - b, nil
	case clc.MUL:
		return a * b, nil
	case clc.DIV:
		if b == 0 {
			// OpenCL integer division by zero is undefined; devices do not
			// trap. Saturate to 0 so execution proceeds deterministically.
			return 0, nil
		}
		if unsigned {
			return int64(uint64(a) / uint64(b)), nil
		}
		if a == math.MinInt64 && b == -1 {
			return a, nil
		}
		return a / b, nil
	case clc.REM:
		if b == 0 {
			return 0, nil
		}
		if unsigned {
			return int64(uint64(a) % uint64(b)), nil
		}
		if a == math.MinInt64 && b == -1 {
			return 0, nil
		}
		return a % b, nil
	case clc.AND:
		return a & b, nil
	case clc.OR:
		return a | b, nil
	case clc.XOR:
		return a ^ b, nil
	case clc.SHL:
		return a << (uint64(b) & 63), nil
	case clc.SHR:
		if unsigned {
			return int64(uint64(a) >> (uint64(b) & 63)), nil
		}
		return a >> (uint64(b) & 63), nil
	}
	return 0, fmt.Errorf("unsupported integer operator %s", op)
}

func pointerOp(op clc.TokenKind, a, b Value) (Value, error) {
	switch {
	case a.Ptr != nil && b.Ptr == nil:
		n := b.Int() * scalarSlots(a.Ptr.Elem)
		switch op {
		case clc.ADD:
			return PtrValue(&Pointer{Buf: a.Ptr.Buf, Off: a.Ptr.Off + n, Elem: a.Ptr.Elem}), nil
		case clc.SUB:
			return PtrValue(&Pointer{Buf: a.Ptr.Buf, Off: a.Ptr.Off - n, Elem: a.Ptr.Elem}), nil
		case clc.EQ, clc.NEQ:
			// Comparison against NULL (integer zero).
			isNull := !b.Bool()
			eq := false
			if isNull {
				eq = false // non-nil pointer != NULL
			}
			if op == clc.EQ {
				return IntValue(clc.Int, boolToInt(eq)), nil
			}
			return IntValue(clc.Int, boolToInt(!eq)), nil
		}
	case a.Ptr == nil && b.Ptr != nil && op == clc.ADD:
		n := a.Int() * scalarSlots(b.Ptr.Elem)
		return PtrValue(&Pointer{Buf: b.Ptr.Buf, Off: b.Ptr.Off + n, Elem: b.Ptr.Elem}), nil
	case a.Ptr != nil && b.Ptr != nil:
		switch op {
		case clc.SUB:
			d := (a.Ptr.Off - b.Ptr.Off) / scalarSlots(a.Ptr.Elem)
			return IntValue(clc.Long, d), nil
		case clc.EQ:
			return IntValue(clc.Int, boolToInt(a.Ptr.Buf == b.Ptr.Buf && a.Ptr.Off == b.Ptr.Off)), nil
		case clc.NEQ:
			return IntValue(clc.Int, boolToInt(!(a.Ptr.Buf == b.Ptr.Buf && a.Ptr.Off == b.Ptr.Off))), nil
		case clc.LT, clc.GT, clc.LEQ, clc.GEQ:
			return IntValue(clc.Int, boolToInt(compare(op, a.Ptr.Off, b.Ptr.Off))), nil
		}
	}
	return Value{}, fmt.Errorf("invalid pointer operation %s", op)
}

// unaryOp applies a prefix unary operator, a vector result's lanes from ar.
func unaryOp(ar *arena, op clc.TokenKind, v Value) (Value, error) {
	switch op {
	case clc.ADD:
		return v, nil
	case clc.SUB:
		return makeValue(ar, v.Kind, max(v.Width, 1), func(l int) lane {
			x := v.lane(l)
			if v.Kind.IsFloat() {
				return lane{int64(clampToInt64(-x.f)), -x.f}
			}
			i := truncInt(v.Kind, -x.i)
			return lane{i, float64(i)}
		}), nil
	case clc.NOT:
		return IntValue(clc.Int, boolToInt(!v.Bool())), nil
	case clc.BNOT:
		if v.Kind.IsFloat() {
			return Value{}, fmt.Errorf("operator ~ on float operand")
		}
		return makeValue(ar, v.Kind, max(v.Width, 1), func(l int) lane {
			i := truncInt(v.Kind, ^v.lane(l).i)
			return lane{i, float64(i)}
		}), nil
	}
	return Value{}, fmt.Errorf("unsupported unary operator %s", op)
}
