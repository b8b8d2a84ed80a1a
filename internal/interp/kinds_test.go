package interp

import (
	"math"
	"testing"

	"clgen/internal/clc"
)

// edgeLanes are the operands TestLaneOpsMatchArith applies the table to
// for kind k, each holding only the view of its kind, as a static lane
// does.
func edgeLanes(k clc.ScalarKind) []lane {
	var out []lane
	if k.IsFloat() {
		for _, f := range []float64{
			0, math.Copysign(0, -1), 1, -1, 2, -3.5, 0.1, 1.0 / 3, // 0.1 and 1/3 are unrounded for half and float
			math.NaN(), math.Inf(1), math.Inf(-1),
			math.MaxFloat32, -math.MaxFloat32, 3.4028235677973366e38, // rounds to +Inf in float32
			math.SmallestNonzeroFloat32, 1e-40, math.MaxFloat64, -math.MaxFloat64,
			math.MaxInt64, math.MinInt64,
		} {
			// The value as it is and as a lane of kind k holds it.
			out = append(out, lane{f: f}, convertTo(lane{f: f}, clc.Double, k))
		}
		return out
	}
	bits := int64(k.Bits())
	for _, i := range []int64{
		0, 1, -1, 2, -3, 7, 100, -100,
		bits - 1, bits, 63, 64, // shift counts (and -1, 0 above)
		1<<(bits-1) - 1, -1 << (bits - 1), 1<<bits - 1, // the kind's max and min, signed and unsigned
		math.MaxInt64, math.MinInt64, math.MaxInt32 + 1, math.MinInt32 - 1,
	} {
		// The value as it is, as a lane abs can yield, and as a lane of kind
		// k holds it.
		out = append(out, lane{i: i}, convertTo(lane{i: i}, clc.Long, k))
	}
	return out
}

// sameView reports whether a and b agree in the view of kind k, floats bit
// for bit.
func sameView(k clc.ScalarKind, a, b lane) bool {
	if k.IsFloat() {
		return math.Float64bits(a.f) == math.Float64bits(b.f) || math.IsNaN(a.f) && math.IsNaN(b.f)
	}
	return a.i == b.i
}

// TestLaneOpsMatchArith holds the compile-time operator table to the Value
// path's operators, entry by entry: laneOp against arith for every
// operator arithKind admits on every static kind, relOp against
// compareLanes, and unaryLaneOp against unaryOp, on edge operands of the
// kind. Every result must also be a lane of its kind, which converting it
// to that kind leaves unchanged, because the typed body stores it so.
func TestLaneOpsMatchArith(t *testing.T) {
	binary := []clc.TokenKind{clc.ADD, clc.SUB, clc.MUL, clc.DIV, clc.REM, clc.AND, clc.OR, clc.XOR, clc.SHL, clc.SHR}
	relational := []clc.TokenKind{clc.EQ, clc.NEQ, clc.LT, clc.GT, clc.LEQ, clc.GEQ}
	entries := 0
	for k := clc.Bool; k <= clc.Double; k++ {
		if !staticKind(k) {
			t.Fatalf("%s is not a static kind", k)
		}
		operands := edgeLanes(k)
		for _, op := range binary {
			rk, ok := arithKind(op, k)
			if !ok {
				continue
			}
			entries++
			apply := laneOp(op, k)
			for _, x := range operands {
				for _, y := range operands {
					want, err := arith(op, k, x, y)
					if err != nil {
						t.Fatalf("arith(%s, %s): %v", op, k, err)
					}
					got := apply(x, y)
					if !sameView(rk, got, want) {
						t.Errorf("%s %+v %s %+v = %+v, arith gives %+v", k, x, op, y, got, want)
					}
					if !sameView(rk, convertTo(got, rk, rk), got) {
						t.Errorf("%s %+v %s %+v = %+v, not a lane of its kind", k, x, op, y, got)
					}
				}
			}
		}
		for _, op := range relational {
			entries++
			rel := relOp(op, k)
			for _, x := range operands {
				for _, y := range operands {
					if got, want := rel(x, y), compareLanes(op, k, x, y); got != want {
						t.Errorf("%s %+v %s %+v = %v, compareLanes gives %v", k, x, op, y, got, want)
					}
				}
			}
		}
		for _, op := range []clc.TokenKind{clc.ADD, clc.SUB, clc.BNOT} {
			if op == clc.BNOT && k.IsFloat() {
				continue
			}
			entries++
			apply := unaryLaneOp(op, k)
			for _, x := range operands {
				want, err := unaryOp(nil, op, box(k, x))
				if err != nil {
					t.Fatalf("unaryOp(%s, %s): %v", op, k, err)
				}
				if got := apply(x); !sameView(k, got, lane{want.i, want.f}) {
					t.Errorf("%s %s%+v = %+v, unaryOp gives %v", k, op, x, got, want)
				}
			}
		}
	}
	if relOp(clc.ADD, clc.Int) != nil || relOp(clc.LAND, clc.Float) != nil {
		t.Error("relOp admits an operator that is not relational")
	}
	t.Logf("%d table entries checked", entries)
}
