package interp

import (
	"math"
	"testing"
	"testing/quick"

	"clgen/internal/clc"
)

func TestIntValueTruncation(t *testing.T) {
	cases := []struct {
		kind clc.ScalarKind
		in   int64
		want int64
	}{
		{clc.Char, 200, -56},
		{clc.UChar, 300, 44},
		{clc.Short, 1 << 20, 0},
		{clc.UShort, 70000, 4464},
		{clc.Int, 1 << 40, 0},
		{clc.UInt, -1, 4294967295},
		{clc.Long, -5, -5},
		{clc.Bool, 17, 1},
		{clc.Bool, 0, 0},
	}
	for _, c := range cases {
		v := IntValue(c.kind, c.in)
		if v.Int() != c.want {
			t.Errorf("IntValue(%v, %d) = %d, want %d", c.kind, c.in, v.Int(), c.want)
		}
	}
}

func TestFloatValueSinglePrecision(t *testing.T) {
	v := FloatValue(clc.Float, 1.0/3.0)
	if v.Float() != float64(float32(1.0/3.0)) {
		t.Error("float kind not rounded to single precision")
	}
	d := FloatValue(clc.Double, 1.0/3.0)
	if d.Float() != 1.0/3.0 {
		t.Error("double kind rounded")
	}
}

func TestSplatAndLanes(t *testing.T) {
	s := FloatValue(clc.Float, 2.5)
	v := Splat(s, clc.Float, 4)
	if v.Width != 4 {
		t.Fatalf("width %d", v.Width)
	}
	for l := 0; l < 4; l++ {
		if v.Lane(l).Float() != 2.5 {
			t.Errorf("lane %d = %v", l, v.Lane(l))
		}
	}
}

func TestConvertScalarToVectorSplat(t *testing.T) {
	// OpenCL widening rule: scalar converts to vector by splat.
	v, err := Convert(IntValue(clc.Int, 7), &clc.VectorType{Elem: clc.Float, Len: 8})
	if err != nil {
		t.Fatal(err)
	}
	if v.Width != 8 || v.Lane(7).Float() != 7 {
		t.Errorf("splat conversion: %v", v)
	}
	// Width mismatch is an error.
	if _, err := Convert(v, &clc.VectorType{Elem: clc.Float, Len: 4}); err == nil {
		t.Error("8->4 vector conversion accepted")
	}
}

func TestPointerCastReinterpretsElem(t *testing.T) {
	buf := NewBuffer(clc.Float, 16, clc.Global)
	p := PtrValue(&Pointer{Buf: buf, Elem: clc.TypeFloat})
	v4 := &clc.VectorType{Elem: clc.Float, Len: 4}
	cast, err := Convert(p, &clc.PointerType{Elem: v4, Space: clc.Global})
	if err != nil {
		t.Fatal(err)
	}
	if !clc.SameType(cast.Ptr.Elem, v4) {
		t.Errorf("pointee = %v", cast.Ptr.Elem)
	}
}

func TestBufferLoadStoreRoundTrip(t *testing.T) {
	err := quick.Check(func(vals []float64, idx uint8) bool {
		if len(vals) == 0 {
			return true
		}
		b := NewBuffer(clc.Float, len(vals), clc.Global)
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			if err := b.storeScalar(int64(i), int64(v), v); err != nil {
				return false
			}
		}
		i := int64(int(idx) % len(vals))
		_, f, err := b.loadScalar(i)
		if err != nil {
			return false
		}
		want := vals[i]
		if math.IsNaN(want) || math.IsInf(want, 0) {
			want = 1
		}
		return f == want
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestBufferOOB(t *testing.T) {
	b := NewBuffer(clc.Int, 4, clc.Global)
	if _, _, err := b.loadScalar(4); err == nil {
		t.Error("read past end accepted")
	}
	if _, _, err := b.loadScalar(-1); err == nil {
		t.Error("negative read accepted")
	}
	if err := b.storeScalar(100, 0, 0); err == nil {
		t.Error("write past end accepted")
	}
}

func TestBinaryOpPromotion(t *testing.T) {
	// int + float -> float
	v, err := binaryOp(clc.ADD, IntValue(clc.Int, 3), FloatValue(clc.Float, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Kind.IsFloat() || v.Float() != 3.5 {
		t.Errorf("3 + 0.5f = %v", v)
	}
	// scalar op vector -> vector
	vec := Splat(FloatValue(clc.Float, 2), clc.Float, 4)
	v, err = binaryOp(clc.MUL, FloatValue(clc.Float, 3), vec)
	if err != nil {
		t.Fatal(err)
	}
	if v.Width != 4 || v.Lane(2).Float() != 6 {
		t.Errorf("3 * (2,2,2,2) = %v", v)
	}
}

func TestUnsignedSemantics(t *testing.T) {
	// uint division and comparison use unsigned interpretation.
	a := IntValue(clc.UInt, -1) // 4294967295
	b := IntValue(clc.UInt, 2)
	div, err := binaryOp(clc.DIV, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if div.Int() != 2147483647 {
		t.Errorf("uint div = %d", div.Int())
	}
	cmp, err := binaryOp(clc.GT, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Bool() {
		t.Error("4294967295u > 2u should hold")
	}
	// Signed: -1 > 2 is false.
	scmp, _ := binaryOp(clc.GT, IntValue(clc.Int, -1), IntValue(clc.Int, 2))
	if scmp.Bool() {
		t.Error("-1 > 2 should not hold")
	}
}

func TestShiftMasking(t *testing.T) {
	v, err := binaryOp(clc.SHL, IntValue(clc.Int, 1), IntValue(clc.Int, 65))
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 2 { // 65 & 63 == 1
		t.Errorf("1 << 65 = %d, want 2 (shift count masked)", v.Int())
	}
}

func TestPointerArithmetic(t *testing.T) {
	buf := NewBuffer(clc.Float, 8, clc.Global)
	p := PtrValue(&Pointer{Buf: buf, Elem: clc.TypeFloat})
	q, err := binaryOp(clc.ADD, p, IntValue(clc.Int, 3))
	if err != nil {
		t.Fatal(err)
	}
	if q.Ptr.Off != 3 {
		t.Errorf("p+3 off = %d", q.Ptr.Off)
	}
	diff, err := binaryOp(clc.SUB, q, p)
	if err != nil {
		t.Fatal(err)
	}
	if diff.Int() != 3 {
		t.Errorf("q - p = %d", diff.Int())
	}
	// Vector-element pointers scale by lane count.
	v4 := &clc.VectorType{Elem: clc.Float, Len: 4}
	pv := PtrValue(&Pointer{Buf: buf, Elem: v4})
	qv, err := binaryOp(clc.ADD, pv, IntValue(clc.Int, 1))
	if err != nil {
		t.Fatal(err)
	}
	if qv.Ptr.Off != 4 {
		t.Errorf("float4* + 1 advanced %d slots, want 4", qv.Ptr.Off)
	}
}

func TestDivByZeroDeterministic(t *testing.T) {
	err := quick.Check(func(a int32) bool {
		v, err := binaryOp(clc.DIV, IntValue(clc.Int, int64(a)), IntValue(clc.Int, 0))
		if err != nil || v.Int() != 0 {
			return false
		}
		r, err := binaryOp(clc.REM, IntValue(clc.Int, int64(a)), IntValue(clc.Int, 0))
		return err == nil && r.Int() == 0
	}, nil)
	if err != nil {
		t.Error(err)
	}
	// Float division by zero follows IEEE.
	v, err := binaryOp(clc.DIV, FloatValue(clc.Float, 1), FloatValue(clc.Float, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(v.Float(), 1) {
		t.Errorf("1.0/0.0 = %v", v.Float())
	}
}

func TestUnaryOps(t *testing.T) {
	if v, _ := unaryOp(clc.SUB, FloatValue(clc.Float, 2.5)); v.Float() != -2.5 {
		t.Errorf("-2.5 = %v", v)
	}
	if v, _ := unaryOp(clc.NOT, IntValue(clc.Int, 0)); !v.Bool() {
		t.Error("!0 should be true")
	}
	if v, _ := unaryOp(clc.BNOT, IntValue(clc.Int, 0)); v.Int() != -1 {
		t.Errorf("~0 = %d", v.Int())
	}
	if _, err := unaryOp(clc.BNOT, FloatValue(clc.Float, 1)); err == nil {
		t.Error("~float accepted")
	}
}

func TestValueString(t *testing.T) {
	if s := IntValue(clc.Int, 42).String(); s != "42" {
		t.Errorf("String() = %q", s)
	}
	v := VecValue(clc.Float, []Value{FloatValue(clc.Float, 1), FloatValue(clc.Float, 2)})
	if s := v.String(); s != "float2(1, 2)" {
		t.Errorf("String() = %q", s)
	}
}
