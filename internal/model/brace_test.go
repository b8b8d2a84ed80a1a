package model

import (
	"math/rand"
	"strings"
	"testing"

	"clgen/internal/pool"
)

// feedAll runs src through a fresh tracker and returns the position just
// after the character that closed the outermost brace, or -1.
func feedAll(src string) int {
	var t braceTracker
	for i := 0; i < len(src); i++ {
		if t.feed(src[i]) {
			return i + 1
		}
	}
	return -1
}

func TestBraceTrackerPlainCode(t *testing.T) {
	src := `__kernel void A(__global float* a) { a[0] = 1.0f; }`
	if got := feedAll(src); got != len(src) {
		t.Errorf("closed at %d, want %d", got, len(src))
	}
	nested := `void f() { if (1) { g(); } }`
	if got := feedAll(nested); got != len(nested) {
		t.Errorf("nested: closed at %d, want %d", got, len(nested))
	}
}

func TestBraceTrackerIgnoresLiterals(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"string open brace", `void f() { printf("{"); }`},
		{"string close brace", `void f() { printf("}"); }`},
		{"char close brace", `void f() { char c = '}'; }`},
		{"char open brace", `void f() { char c = '{'; }`},
		{"escaped quote then brace", `void f() { printf("\"}"); }`},
		{"escaped backslash end of string", `void f() { printf("\\"); g('}'); }`},
		{"line comment", "void f() { // closes } here\n}"},
		{"block comment", `void f() { /* } */ }`},
		{"block comment with stars", `void f() { /* ** } ** */ }`},
		{"comment containing quote", "void f() { // don't stop\n}"},
		{"block comment apostrophe", `void f() { /* it's a } */ }`},
	}
	for _, c := range cases {
		if got := feedAll(c.src); got != len(c.src) {
			t.Errorf("%s: closed at %d, want %d (src %q)", c.name, got, len(c.src), c.src)
		}
	}
}

func TestBraceTrackerTwoCharTokenEdges(t *testing.T) {
	// `/*/` does not self-close: the brace after it is inside the comment.
	if got := feedAll(`void f() { /*/ } */ }`); got != len(`void f() { /*/ } */ }`) {
		t.Errorf("/*/ self-closed: %d", got)
	}
	// The '/' closing a block comment is not the first slash of a `//`.
	src := "void f() { /**//x/y;\n}"
	if got := feedAll(src); got != len(src) {
		t.Errorf("*// fused into line comment: closed at %d, want %d", got, len(src))
	}
	// Division does not open comments.
	div := `void f() { a = b / c; }`
	if got := feedAll(div); got != len(div) {
		t.Errorf("division: closed at %d, want %d", got, len(div))
	}
}

func TestBraceTrackerUnbalanced(t *testing.T) {
	if feedAll(`void f() {`) != -1 {
		t.Error("unclosed brace reported closed")
	}
	// A '}' before any '{' goes negative and never reports closure —
	// matching Algorithm 1's original depth bookkeeping.
	if feedAll(`} {`) != -1 {
		t.Error("negative-depth close reported")
	}
}

// TestSampleKernelLiteralRegression is the end-to-end regression for the
// Algorithm 1 bugfix: an n-gram of order ≥ the corpus length reproduces
// its single training kernel deterministically, so sampling must ride
// through the `}` hidden inside the comment and the string literal and
// stop only at the real closing brace. The old byte-counting tracker
// stopped at the commented `}`.
func TestSampleKernelLiteralRegression(t *testing.T) {
	kernels := []string{
		"__kernel void A(__global float* a) { /* } */ a[get_global_id(0)] += 2.0f; }\n",
		"__kernel void A(__global float* a) { // } \n  a[get_global_id(0)] *= 3.0f; }\n",
	}
	for _, kernel := range kernels {
		m, err := TrainNGram(kernel, 40)
		if err != nil {
			t.Fatal(err)
		}
		got := m.SampleKernel(rand.New(rand.NewSource(pool.DeriveSeed(1, 0))), SampleOpts{Seed: "__kernel void A(", MaxLen: 200})
		if !strings.HasSuffix(strings.TrimSpace(got), "}") {
			t.Errorf("sample truncated: %q", got)
		}
		if strings.TrimSpace(got) != strings.TrimSpace(kernel) {
			t.Errorf("sample stopped at the wrong depth:\n got %q\nwant %q", got, kernel)
		}
	}
}
