package rewriter

import (
	"slices"
	"strings"
	"testing"

	"clgen/internal/clc"
)

func TestSeqNames(t *testing.T) {
	cases := []struct {
		i    int
		want string
	}{
		{0, "a"}, {1, "b"}, {25, "z"}, {26, "aa"}, {27, "ab"}, {51, "az"}, {52, "ba"},
		{26*26 + 25, "zz"}, {26*26 + 26, "aaa"},
	}
	for _, c := range cases {
		if got := seqName(c.i, 'a'); got != c.want {
			t.Errorf("seqName(%d) = %q, want %q", c.i, got, c.want)
		}
	}
	if FuncName(0) != "A" || FuncName(26) != "AA" {
		t.Errorf("FuncName sequence wrong: %q %q", FuncName(0), FuncName(26))
	}
}

// TestVarNamesNeverCollideWithKeywords walks the first 65,536 variable
// names the renamer hands out: they are the a, b, ... sequence with every
// keyword, built-in type and built-in function left out, and nothing else.
func TestVarNamesNeverCollideWithKeywords(t *testing.T) {
	reserved := func(name string) bool {
		return clc.IsKeyword(name) || clc.LookupBuiltinType(name) != nil || clc.LookupBuiltin(name) != nil
	}
	r, s := &renamer{}, newScope(nil)
	var skipped []string
	seq := 0
	for i := 0; i < 1<<16; i++ {
		for ; reserved(seqName(seq, 'a')); seq++ {
			skipped = append(skipped, seqName(seq, 'a'))
		}
		if got, want := r.fresh(s, "v"), seqName(seq, 'a'); got != want {
			t.Fatalf("variable %d renamed to %q, want %q", i, got, want)
		}
		seq++
	}
	for _, name := range []string{"do", "if", "for", "int", "abs", "min"} {
		if !slices.Contains(skipped, name) {
			t.Errorf("%q was not skipped; skipped %v", name, skipped)
		}
	}
}

func TestNormalizeFigure5(t *testing.T) {
	// The exact example from Figure 5 of the paper.
	src := `#define DTYPE float
#define ALPHA(a) 3.5f * a
inline DTYPE ax(DTYPE x) { return ALPHA(x); }

__kernel void saxpy(/* SAXPY kernel */
    __global DTYPE* input1,
    __global DTYPE* input2,
    const int nelem)
{
  unsigned int idx = get_global_id(0);
  // = ax + y
  if (idx < nelem) {
    input2[idx] += ax(input1[idx]); }}
`
	got, err := Normalize(src, nil)
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	// Matches Figure 5b of the paper, except that the canonical style also
	// normalizes "unsigned int" to its OpenCL spelling "uint".
	want := `inline float A(float a) {
  return 3.5f * a;
}

__kernel void B(__global float* b, __global float* c, const int d) {
  uint e = get_global_id(0);
  if (e < d) {
    c[e] += A(b[e]);
  }
}
`
	if got != want {
		t.Errorf("Normalize output:\n%s\nwant:\n%s", got, want)
	}
}

func TestRenamePreservesBuiltins(t *testing.T) {
	src := `__kernel void my_kernel(__global float* data) {
  int tid = get_global_id(0);
  data[tid] = sqrt(data[tid]) + M_PI_F;
  barrier(CLK_LOCAL_MEM_FENCE);
}`
	got, err := Normalize(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, keep := range []string{"get_global_id", "sqrt", "barrier", "CLK_LOCAL_MEM_FENCE", "M_PI_F"} {
		if !strings.Contains(got, keep) {
			t.Errorf("builtin %q was renamed:\n%s", keep, got)
		}
	}
	for _, gone := range []string{"my_kernel", "data", "tid"} {
		if strings.Contains(got, gone) {
			t.Errorf("identifier %q not renamed:\n%s", gone, got)
		}
	}
}

func TestRenameShadowing(t *testing.T) {
	// Distinct symbols with the same source name must get distinct names.
	src := `void F(int x) {
  int y = x;
  {
    int x = 2;
    y += x;
  }
  y += x;
}`
	got, err := Normalize(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	// After renaming: param x->a, y->b, inner x->c.
	if !strings.Contains(got, "int c = 2;") {
		t.Errorf("inner shadow not uniquely renamed:\n%s", got)
	}
	if !strings.Contains(got, "b += c;") || !strings.Contains(got, "b += a;") {
		t.Errorf("shadowed references wrong:\n%s", got)
	}
}

func TestRenameMultipleFunctions(t *testing.T) {
	src := `float helper_one(float x) { return x + 1.0f; }
float helper_two(float x) { return helper_one(x) * 2.0f; }
__kernel void main_kernel(__global float* buf) {
  buf[0] = helper_two(buf[0]);
}`
	got, err := Normalize(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"float A(", "float B(", "void C(", "B(c[0])", "A(b)"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	src := `__kernel void A(__global float* a, const int b) {
  int c = get_global_id(0);
  if (c < b) {
    a[c] = a[c] * 2.0f;
  }
}
`
	once, err := Normalize(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := Normalize(once, nil)
	if err != nil {
		t.Fatal(err)
	}
	if once != twice {
		t.Errorf("Normalize not idempotent:\nonce:\n%s\ntwice:\n%s", once, twice)
	}
}

func TestNormalizeBehaviorPreserved(t *testing.T) {
	// The rewritten program must parse and check cleanly.
	src := `#define N 16
__kernel void reduce_sum(__global float* in, __global float* out, __local float* scratch) {
  int gid = get_global_id(0);
  int lid = get_local_id(0);
  scratch[lid] = in[gid];
  barrier(CLK_LOCAL_MEM_FENCE);
  for (int offset = N / 2; offset > 0; offset /= 2) {
    if (lid < offset) {
      scratch[lid] += scratch[lid + offset];
    }
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  if (lid == 0) {
    out[get_group_id(0)] = scratch[0];
  }
}`
	got, err := Normalize(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := clc.Parse(got)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, got)
	}
	if err := clc.Check(f); err != nil {
		t.Fatalf("re-check failed: %v\n%s", err, got)
	}
	// Macro N must be gone, constant folded in.
	if strings.Contains(got, "N /") {
		t.Errorf("macro not expanded:\n%s", got)
	}
	if !strings.Contains(got, "16 / 2") {
		t.Errorf("macro expansion missing:\n%s", got)
	}
}

func TestNormalizeRejectsBroken(t *testing.T) {
	for _, src := range []string{
		"this is not C at all {{{",
		"__kernel void A(__global undefined_t* a) { }",
		"__kernel void A(__global int* a) { a[0] = missing_var; }",
	} {
		if _, err := Normalize(src, nil); err == nil {
			t.Errorf("Normalize(%q): expected error", src)
		}
	}
}

func TestNormalizeReducesSize(t *testing.T) {
	// §4.1: rewriting reduces code size via comment and whitespace removal.
	src := `/* A big header comment
   with several lines
   of prose that should vanish. */
__kernel void compute_something_impressive(__global float* input_buffer_with_long_name,
                                           __global float* output_buffer_with_long_name) {
  // do the thing
  int thread_identifier = get_global_id(0);   /* trailing */
  output_buffer_with_long_name[thread_identifier] = input_buffer_with_long_name[thread_identifier];
}`
	got, err := Normalize(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) >= len(src) {
		t.Errorf("rewrite did not shrink source: %d -> %d", len(src), len(got))
	}
}
