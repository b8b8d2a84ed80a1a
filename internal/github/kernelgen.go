package github

import (
	"fmt"
	"math/rand"
	"strings"
)

// KernelFile generates one human-style OpenCL content file containing one
// to three kernels, optional helper functions, macros, and comments. When
// needsShim is set the file uses identifiers that only resolve against the
// shim header's inferred typedefs and constants (FLOAT_T, WG_SIZE, ...),
// reproducing the paper's "undeclared identifier" failure class.
func KernelFile(rng *rand.Rand, needsShim bool) string {
	st := newStyle(rng, needsShim)
	var b strings.Builder
	if rng.Float64() < 0.5 {
		fmt.Fprintf(&b, "// %s\n// Auto-tuned for %s\n\n", pick(rng, headerComments), pick(rng, deviceNames))
	}
	st.emitPrelude(&b)
	nKernels := 1 + rng.Intn(3)
	for i := 0; i < nKernels; i++ {
		if i > 0 {
			b.WriteString("\n")
		}
		family := kernelFamilies[rng.Intn(len(kernelFamilies))]
		family(&b, rng, st)
	}
	return b.String()
}

var headerComments = []string{
	"OpenCL compute kernels", "Device-side implementation",
	"Ported from the CUDA version", "Part of the GPU acceleration layer",
	"Generated bindings - do not edit by hand", "Optimized memory access pattern",
}

var deviceNames = []string{"NVIDIA GTX 970", "AMD Tahiti", "Intel HD Graphics",
	"Mali T-604", "generic devices"}

// style captures the per-file authoring idiosyncrasies.
type style struct {
	typ        string // element type as written: float, double, int, DTYPE, FLOAT_T
	realType   string // underlying scalar
	idx        string // index variable name
	size       string // size parameter name
	comments   bool
	earlyRet   bool // guard via early return rather than if-wrap
	unsignedId bool
	macroAlpha string // macro name for the scale constant, "" if literal
	needsShim  bool
	wgMacro    string // WG_SIZE-style constant from the shim, "" otherwise
}

func newStyle(rng *rand.Rand, needsShim bool) *style {
	st := &style{
		idx:        pick(rng, idxNames),
		size:       pick(rng, sizeNames),
		comments:   rng.Float64() < 0.4,
		earlyRet:   rng.Float64() < 0.4,
		unsignedId: rng.Float64() < 0.35,
		needsShim:  needsShim,
	}
	st.realType = pick(rng, []string{"float", "float", "float", "int", "double"})
	st.typ = st.realType
	if needsShim {
		switch st.realType {
		case "float":
			st.typ = "FLOAT_T"
		case "int":
			st.typ = "INDEX_TYPE"
		case "double":
			st.typ = "REAL_T"
		}
		if rng.Float64() < 0.5 {
			st.wgMacro = "WG_SIZE"
		}
	} else if rng.Float64() < 0.3 {
		st.typ = "DTYPE"
	}
	if rng.Float64() < 0.3 {
		st.macroAlpha = strings.ToUpper(pick(rng, scalarNames))
	}
	return st
}

func (st *style) emitPrelude(b *strings.Builder) {
	if st.typ == "DTYPE" {
		fmt.Fprintf(b, "#define DTYPE %s\n", st.realType)
	}
	if st.macroAlpha != "" {
		fmt.Fprintf(b, "#define %s 2.5f\n", st.macroAlpha)
	}
	if st.typ == "DTYPE" || st.macroAlpha != "" {
		b.WriteString("\n")
	}
}

// idxDecl emits the global-id declaration line.
func (st *style) idxDecl() string {
	t := "int"
	if st.unsignedId {
		t = "unsigned int"
	}
	return fmt.Sprintf("  %s %s = get_global_id(0);", t, st.idx)
}

// guardOpen emits the bounds guard; returns the indent for the guarded body
// and whether a closing brace is required.
func (st *style) guardOpen(b *strings.Builder) (string, bool) {
	if st.earlyRet {
		fmt.Fprintf(b, "  if (%s >= %s) {\n    return;\n  }\n", st.idx, st.size)
		return "  ", false
	}
	fmt.Fprintf(b, "  if (%s < %s) {\n", st.idx, st.size)
	return "    ", true
}

func (st *style) alpha() string {
	if st.macroAlpha != "" {
		return st.macroAlpha
	}
	if st.realType == "int" {
		return "3"
	}
	return "2.5f"
}

func (st *style) comment(b *strings.Builder, text string) {
	if st.comments {
		fmt.Fprintf(b, "  // %s\n", text)
	}
}

var (
	bufNames    = []string{"in", "input", "src", "data", "x", "a", "buf", "vec", "values", "samples", "signal"}
	outNames    = []string{"out", "output", "dst", "result", "y", "b", "res", "sink"}
	idxNames    = []string{"i", "idx", "tid", "gid", "id", "gidx"}
	sizeNames   = []string{"n", "count", "size", "len", "num_elements", "total"}
	scalarNames = []string{"alpha", "beta", "scale", "factor", "offset", "threshold"}
	fnNames     = []string{"vec_add", "vector_sum", "saxpy_kernel", "axpy", "scale_vec",
		"map_values", "reduce_partial", "stencil3", "mat_vec_mul", "transform_data",
		"apply_gain", "compute_step", "update_state", "normalize_vec", "threshold_op",
		"dot_partial", "blur_line", "integrate_vals", "accumulate", "elementwise_op"}
)

type kernelFamily func(b *strings.Builder, rng *rand.Rand, st *style)

var kernelFamilies = []kernelFamily{
	genZip, genSaxpy, genMap, genReduction, genStencil, genMatVec,
	genThreshold, genCopyStride, genVectorType, genIterative, genHistogram,
	genDotPartial, genTranspose2D, genScanSerial,
	// Loop- and barrier-heavy families appear twice: the corpus (and hence
	// the learned model) should cover the compute-bound region of the
	// feature space as well as the streaming one.
	genReduction, genIterative, genDotPartial, genMatVec,
}

// genZip: c[i] = a[i] OP b[i] with optional fused extras.
func genZip(b *strings.Builder, rng *rand.Rand, st *style) {
	a, c, o := pick(rng, bufNames), pick(rng, bufNames)+"2", pick(rng, outNames)
	op := pick(rng, []string{"+", "-", "*"})
	fmt.Fprintf(b, "__kernel void %s(__global %s* %s,\n", pick(rng, fnNames), st.typ, a)
	fmt.Fprintf(b, "                 __global %s* %s,\n", st.typ, c)
	fmt.Fprintf(b, "                 __global %s* %s,\n", st.typ, o)
	fmt.Fprintf(b, "                 const int %s) {\n", st.size)
	b.WriteString(st.idxDecl() + "\n")
	indent, closeBrace := st.guardOpen(b)
	st.comment(b, "elementwise combine")
	switch rng.Intn(3) {
	case 0:
		fmt.Fprintf(b, "%s%s[%s] = %s[%s] %s %s[%s];\n", indent, o, st.idx, a, st.idx, op, c, st.idx)
	case 1:
		fmt.Fprintf(b, "%s%s[%s] = %s * %s[%s] %s %s[%s];\n", indent, o, st.idx, st.alpha(), a, st.idx, op, c, st.idx)
	default:
		fmt.Fprintf(b, "%s%s[%s] = %s[%s] %s %s[%s] + %s[%s];\n", indent, o, st.idx, a, st.idx, op, c, st.idx, a, st.idx)
	}
	if closeBrace {
		b.WriteString("  }\n")
	}
	b.WriteString("}\n")
}

// genSaxpy: y[i] = alpha * x[i] + y[i], sometimes via an inline helper.
func genSaxpy(b *strings.Builder, rng *rand.Rand, st *style) {
	x, y := pick(rng, bufNames), pick(rng, outNames)
	helper := rng.Float64() < 0.4
	if helper {
		fmt.Fprintf(b, "inline %s scale_val(%s v) {\n  return %s * v;\n}\n\n", st.typ, st.typ, st.alpha())
	}
	fmt.Fprintf(b, "__kernel void %s(__global %s* %s, __global %s* %s, const int %s) {\n",
		pick(rng, fnNames), st.typ, x, st.typ, y, st.size)
	b.WriteString(st.idxDecl() + "\n")
	indent, closeBrace := st.guardOpen(b)
	if helper {
		fmt.Fprintf(b, "%s%s[%s] += scale_val(%s[%s]);\n", indent, y, st.idx, x, st.idx)
	} else {
		fmt.Fprintf(b, "%s%s[%s] = %s * %s[%s] + %s[%s];\n", indent, y, st.idx, st.alpha(), x, st.idx, y, st.idx)
	}
	if closeBrace {
		b.WriteString("  }\n")
	}
	b.WriteString("}\n")
}

// genMap: out[i] = f(in[i]) for a unary math f.
func genMap(b *strings.Builder, rng *rand.Rand, st *style) {
	in, out := pick(rng, bufNames), pick(rng, outNames)
	t := st.typ
	exprs := []string{
		"sqrt(fabs(%s[%s]))", "exp(%s[%s])", "%s[%s] * %s[%s]",
		"log(fabs(%s[%s]) + 1.0f)", "sin(%s[%s]) + cos(%s[%s])",
	}
	if st.realType == "int" {
		exprs = []string{"%s[%s] * %s[%s]", "abs(%s[%s])", "%s[%s] << 1"}
	}
	expr := exprs[rng.Intn(len(exprs))]
	filled := fillExpr(expr, in, st.idx)
	fmt.Fprintf(b, "__kernel void %s(__global const %s* %s, __global %s* %s, const int %s) {\n",
		pick(rng, fnNames), t, in, t, out, st.size)
	b.WriteString(st.idxDecl() + "\n")
	indent, closeBrace := st.guardOpen(b)
	st.comment(b, "apply the transfer function")
	fmt.Fprintf(b, "%s%s[%s] = %s;\n", indent, out, st.idx, filled)
	if closeBrace {
		b.WriteString("  }\n")
	}
	b.WriteString("}\n")
}

// fillExpr substitutes (buf, idx) pairs into a printf-style pattern.
func fillExpr(pattern, buf, idx string) string {
	n := strings.Count(pattern, "%s") / 2
	args := make([]any, 0, n*2)
	for i := 0; i < n; i++ {
		args = append(args, buf, idx)
	}
	return fmt.Sprintf(pattern, args...)
}

// genReduction: classic local-memory tree reduction with barriers.
func genReduction(b *strings.Builder, rng *rand.Rand, st *style) {
	in, out := pick(rng, bufNames), pick(rng, outNames)
	wg := "64"
	if st.wgMacro != "" {
		wg = st.wgMacro
	}
	fmt.Fprintf(b, "__kernel void %s(__global const %s* %s,\n", pick(rng, fnNames), st.typ, in)
	fmt.Fprintf(b, "                 __global %s* %s,\n", st.typ, out)
	fmt.Fprintf(b, "                 __local %s* scratch,\n", st.typ)
	fmt.Fprintf(b, "                 const int %s) {\n", st.size)
	fmt.Fprintf(b, "  int lid = get_local_id(0);\n")
	fmt.Fprintf(b, "  int gid = get_global_id(0);\n")
	st.comment(b, "load into shared memory")
	fmt.Fprintf(b, "  scratch[lid] = (gid < %s) ? %s[gid] : 0;\n", st.size, in)
	b.WriteString("  barrier(CLK_LOCAL_MEM_FENCE);\n")
	fmt.Fprintf(b, "  for (int s = %s / 2; s > 0; s >>= 1) {\n", wg)
	b.WriteString("    if (lid < s) {\n")
	b.WriteString("      scratch[lid] += scratch[lid + s];\n")
	b.WriteString("    }\n")
	b.WriteString("    barrier(CLK_LOCAL_MEM_FENCE);\n")
	b.WriteString("  }\n")
	b.WriteString("  if (lid == 0) {\n")
	fmt.Fprintf(b, "    %s[get_group_id(0)] = scratch[0];\n", out)
	b.WriteString("  }\n}\n")
}

// genStencil: 3-point stencil with boundary handling.
func genStencil(b *strings.Builder, rng *rand.Rand, st *style) {
	in, out := pick(rng, bufNames), pick(rng, outNames)
	fmt.Fprintf(b, "__kernel void %s(__global const %s* %s, __global %s* %s, const int %s) {\n",
		pick(rng, fnNames), st.typ, in, st.typ, out, st.size)
	b.WriteString(st.idxDecl() + "\n")
	fmt.Fprintf(b, "  if (%s > 0 && %s < %s - 1) {\n", st.idx, st.idx, st.size)
	st.comment(b, "3-point average")
	div := "3.0f"
	if st.realType == "int" {
		div = "3"
	}
	fmt.Fprintf(b, "    %s[%s] = (%s[%s - 1] + %s[%s] + %s[%s + 1]) / %s;\n",
		out, st.idx, in, st.idx, in, st.idx, in, st.idx, div)
	b.WriteString("  }\n}\n")
}

// genMatVec: naive dense matrix-vector product with an inner loop.
func genMatVec(b *strings.Builder, rng *rand.Rand, st *style) {
	m, v, out := "matrix", pick(rng, bufNames), pick(rng, outNames)
	fmt.Fprintf(b, "__kernel void %s(__global const %s* %s,\n", pick(rng, fnNames), st.typ, m)
	fmt.Fprintf(b, "                 __global const %s* %s,\n", st.typ, v)
	fmt.Fprintf(b, "                 __global %s* %s,\n", st.typ, out)
	fmt.Fprintf(b, "                 const int cols, const int %s) {\n", st.size)
	fmt.Fprintf(b, "  int row = get_global_id(0);\n")
	fmt.Fprintf(b, "  if (row < %s) {\n", st.size)
	zero := "0.0f"
	if st.realType == "int" {
		zero = "0"
	}
	fmt.Fprintf(b, "    %s sum = %s;\n", st.typ, zero)
	b.WriteString("    for (int j = 0; j < cols; j++) {\n")
	fmt.Fprintf(b, "      sum += %s[row * cols + j] * %s[j];\n", m, v)
	b.WriteString("    }\n")
	fmt.Fprintf(b, "    %s[row] = sum;\n", out)
	b.WriteString("  }\n}\n")
}

// genThreshold: data-dependent branching.
func genThreshold(b *strings.Builder, rng *rand.Rand, st *style) {
	in, out := pick(rng, bufNames), pick(rng, outNames)
	thr := pick(rng, scalarNames)
	fmt.Fprintf(b, "__kernel void %s(__global const %s* %s, __global %s* %s, const %s %s, const int %s) {\n",
		pick(rng, fnNames), st.typ, in, st.typ, out, st.typ, thr, st.size)
	b.WriteString(st.idxDecl() + "\n")
	indent, closeBrace := st.guardOpen(b)
	if rng.Float64() < 0.5 {
		fmt.Fprintf(b, "%sif (%s[%s] > %s) {\n", indent, in, st.idx, thr)
		fmt.Fprintf(b, "%s  %s[%s] = %s[%s];\n", indent, out, st.idx, in, st.idx)
		fmt.Fprintf(b, "%s} else {\n", indent)
		fmt.Fprintf(b, "%s  %s[%s] = %s;\n", indent, out, st.idx, thr)
		fmt.Fprintf(b, "%s}\n", indent)
	} else {
		fmt.Fprintf(b, "%s%s[%s] = (%s[%s] > %s) ? %s[%s] : %s;\n",
			indent, out, st.idx, in, st.idx, thr, in, st.idx, thr)
	}
	if closeBrace {
		b.WriteString("  }\n")
	}
	b.WriteString("}\n")
}

// genCopyStride: strided gather (uncoalesced pattern).
func genCopyStride(b *strings.Builder, rng *rand.Rand, st *style) {
	in, out := pick(rng, bufNames), pick(rng, outNames)
	stride := []string{"2", "4", "stride"}[rng.Intn(3)]
	extra := ""
	if stride == "stride" {
		extra = ", const int stride"
	}
	fmt.Fprintf(b, "__kernel void %s(__global const %s* %s, __global %s* %s, const int %s%s) {\n",
		pick(rng, fnNames), st.typ, in, st.typ, out, st.size, extra)
	b.WriteString(st.idxDecl() + "\n")
	indent, closeBrace := st.guardOpen(b)
	fmt.Fprintf(b, "%s%s[%s] = %s[%s * %s];\n", indent, out, st.idx, in, st.idx, stride)
	if closeBrace {
		b.WriteString("  }\n")
	}
	b.WriteString("}\n")
}

// genVectorType: float4 arithmetic.
func genVectorType(b *strings.Builder, rng *rand.Rand, st *style) {
	if st.realType == "int" || st.needsShim {
		genZip(b, rng, st)
		return
	}
	in, out := pick(rng, bufNames), pick(rng, outNames)
	fmt.Fprintf(b, "__kernel void %s(__global float4* %s, __global float4* %s, const int %s) {\n",
		pick(rng, fnNames), in, out, st.size)
	b.WriteString(st.idxDecl() + "\n")
	indent, closeBrace := st.guardOpen(b)
	fmt.Fprintf(b, "%sfloat4 v = %s[%s];\n", indent, in, st.idx)
	switch rng.Intn(3) {
	case 0:
		fmt.Fprintf(b, "%s%s[%s] = v * 2.0f + (float4)(1.0f, 2.0f, 3.0f, 4.0f);\n", indent, out, st.idx)
	case 1:
		fmt.Fprintf(b, "%s%s[%s] = v.wzyx;\n", indent, out, st.idx)
	default:
		fmt.Fprintf(b, "%sfloat s = dot(v, v);\n", indent)
		fmt.Fprintf(b, "%s%s[%s] = v * s;\n", indent, out, st.idx)
	}
	if closeBrace {
		b.WriteString("  }\n")
	}
	b.WriteString("}\n")
}

// genIterative: a convergence loop per work-item.
func genIterative(b *strings.Builder, rng *rand.Rand, st *style) {
	if st.realType == "int" {
		genMap(b, rng, st)
		return
	}
	in, out := pick(rng, bufNames), pick(rng, outNames)
	fmt.Fprintf(b, "__kernel void %s(__global const %s* %s, __global %s* %s, const int %s, const int iters) {\n",
		pick(rng, fnNames), st.typ, in, st.typ, out, st.size)
	b.WriteString(st.idxDecl() + "\n")
	indent, closeBrace := st.guardOpen(b)
	fmt.Fprintf(b, "%s%s v = %s[%s];\n", indent, st.typ, in, st.idx)
	fmt.Fprintf(b, "%sfor (int k = 0; k < iters; k++) {\n", indent)
	st.comment(b, "newton step")
	fmt.Fprintf(b, "%s  v = 0.5f * (v + %s[%s] / (v + 1.0f));\n", indent, in, st.idx)
	fmt.Fprintf(b, "%s}\n", indent)
	fmt.Fprintf(b, "%s%s[%s] = v;\n", indent, out, st.idx)
	if closeBrace {
		b.WriteString("  }\n")
	}
	b.WriteString("}\n")
}

// genHistogram: atomic updates into a shared table.
func genHistogram(b *strings.Builder, rng *rand.Rand, st *style) {
	in := pick(rng, bufNames)
	fmt.Fprintf(b, "__kernel void %s(__global const int* %s, __global int* hist, const int %s, const int bins) {\n",
		pick(rng, fnNames), in, st.size)
	b.WriteString(st.idxDecl() + "\n")
	indent, closeBrace := st.guardOpen(b)
	fmt.Fprintf(b, "%sint bin = %s[%s] %% bins;\n", indent, in, st.idx)
	fmt.Fprintf(b, "%sif (bin < 0) {\n%s  bin += bins;\n%s}\n", indent, indent, indent)
	fmt.Fprintf(b, "%satomic_add(&hist[bin], 1);\n", indent)
	if closeBrace {
		b.WriteString("  }\n")
	}
	b.WriteString("}\n")
}

// genDotPartial: dot product with local accumulation.
func genDotPartial(b *strings.Builder, rng *rand.Rand, st *style) {
	x, y, out := pick(rng, bufNames), pick(rng, bufNames)+"_b", pick(rng, outNames)
	fmt.Fprintf(b, "__kernel void %s(__global const %s* %s,\n", pick(rng, fnNames), st.typ, x)
	fmt.Fprintf(b, "                 __global const %s* %s,\n", st.typ, y)
	fmt.Fprintf(b, "                 __global %s* %s,\n", st.typ, out)
	fmt.Fprintf(b, "                 __local %s* tmp,\n", st.typ)
	fmt.Fprintf(b, "                 const int %s) {\n", st.size)
	b.WriteString("  int gid = get_global_id(0);\n  int lid = get_local_id(0);\n")
	zero := "0.0f"
	if st.realType == "int" {
		zero = "0"
	}
	fmt.Fprintf(b, "  tmp[lid] = (gid < %s) ? %s[gid] * %s[gid] : %s;\n", st.size, x, y, zero)
	b.WriteString("  barrier(CLK_LOCAL_MEM_FENCE);\n")
	b.WriteString("  if (lid == 0) {\n")
	fmt.Fprintf(b, "    %s acc = %s;\n", st.typ, zero)
	b.WriteString("    for (int j = 0; j < get_local_size(0); j++) {\n      acc += tmp[j];\n    }\n")
	fmt.Fprintf(b, "    %s[get_group_id(0)] = acc;\n", out)
	b.WriteString("  }\n}\n")
}

// genTranspose2D: two-dimensional NDRange with row/col indexing.
func genTranspose2D(b *strings.Builder, rng *rand.Rand, st *style) {
	in, out := pick(rng, bufNames), pick(rng, outNames)
	fmt.Fprintf(b, "__kernel void %s(__global const %s* %s, __global %s* %s, const int width, const int height) {\n",
		pick(rng, fnNames), st.typ, in, st.typ, out)
	b.WriteString("  int col = get_global_id(0);\n  int row = get_global_id(1);\n")
	b.WriteString("  if (col < width && row < height) {\n")
	fmt.Fprintf(b, "    %s[col * height + row] = %s[row * width + col];\n", out, in)
	b.WriteString("  }\n}\n")
}

// genScanSerial: per-workitem serial prefix over a chunk.
func genScanSerial(b *strings.Builder, rng *rand.Rand, st *style) {
	in, out := pick(rng, bufNames), pick(rng, outNames)
	fmt.Fprintf(b, "__kernel void %s(__global const %s* %s, __global %s* %s, const int chunk, const int %s) {\n",
		pick(rng, fnNames), st.typ, in, st.typ, out, st.size)
	b.WriteString(st.idxDecl() + "\n")
	zero := "0.0f"
	if st.realType == "int" {
		zero = "0"
	}
	fmt.Fprintf(b, "  %s acc = %s;\n", st.typ, zero)
	fmt.Fprintf(b, "  for (int j = 0; j < chunk; j++) {\n")
	fmt.Fprintf(b, "    int pos = %s * chunk + j;\n", st.idx)
	fmt.Fprintf(b, "    if (pos < %s) {\n", st.size)
	fmt.Fprintf(b, "      acc += %s[pos];\n", in)
	fmt.Fprintf(b, "      %s[pos] = acc;\n", out)
	b.WriteString("    }\n  }\n}\n")
}

// FallbackKernel is the deterministic well-formed kernel trivialFile
// falls back to: a bounds-checked scale-and-shift with enough static
// instructions to clear the §4.1 rejection filter (see the corpus test
// asserting exactly that). Being a constant, it consumes no RNG state, so
// swapping its body never shifts the miner's downstream draws.
const FallbackKernel = "__kernel void scale_shift(__global float* a, const float s, const int n) {\n" +
	"  int gid = get_global_id(0);\n" +
	"  if (gid < n) {\n" +
	"    a[gid] = a[gid] * s + 1.0f;\n" +
	"  }\n" +
	"}\n"

// trivialFile produces small kernels: two variants fall below the
// rejection filter's minimum static instruction count, and the third is
// FallbackKernel — well-formed and filter-passing, standing in for the
// real GitHub files that are minimal yet legitimate.
func trivialFile(rng *rand.Rand) string {
	switch rng.Intn(3) {
	case 0:
		return "__kernel void noop(__global float* a) {\n}\n"
	case 1:
		return fmt.Sprintf("__kernel void set_one(__global %s* out) {\n  out[0] = 1;\n}\n",
			pick(rng, []string{"int", "float"}))
	default:
		return FallbackKernel
	}
}

// hostFile produces host-side code the search engine mis-identified.
func hostFile(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("#include <stdio.h>\n#include <CL/cl.h>\n\n")
	b.WriteString("int main(int argc, char** argv) {\n")
	b.WriteString("  cl_context ctx = clCreateContext(NULL, 1, &dev, NULL, NULL, &err);\n")
	b.WriteString("  cl_mem buf = clCreateBuffer(ctx, CL_MEM_READ_WRITE, size, NULL, &err);\n")
	if rng.Float64() < 0.5 {
		b.WriteString("  printf(\"launching kernel\\n\");\n")
	}
	b.WriteString("  return 0;\n}\n")
	return b.String()
}

// brokenFile produces device code that cannot compile: truncation, missing
// types that even the shim does not provide, or stray syntax.
func brokenFile(rng *rand.Rand) string {
	switch rng.Intn(3) {
	case 0:
		// Truncated mid-kernel.
		full := KernelFile(rng, false)
		if len(full) > 40 {
			return full[:len(full)/2]
		}
		return full[:len(full)-2]
	case 1:
		return "__kernel void process(__global image2d_t img, sampler_t smp) {\n  read_imagef(img, smp);\n}\n"
	default:
		return "__kernel void f(__global my_custom_struct_t* data) {\n  data[get_global_id(0)].field = 0;\n}\n"
	}
}
