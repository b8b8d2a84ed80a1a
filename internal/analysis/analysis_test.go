package analysis

import (
	"strings"
	"testing"

	"clgen/internal/clc"
)

// analyzeSrc preprocesses, parses, checks, and analyzes one source text.
func analyzeSrc(t *testing.T, src string) *Report {
	t.Helper()
	pp, err := clc.Preprocess(src)
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	f, err := clc.Parse(pp)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := clc.Check(f); err != nil {
		t.Fatalf("check: %v", err)
	}
	return Analyze(f)
}

// wantLint asserts at least one diagnostic of the lint is present.
func wantLint(t *testing.T, rep *Report, lint string) Diagnostic {
	t.Helper()
	for _, d := range rep.Diags {
		if d.Lint == lint {
			return d
		}
	}
	t.Fatalf("expected a %q diagnostic, got: %s", lint, rep.Render("k"))
	return Diagnostic{}
}

// wantNoLint asserts no diagnostic of the lint is present.
func wantNoLint(t *testing.T, rep *Report, lint string) {
	t.Helper()
	for _, d := range rep.Diags {
		if d.Lint == lint {
			t.Fatalf("unexpected %q diagnostic: %s", lint, FormatDiagnostic("k", d))
		}
	}
}

// --- uninit-read ---------------------------------------------------------

func TestUninitReadPositive(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global float* a, const int n) {
  float x;
  a[get_global_id(0)] = x + 1.0f;
}`)
	d := wantLint(t, rep, "uninit-read")
	if d.Severity != Error {
		t.Errorf("severity = %v, want Error", d.Severity)
	}
	if rep.PredictedVerdict("A") != "" {
		t.Errorf("uninit read must not predict a verdict, got %q", rep.PredictedVerdict("A"))
	}
}

func TestUninitReadNegative(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global float* a, const int n) {
  float x = 0.0f;
  float y;
  if (n > 2) { y = 1.0f; } else { y = 2.0f; }
  a[get_global_id(0)] = x + y;
}`)
	wantNoLint(t, rep, "uninit-read")
}

func TestUninitReadConditionalAssignIsQuiet(t *testing.T) {
	// Only *definite* uninitialized reads are flagged: one assigning path
	// suffices to stay quiet (the device zero-initializes anyway).
	rep := analyzeSrc(t, `
kernel void A(global float* a, const int n) {
  float y;
  if (n > 2) { y = 1.0f; }
  a[get_global_id(0)] = y;
}`)
	wantNoLint(t, rep, "uninit-read")
}

// --- dead-code -----------------------------------------------------------

func TestDeadCodePositive(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global float* a, const int n) {
  float t = a[0] * 2.0f;
  t = 3.0f;
  a[get_global_id(0)] = t;
}`)
	d := wantLint(t, rep, "dead-code")
	if d.Severity != Info {
		t.Errorf("severity = %v, want Info", d.Severity)
	}
	if rep.DeadOps == 0 {
		t.Error("DeadOps not accumulated")
	}
}

func TestDeadCodeNegative(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global float* a, const int n) {
  float t = a[0] * 2.0f;
  a[get_global_id(0)] = t;
  int i = 0;
  for (; i < n; i++) { a[i] = t; }
}`)
	wantNoLint(t, rep, "dead-code")
}

func TestDeadCodeImpureRHSIsQuiet(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global int* a, const int n) {
  int i = 0;
  int t = a[i++];
  a[i] = 1;
}`)
	// t is dead but its initializer has a side effect (i++): not flagged.
	wantNoLint(t, rep, "dead-code")
}

// --- unused-arg ----------------------------------------------------------

func TestUnusedArgPositive(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global float* a, global float* b, const int n) {
  a[get_global_id(0)] = 1.0f;
}`)
	d := wantLint(t, rep, "unused-arg")
	if !strings.Contains(d.Msg, `"b"`) && !strings.Contains(d.Msg, `"n"`) {
		t.Errorf("unexpected message: %s", d.Msg)
	}
}

func TestUnusedArgNegative(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global float* a, const int n) {
  if (get_global_id(0) < n) { a[get_global_id(0)] = 1.0f; }
}`)
	wantNoLint(t, rep, "unused-arg")
}

// --- invariant-loop ------------------------------------------------------

func TestInvariantLoopAlwaysTrue(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global int* a, const int n) {
  int i = 0;
  while (n > 0) { i = i + 1; }
  a[get_global_id(0)] = i;
}`)
	d := wantLint(t, rep, "invariant-loop")
	if d.Severity != Error {
		t.Errorf("severity = %v, want Error (n == G > 0 is provable)", d.Severity)
	}
	if got := rep.PredictedVerdict("A"); got != PredictRunFailure {
		t.Errorf("predicted = %q, want %q", got, PredictRunFailure)
	}
}

func TestInvariantLoopUnknownTruthWarns(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global int* a, const int n) {
  int i = 0;
  while (a[0] > 0) { i = i + 1; }
  a[get_global_id(0)] = i;
}`)
	// a[0] is a memory read: not provably invariant, stays quiet.
	wantNoLint(t, rep, "invariant-loop")

	rep = analyzeSrc(t, `
kernel void A(global int* a, const int n, const int m) {
  int i = 0;
  while (n > m + 1) { i = i + 1; }
  a[get_global_id(0)] = i;
}`)
	// n == m == G makes n > m+1 false: provably-false loops are quiet too.
	wantNoLint(t, rep, "invariant-loop")
}

func TestInvariantLoopWithBreakIsQuiet(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global int* a, const int n) {
  int i = 0;
  while (n > 0) { i = i + 1; if (i > 10) break; }
  a[get_global_id(0)] = i;
}`)
	wantNoLint(t, rep, "invariant-loop")
}

func TestInvariantLoopForEver(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global int* a) {
  for (;;) { a[0] = 1; }
}`)
	wantLint(t, rep, "invariant-loop")
}

func TestCountedLoopIsQuiet(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global int* a, const int n) {
  for (int i = 0; i < n; i++) { a[i] = i; }
}`)
	wantNoLint(t, rep, "invariant-loop")
}

// --- barrier-divergence --------------------------------------------------

func TestBarrierDivergencePositive(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global int* a, local int* tmp) {
  int id = get_global_id(0);
  if (id > 2) {
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  a[id] = tmp[0];
}`)
	d := wantLint(t, rep, "barrier-divergence")
	if got := rep.PredictedVerdict("A"); got != PredictRunFailure {
		t.Errorf("predicted = %q, want %q", got, PredictRunFailure)
	}
	_ = d
}

func TestBarrierUniformCondIsQuiet(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global int* a, local int* tmp, const int n) {
  int id = get_global_id(0);
  tmp[0] = 1;
  if (n > 2) {
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  a[id] = tmp[0];
}`)
	wantNoLint(t, rep, "barrier-divergence")
}

func TestBarrierTopLevelIsQuiet(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global int* a, local int* tmp) {
  int id = get_global_id(0);
  tmp[0] = id;
  barrier(CLK_LOCAL_MEM_FENCE);
  a[id] = tmp[0];
}`)
	wantNoLint(t, rep, "barrier-divergence")
}

func TestBarrierInDivergentLoopFlagged(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global int* a, local int* tmp) {
  for (int i = 0; i < a[0]; i++) {
    barrier(CLK_LOCAL_MEM_FENCE);
    tmp[0] = i;
  }
  a[get_global_id(0)] = tmp[0];
}`)
	wantLint(t, rep, "barrier-divergence")
}

func TestBarrierInUniformCountedLoopIsQuiet(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global int* a, local int* tmp, const int n) {
  tmp[0] = 1;
  for (int i = 0; i < n; i++) {
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  a[get_global_id(0)] = tmp[0];
}`)
	wantNoLint(t, rep, "barrier-divergence")
}

// --- oob-index -----------------------------------------------------------

func TestOOBAlwaysPositive(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global int* a, const int n) {
  a[n] = 1;
}`)
	d := wantLint(t, rep, "oob-index")
	if !strings.Contains(d.Msg, "always") {
		t.Errorf("want definite OOB, got: %s", d.Msg)
	}
	if got := rep.PredictedVerdict("A"); got != PredictRunFailure {
		t.Errorf("predicted = %q, want %q", got, PredictRunFailure)
	}
}

func TestOOBOffByOneAttained(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global int* a, const int n) {
  a[get_global_id(0) + 1] = 1;
}`)
	wantLint(t, rep, "oob-index")
}

func TestOOBNegativeIndex(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global int* a, const int n) {
  int id = get_global_id(0);
  a[id - n] = 1;
}`)
	// id - n ranges [-G, -1]: always negative.
	d := wantLint(t, rep, "oob-index")
	if !strings.Contains(d.Msg, "always") {
		t.Errorf("want definite OOB, got: %s", d.Msg)
	}
}

func TestOOBUnsignedWrapIsConservative(t *testing.T) {
	// size_t arithmetic wraps instead of going negative: the analyzer
	// must not claim a provably negative index for unsigned expressions.
	rep := analyzeSrc(t, `
kernel void A(global int* a, const int n) {
  a[get_global_id(0) - n] = 1;
}`)
	wantNoLint(t, rep, "oob-index")
}

func TestOOBInBoundsIsQuiet(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global int* a, global int* b, const int n) {
  int id = get_global_id(0);
  a[id] = b[n - 1 - id];
  for (int i = 0; i < n; i++) { a[i] = a[i] + b[i]; }
}`)
	wantNoLint(t, rep, "oob-index")
}

func TestOOBGuardedIsQuiet(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global int* a, const int n) {
  int id = get_global_id(0);
  if (id + 1 < n) { a[id + 1] = 1; }
}`)
	wantNoLint(t, rep, "oob-index")
}

func TestOOBTernaryGuardIsQuiet(t *testing.T) {
	// The guard lives in a ternary condition, not an if: the arm must be
	// evaluated under the refined state.
	rep := analyzeSrc(t, `
kernel void A(global float* a, global float* b, const int n) {
  int id = get_global_id(0);
  a[id] = (id > 0) ? b[id - 1] : 0.0f;
}`)
	wantNoLint(t, rep, "oob-index")
}

func TestOOBLidGuardsGidCopy(t *testing.T) {
	// gid = group*L + lid in dimension 0, so lid > 0 implies gid > 0: the
	// guarded access is in bounds (AMD ScanLargeArrays pattern).
	rep := analyzeSrc(t, `
kernel void A(global float* block, global float* input) {
  int lid = get_local_id(0);
  int gid = get_global_id(0);
  block[lid] = (lid > 0) ? input[gid - 1] : 0.0f;
}`)
	wantNoLint(t, rep, "oob-index")
}

func TestOOBLidGuardNeedsSingleDef(t *testing.T) {
	// A reassigned "gid" is no longer a pure copy of get_global_id(0): the
	// lid bound must not transfer, and the unguarded range keeps the error.
	rep := analyzeSrc(t, `
kernel void A(global float* block, global float* input) {
  int lid = get_local_id(0);
  int gid = get_global_id(0);
  gid = gid - 2;
  block[lid] = (lid > 0) ? input[gid - 1] : 0.0f;
}`)
	wantLint(t, rep, "oob-index")
}

func TestOOBGidGuardsLidCopy(t *testing.T) {
	// The mirror direction: an upper bound on a gid copy caps every lid
	// copy (gid < k implies lid < k).
	rep := analyzeSrc(t, `
kernel void A(global float* a, global float* b) {
  int lid = get_local_id(0);
  int gid = get_global_id(0);
  if (gid < 1) { a[lid] = b[lid]; a[0] = a[lid + gid]; }
}`)
	wantNoLint(t, rep, "oob-index")
}

func TestOOBPrivateArray(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global int* a) {
  int t[4];
  t[0] = 1;
  a[get_global_id(0)] = t[7];
}`)
	wantLint(t, rep, "oob-index")
}

func TestOOBLoopOffByOne(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global int* a, const int n) {
  for (int i = 0; i <= n; i++) { a[i] = i; }
}`)
	wantLint(t, rep, "oob-index")
}

func TestOOBPointerArithmetic(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global int* a, const int n) {
  *(a + n + 2) = 1;
}`)
	d := wantLint(t, rep, "oob-index")
	if !strings.Contains(d.Msg, "always") {
		t.Errorf("want definite OOB, got: %s", d.Msg)
	}
}

func TestOOBVload(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global float* a, global float* b, const int n) {
  float4 v = vload4(n, b);
  a[get_global_id(0)] = v.x;
}`)
	wantLint(t, rep, "oob-index")

	rep = analyzeSrc(t, `
kernel void A(global float* a, global float* b, const int n) {
  float4 v = vload4(get_global_id(0) / 4, b);
  a[get_global_id(0)] = v.x;
}`)
	wantNoLint(t, rep, "oob-index")
}

// --- no-output -----------------------------------------------------------

func TestNoOutputZeroArgs(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(const global int* a, const int n) {
  int x = a[0] + n;
}`)
	d := wantLint(t, rep, "no-output")
	if !strings.Contains(d.Msg, "no output arguments") {
		t.Errorf("unexpected message: %s", d.Msg)
	}
	if got := rep.PredictedVerdict("A"); got != PredictNoOutput {
		t.Errorf("predicted = %q, want %q", got, PredictNoOutput)
	}
}

func TestNoOutputNeverStored(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global int* a, local int* tmp) {
  tmp[get_local_id(0)] = a[get_global_id(0)];
}`)
	d := wantLint(t, rep, "no-output")
	if strings.Contains(d.Msg, "no output arguments") {
		t.Errorf("want never-stores variant, got: %s", d.Msg)
	}
	if got := rep.PredictedVerdict("A"); got != PredictNoOutput {
		t.Errorf("predicted = %q, want %q", got, PredictNoOutput)
	}
}

func TestNoOutputNegative(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global int* a) {
  a[get_global_id(0)] = 1;
}`)
	wantNoLint(t, rep, "no-output")
}

func TestNoOutputThroughHelper(t *testing.T) {
	rep := analyzeSrc(t, `
void put(global int* p, int i, int v) { p[i] = v; }
kernel void A(global int* a) {
  put(a, get_global_id(0), 3);
}`)
	wantNoLint(t, rep, "no-output")
}

func TestNoOutputThroughAlias(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global int* a, const int n) {
  global int* p = a + 1;
  if (get_global_id(0) == 0) { p[0] = n; }
}`)
	wantNoLint(t, rep, "no-output")
}

// --- write-only-arg ------------------------------------------------------

func TestWriteOnlyArgPositive(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global int* a, local int* tmp) {
  tmp[get_local_id(0)] = 1;
  a[get_global_id(0)] = 2;
}`)
	wantLint(t, rep, "write-only-arg")
}

func TestWriteOnlyArgNegative(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global int* a, local int* tmp) {
  tmp[get_local_id(0)] = 1;
  barrier(CLK_LOCAL_MEM_FENCE);
  a[get_global_id(0)] = tmp[0];
}`)
	wantNoLint(t, rep, "write-only-arg")
}

// --- report plumbing -----------------------------------------------------

func TestPredictionPriorityNoOutputFirst(t *testing.T) {
	// Zero output args beats a run-failure lint: the checker prechecks
	// outputs before executing anything.
	rep := analyzeSrc(t, `
kernel void A(const global int* a, const int n) {
  int x = a[n];
}`)
	if got := rep.PredictedVerdict("A"); got != PredictNoOutput {
		t.Errorf("predicted = %q, want %q (precheck precedes execution)", got, PredictNoOutput)
	}
}

func TestReportDeterministicOrder(t *testing.T) {
	src := `
kernel void A(global int* a, global int* b, const int n) {
  float dead = 1.0f;
  a[n] = 1;
}`
	want := analyzeSrc(t, src).Render("k.cl")
	for i := 0; i < 5; i++ {
		if got := analyzeSrc(t, src).Render("k.cl"); got != want {
			t.Fatalf("analysis output not deterministic:\n--- want\n%s--- got\n%s", want, got)
		}
	}
}

func TestHasErrorsAndErrors(t *testing.T) {
	rep := analyzeSrc(t, `
kernel void A(global int* a, const int n) {
  a[get_global_id(0)] = n;
}`)
	if rep.HasErrors() {
		t.Fatalf("clean kernel reported errors: %s", rep.Render("k"))
	}
	rep = analyzeSrc(t, `kernel void A(global int* a, const int n) { a[n] = 1; }`)
	if !rep.HasErrors() || len(rep.Errors()) == 0 || rep.PrimaryError() == nil {
		t.Fatal("OOB kernel must report errors")
	}
}

// --- CFG and dataflow infrastructure -------------------------------------

func parseFn(t *testing.T, src string) *clc.FuncDecl {
	t.Helper()
	pp, err := clc.Preprocess(src)
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	f, err := clc.Parse(pp)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := clc.Check(f); err != nil {
		t.Fatalf("check: %v", err)
	}
	fns := f.Functions()
	if len(fns) == 0 || fns[0].Body == nil {
		t.Fatal("no function body")
	}
	return fns[0]
}

func TestCFGShapes(t *testing.T) {
	fn := parseFn(t, `
kernel void A(global int* a, const int n) {
  int s = 0;
  for (int i = 0; i < n; i++) {
    if (i == 3) continue;
    if (i == 5) break;
    s += i;
  }
  switch (n) {
  case 1: s = 1; break;
  case 2: s = 2;
  default: s = 9;
  }
  do { s--; } while (s > 0);
  a[0] = s;
}`)
	g := BuildCFG(fn)
	if len(g.Loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(g.Loops))
	}
	forLoop := g.Loops[0]
	if !forLoop.HasBreak {
		t.Error("for loop break not recorded")
	}
	if forLoop.HasReturn {
		t.Error("for loop has no return")
	}
	if !g.Loops[1].DoWhile {
		t.Error("do-while not recorded")
	}
	// A break inside a switch must not mark the enclosing loop.
	fn2 := parseFn(t, `
kernel void B(global int* a, const int n) {
  for (int i = 0; i < n; i++) {
    switch (i) { case 1: a[0] = 1; break; default: a[0] = 2; }
  }
}`)
	g2 := BuildCFG(fn2)
	if len(g2.Loops) != 1 || g2.Loops[0].HasBreak {
		t.Error("switch break incorrectly marked the loop")
	}
	// Every reachable block except Entry must have a predecessor; the
	// postorder must include Entry and Exit.
	po := g.Postorder()
	seenEntry, seenExit := false, false
	for _, b := range po {
		if b == g.Entry {
			seenEntry = true
		}
		if b == g.Exit {
			seenExit = true
		}
		if b != g.Entry && len(b.Preds) == 0 {
			t.Errorf("reachable block %d has no predecessors", b.ID)
		}
	}
	if !seenEntry || !seenExit {
		t.Error("postorder misses entry or exit")
	}
}

func TestDominators(t *testing.T) {
	fn := parseFn(t, `
kernel void A(global int* a, const int n) {
  if (n > 1) { a[0] = 1; } else { a[0] = 2; }
  a[1] = 3;
}`)
	g := BuildCFG(fn)
	idom := dominatorsBy(g, func(b *Block) []*Block { return b.Succs })
	if !Dominates(idom, g.Entry, g.Exit) {
		t.Error("entry must dominate exit")
	}
	for _, b := range g.Postorder() {
		if b != g.Entry && !Dominates(idom, g.Entry, b) {
			t.Errorf("entry must dominate block %d", b.ID)
		}
	}
}

func TestIntervalArithmetic(t *testing.T) {
	g := gidIval() // [0, G-1]
	if !leqAll(g.lo, g.hi) {
		t.Error("gid interval must be ordered for all G >= 1")
	}
	sum := addIval(g, constIval(1)) // [1, G]
	if !leqAll(bAff(1, 0), sum.hi) || !leqAll(sum.hi, bAff(1, 0)) {
		t.Errorf("gid+1 upper bound = %s, want G", fmtBnd(sum.hi))
	}
	if !sum.hiAtt {
		t.Error("adding a constant must preserve attainment")
	}
	two := addIval(g, g) // correlated sum: attainment must drop
	if two.loAtt || two.hiAtt {
		t.Error("sum of two varying intervals must not claim attainment")
	}
	if cmpTri(clc.LT, g, ival{lo: bAff(1, 0), hi: bAff(1, 0), loAtt: true, hiAtt: true}) != triTrue {
		t.Error("gid < G must be provable")
	}
	j := joinIval(constIval(2), constIval(5))
	if j.dense {
		t.Error("join of {2} and {5} is not dense")
	}
	jd := joinIval(constIval(2), constIval(3))
	if !jd.dense {
		t.Error("join of {2} and {3} is dense")
	}
	w := widenIval(ival{lo: bInt(0), hi: bInt(3)}, ival{lo: bInt(0), hi: bInt(4)})
	if w.hi.inf != 1 {
		t.Error("unstable upper bound must widen to +inf")
	}
}

func TestLivenessAndAssigned(t *testing.T) {
	fn := parseFn(t, `
kernel void A(global int* a, const int n) {
  int x = 1;
  int y;
  if (n > 0) { y = x; } else { y = 2; }
  a[0] = y;
}`)
	st := resolveFunc(fn, nil)
	g := BuildCFG(fn)
	live := liveVars(g, st)
	assigned := possiblyAssigned(g, st)
	// y is live into the exit-adjacent block; x is assigned everywhere
	// after entry.
	if len(live.In) == 0 || len(assigned.Out) == 0 {
		t.Fatal("dataflow produced no states")
	}
	var x *Var
	for _, v := range st.locals {
		if v.Name == "x" {
			x = v
		}
	}
	if x == nil {
		t.Fatal("local x not resolved")
	}
	if !assigned.Out[g.Entry].has(x) {
		t.Error("x must be possibly-assigned after the entry block")
	}
}
