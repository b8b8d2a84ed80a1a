// Package features extracts the Grewe et al. predictive-model features
// (Table 2 of the paper) from OpenCL kernels: four static code features
// (comp, mem, localmem, coalesced), two dynamic features supplied by the
// host driver (transfer, wgsize), the four combined features F1–F4, and the
// additional static branch counter that §8.2 introduces to repair the
// feature space.
package features

import (
	"fmt"
	"sync/atomic"

	"clgen/internal/analysis"
	"clgen/internal/cache"
	"clgen/internal/clc"
	"clgen/internal/ir"
)

// preciseMode selects analyzer-derived static features (analysis.Features)
// over the AST/token heuristics, process-globally: the binaries'
// -precise-features flag calls SetPrecise, so every extraction path
// (corpus filter, driver, experiments) switches together.
var preciseMode atomic.Bool

// SetPrecise flips the process-global precise-extraction mode.
func SetPrecise(on bool) { preciseMode.Store(on) }

// Precise reports whether precise extraction is active.
func Precise() bool { return preciseMode.Load() }

// Static holds the static code features of one kernel.
type Static struct {
	Kernel    string
	Comp      int // #. compute operations
	Mem       int // #. accesses to global memory
	LocalMem  int // #. accesses to local memory
	Coalesced int // #. coalesced global memory accesses
	Branches  int // #. branching operations (§8.2 extension)
	Atomics   int // #. atomic operations (used by ablations)
	Instrs    int // total static instructions (rejection-filter quantity)
}

// Dynamic holds the runtime-derived features of one execution.
type Dynamic struct {
	Transfer int64 // bytes transferred between host and device
	WgSize   int64 // #. work-items per kernel launch
}

// Vector is a complete feature vector: raw features plus the Grewe et al.
// combinations F1–F4.
type Vector struct {
	Static
	Dynamic
}

// F1 is the communication-computation ratio: transfer/(comp+mem).
func (v Vector) F1() float64 {
	d := float64(v.Comp + v.Mem)
	if d == 0 {
		return 0
	}
	return float64(v.Transfer) / d
}

// F2 is the fraction of coalesced memory accesses: coalesced/mem.
func (v Vector) F2() float64 {
	if v.Mem == 0 {
		return 0
	}
	return float64(v.Coalesced) / float64(v.Mem)
}

// F3 is (localmem/mem) × wgsize.
func (v Vector) F3() float64 {
	if v.Mem == 0 {
		return 0
	}
	return float64(v.LocalMem) / float64(v.Mem) * float64(v.WgSize)
}

// F4 is the computation-memory ratio: comp/mem.
func (v Vector) F4() float64 {
	if v.Mem == 0 {
		return 0
	}
	return float64(v.Comp) / float64(v.Mem)
}

// Combined returns the model input used by the original Grewe et al.
// model: the four combined features only.
func (v Vector) Combined() []float64 {
	return []float64{v.F1(), v.F2(), v.F3(), v.F4()}
}

// Raw returns the raw feature values (static + dynamic), the §8.2
// extension. The branch counter is appended last so ablations can slice it
// off.
func (v Vector) Raw() []float64 {
	return []float64{
		float64(v.Comp), float64(v.Mem), float64(v.LocalMem), float64(v.Coalesced),
		float64(v.Transfer), float64(v.WgSize), float64(v.Branches),
	}
}

// Extended returns the §8.2 extended model input: combined features, raw
// features, and the branch counter.
func (v Vector) Extended() []float64 {
	return append(v.Combined(), v.Raw()...)
}

// StaticKey is the static-feature identity used for the Figure 9 match
// counting: two kernels "match" when all static code features (including
// the branch feature) are equal.
func (v Static) Key() string {
	return fmt.Sprintf("%d/%d/%d/%d/%d", v.Comp, v.Mem, v.LocalMem, v.Coalesced, v.Branches)
}

// FeatureVec returns the five static code features in the journal's
// feature-event order: comp, mem, localmem, coalesced, branches. The
// funnel's agreement table assumes this order (journal.FeatureNames).
func (s Static) FeatureVec() []float64 {
	return []float64{
		float64(s.Comp), float64(s.Mem), float64(s.LocalMem),
		float64(s.Coalesced), float64(s.Branches),
	}
}

// CombinedNames are display names for the combined features (Table 2b).
var CombinedNames = []string{"F1 transfer/(comp+mem)", "F2 coalesced/mem", "F3 (localmem/mem)*wgsize", "F4 comp/mem"}

// ExtractFile computes static features for every kernel in a checked
// file, in the process-global mode (heuristic, or precise under
// -precise-features).
func ExtractFile(f *clc.File) ([]Static, error) {
	return ExtractFileMode(f, Precise())
}

// ExtractFileMode is ExtractFile with the extraction mode pinned,
// regardless of the process-global setting — the differential tests and
// the feature-agreement journal events need both vectors for one kernel.
func ExtractFileMode(f *clc.File, precise bool) ([]Static, error) {
	prog := ir.Lower(f)
	var pf map[string]analysis.KernelFeatures
	if precise {
		pf = analysis.Features(f)
	}
	var out []Static
	extracted := map[string]bool{}
	for _, k := range f.Kernels() {
		if k.Body == nil {
			continue
		}
		// First definition wins on duplicate kernel names, matching
		// ir.Program.Func: mined files do redefine kernels, and the
		// AST-derived counts must describe the same definition the
		// IR-derived ones do.
		if extracted[k.Name] {
			continue
		}
		extracted[k.Name] = true
		s, err := extractKernel(f, k, prog)
		if err != nil {
			return nil, err
		}
		if precise {
			applyPrecise(&s, pf)
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("features: no kernels in file")
	}
	return out, nil
}

// Pair carries one kernel's static code-feature vector under both
// extraction modes, FeatureVec order — the payload of the
// feature-agreement journal events (journal.StageFeatures).
type Pair struct {
	Kernel     string
	Heur, Prec []float64
}

// Pairs extracts every kernel's features under both the heuristic and
// the precise mode, paired by kernel name.
func Pairs(f *clc.File) ([]Pair, error) {
	heur, err := ExtractFileMode(f, false)
	if err != nil {
		return nil, err
	}
	prec, err := ExtractFileMode(f, true)
	if err != nil {
		return nil, err
	}
	byName := make(map[string][]float64, len(prec))
	for _, s := range prec {
		byName[s.Kernel] = s.FeatureVec()
	}
	pairs := make([]Pair, 0, len(heur))
	for _, s := range heur {
		pv, ok := byName[s.Kernel]
		if !ok {
			continue
		}
		pairs = append(pairs, Pair{Kernel: s.Kernel, Heur: s.FeatureVec(), Prec: pv})
	}
	return pairs, nil
}

// PairsSource parses and checks src, then extracts Pairs.
func PairsSource(src string) ([]Pair, error) {
	f, err := clc.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("features: %w", err)
	}
	if err := clc.Check(f); err != nil {
		return nil, fmt.Errorf("features: %w", err)
	}
	return Pairs(f)
}

// applyPrecise overwrites the five heuristic code features with the
// analyzer's counts. Atomics and Instrs stay IR-derived: the rejection
// filter's instruction threshold and the atomics ablation are defined on
// the lowering, not the dataflow view.
func applyPrecise(s *Static, pf map[string]analysis.KernelFeatures) {
	kf, ok := pf[s.Kernel]
	if !ok {
		return
	}
	s.Comp = kf.Comp
	s.Mem = kf.Mem
	s.LocalMem = kf.LocalMem
	s.Coalesced = kf.Coalesced
	s.Branches = kf.Branches
}

// ExtractSource parses, checks, and extracts static features from source.
func ExtractSource(src string) ([]Static, error) {
	f, err := clc.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("features: %w", err)
	}
	if err := clc.Check(f); err != nil {
		return nil, fmt.Errorf("features: %w", err)
	}
	return ExtractFile(f)
}

// Version stamps cached feature vectors: extraction lowers through
// internal/ir, and precise mode additionally consults the analyzer, so
// both stamps participate. Exported so internal/corpus can compose it
// into its own cache versions (corpus outcomes embed feature vectors).
const Version = "features-v2|" + ir.Version + "|" + analysis.Version

var sourceMemo = cache.New(cache.Config[[]Static]{
	Name:    "features",
	Version: Version,
	Size:    func(s []Static) int { return 32 + 96*len(s) },
})

// ExtractSourceCached is ExtractSource behind the "features" memo —
// Static is plain data, so hits can share the stored slice as long as
// callers treat it as read-only (they do: vectors are value-copied into
// Measurements and keys). The extraction mode participates in the key:
// heuristic and precise vectors for one source coexist in the cache.
// Extraction errors (unparsable source) are never cached; hot paths
// filter before extracting, so misses that error are rare.
func ExtractSourceCached(src string) ([]Static, error) {
	key := cache.Key(fmt.Sprintf("precise=%t", Precise()), src)
	s, _, err := sourceMemo.Do(key, func() ([]Static, error) {
		return ExtractSource(src)
	})
	return s, err
}

// ExtractKernel computes the static features of one kernel in the
// process-global mode (heuristic, or precise under -precise-features).
func ExtractKernel(f *clc.File, k *clc.FuncDecl, prog *ir.Program) (Static, error) {
	s, err := extractKernel(f, k, prog)
	if err != nil {
		return s, err
	}
	if Precise() {
		applyPrecise(&s, analysis.Features(f))
	}
	return s, nil
}

// extractKernel computes the heuristic static features of one kernel. The
// kernel's callees contribute their counts once per call site, mirroring
// how the paper's feature extractor measured inlined code.
func extractKernel(f *clc.File, k *clc.FuncDecl, prog *ir.Program) (Static, error) {
	if prog == nil {
		prog = ir.Lower(f)
	}
	s := Static{Kernel: k.Name}
	seen := map[string]bool{}
	var accumulate func(name string)
	accumulate = func(name string) {
		if seen[name] {
			return // recursion guard; count once
		}
		seen[name] = true
		lf := prog.Func(name)
		if lf == nil {
			return
		}
		s.Comp += lf.Count(ir.OpALU) + lf.Count(ir.OpFPU)
		// __constant lives in the global memory system; counting it here
		// keeps Mem and countCoalesced (which classifies global and
		// constant accesses) drawn from the same access set.
		s.Mem += lf.CountMem(clc.Global) + lf.CountMem(clc.Constant)
		s.LocalMem += lf.CountMem(clc.Local)
		s.Branches += lf.Count(ir.OpBranch)
		s.Atomics += lf.Count(ir.OpAtomic)
		s.Instrs += len(lf.Instrs)
		// Recurse into user callees.
		fd := f.Function(name)
		if fd == nil || fd.Body == nil {
			return
		}
		clc.Walk(fd.Body, func(n clc.Node) bool {
			if call, ok := n.(*clc.CallExpr); ok {
				if f.Function(call.Fun) != nil {
					accumulate(call.Fun)
				}
			}
			return true
		})
	}
	accumulate(k.Name)
	// countCoalesced counts loads and stores from the same access set the
	// IR's Mem count covers, so Coalesced <= Mem holds by construction
	// (asserted in tests, not clamped).
	s.Coalesced = countCoalesced(f, k)
	return s, nil
}

// countCoalesced counts global memory accesses whose index is affine in
// get_global_id(0) with unit stride — consecutive work-items touch
// consecutive elements, which coalesce on GPU memory systems.
func countCoalesced(f *clc.File, k *clc.FuncDecl) int {
	ca := &coalesceAnalysis{
		f:      f,
		gidVar: map[string]bool{},
		params: map[string]bool{},
	}
	for _, p := range k.Params {
		ca.params[p.Name] = true
	}
	// First pass: find variables assigned get_global_id(0)-affine values
	// with unit coefficient, e.g. "int i = get_global_id(0);" or
	// "int i = get_global_id(0) + base;".
	clc.Walk(k.Body, func(n clc.Node) bool {
		switch x := n.(type) {
		case *clc.DeclStmt:
			for _, d := range x.Decls {
				if d.Init != nil && ca.isUnitGid(d.Init) {
					ca.gidVar[d.Name] = true
				}
			}
		case *clc.AssignExpr:
			if id, ok := x.X.(*clc.Ident); ok && x.Op == clc.ASSIGN && ca.isUnitGid(x.Y) {
				ca.gidVar[id.Name] = true
			}
		}
		return true
	})
	// Second pass: count global-pointer index expressions that are
	// unit-affine in the gid. A compound assignment target (a[i] += x) is
	// both a load and a store, so it weighs twice — matching how the IR
	// counts raw accesses. &a[i] lowers to an address computation (lea)
	// with no memory access, so those targets are skipped; sizeof operands
	// are never lowered at all. Both exclusions keep every counted site
	// backed by a load or store the IR's Mem count covers, so
	// Coalesced <= Mem by construction.
	weight2 := map[*clc.IndexExpr]bool{}
	lea := map[*clc.IndexExpr]bool{}
	clc.Walk(k.Body, func(n clc.Node) bool {
		switch x := n.(type) {
		case *clc.AssignExpr:
			if x.Op != clc.ASSIGN {
				if ix, ok := x.X.(*clc.IndexExpr); ok {
					weight2[ix] = true
				}
			}
		case *clc.UnaryExpr:
			if x.Op == clc.AND {
				if ix, ok := x.X.(*clc.IndexExpr); ok {
					lea[ix] = true
				}
			}
		}
		return true
	})
	count := 0
	clc.Walk(k.Body, func(n clc.Node) bool {
		if _, isSizeof := n.(*clc.SizeofExpr); isSizeof {
			return false // compile-time constant: operand is never lowered
		}
		ix, ok := n.(*clc.IndexExpr)
		if !ok {
			return true
		}
		if lea[ix] {
			return true
		}
		pt, isPtr := ix.X.ExprType().(*clc.PointerType)
		if !isPtr || (pt.Space != clc.Global && pt.Space != clc.Constant) {
			return true
		}
		if ca.isUnitGid(ix.Index) {
			count++
			if weight2[ix] {
				count++
			}
		}
		return true
	})
	return count
}

type coalesceAnalysis struct {
	f      *clc.File
	gidVar map[string]bool
	params map[string]bool
}

// isUnitGid reports whether e evaluates to get_global_id(0) plus a value
// that is constant across work-items (literals, kernel scalar parameters).
func (ca *coalesceAnalysis) isUnitGid(e clc.Expr) bool {
	switch x := e.(type) {
	case *clc.CallExpr:
		if x.Fun != "get_global_id" || len(x.Args) != 1 {
			return false
		}
		d, ok := clc.ConstIntValue(x.Args[0])
		return ok && d == 0
	case *clc.Ident:
		return ca.gidVar[x.Name]
	case *clc.BinaryExpr:
		switch x.Op {
		case clc.ADD:
			return (ca.isUnitGid(x.X) && ca.isUniform(x.Y)) ||
				(ca.isUniform(x.X) && ca.isUnitGid(x.Y))
		case clc.SUB:
			return ca.isUnitGid(x.X) && ca.isUniform(x.Y)
		}
		return false
	case *clc.CastExpr:
		return ca.isUnitGid(x.X)
	}
	return false
}

// isUniform reports whether e has the same value for every work-item.
func (ca *coalesceAnalysis) isUniform(e clc.Expr) bool {
	switch x := e.(type) {
	case *clc.IntLit, *clc.FloatLit, *clc.CharLit:
		return true
	case *clc.Ident:
		// Scalar kernel parameters are uniform; gid-derived variables are
		// not. Anything else is unknown — be conservative.
		if ca.gidVar[x.Name] {
			return false
		}
		return ca.params[x.Name]
	case *clc.BinaryExpr:
		return ca.isUniform(x.X) && ca.isUniform(x.Y)
	case *clc.CastExpr:
		return ca.isUniform(x.X)
	case *clc.CallExpr:
		switch x.Fun {
		case "get_global_size", "get_local_size", "get_num_groups", "get_work_dim":
			return true
		}
		return false
	case *clc.SizeofExpr:
		return true
	}
	return false
}
