package interp_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"clgen/internal/clc"
	"clgen/internal/interp"
	"clgen/internal/suites"
)

// fuzzSteps is FuzzRun's budget per launch.
const fuzzSteps = 1 << 14

// Argument variants of FuzzRun: the arguments a kernel declares, and
// arguments that break the typed compilation's entry guards or exercise
// its load and store conversions.
const (
	argsDeclared   = iota
	argsPtrScalars // every scalar parameter passed a pointer
	argsOtherElem  // every pointer to a scalar claims the other kind (int, float)
	argsOtherBuf   // every buffer holds the other kind under the declared pointee
	argVariants
)

// FuzzRun executes every input that parses and type-checks, each of its
// kernels on a small NDRange and budget, with the arguments variant
// selects. The invariants: no Go panic; a launch that consumed more than
// its budget (Profile.Steps) failed with ErrStepLimit, and one that failed
// with ErrStepLimit consumed exactly one step past it; every work-item
// goroutine of a lockstep launch has exited once Run returns; the typed
// compilation, the untyped one (NewUntypedEnv) and work-item goroutines in
// place of parking (NewGoroutineEnv) agree on every buffer, MaxSlot, the
// whole Profile and the error's text, class and fault; and BoundSteps
// holds: its bound is at most the steps of a launch the budget did not
// stop, a launch it proves free of other errors ends with none or with
// ErrStepLimit, and one it proves to run out fails with ErrStepLimit after
// exactly fuzzSteps+1 steps.
func FuzzRun(f *testing.F) {
	for _, b := range suites.All() {
		f.Add(b.Src, uint8(argsDeclared))
	}
	for _, path := range []string{"interp_test.go", "park_test.go", "bound_test.go", "arena_test.go"} {
		for _, src := range fixtureKernels(f, path) {
			for v := range uint8(argVariants) {
				f.Add(src, v)
			}
		}
	}
	f.Add(`__kernel void A(__global int* a) {
  int x = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17};
  a[0] = x;
}`, uint8(argsDeclared))
	f.Fuzz(func(t *testing.T, src string, variant uint8) {
		if len(src) > 1<<12 {
			return
		}
		file, err := clc.Parse(src)
		if err != nil || clc.Check(file) != nil {
			return
		}
		env, err := interp.NewEnv(file)
		if err != nil {
			return
		}
		plain, err := interp.NewUntypedEnv(file)
		if err != nil {
			t.Fatalf("NewEnv succeeded, NewUntypedEnv failed: %v", err)
		}
		goroutines, err := interp.NewGoroutineEnv(file)
		if err != nil {
			t.Fatalf("NewEnv succeeded, NewGoroutineEnv failed: %v", err)
		}
		cfg := interp.RunConfig{GlobalSize: [3]int{8, 1, 1}, LocalSize: [3]int{4, 1, 1}, MaxSteps: fuzzSteps}
		for _, name := range env.Kernels() {
			fd, err := env.Kernel(name)
			if err != nil {
				continue
			}
			args, ok := fuzzArgs(fd, variant%argVariants)
			if !ok {
				continue
			}
			bound := env.BoundSteps(name, args, cfg)
			before := runtime.NumGoroutine()
			prof, err := env.Run(name, args, cfg)
			limit := errors.Is(err, interp.ErrStepLimit)
			if prof != nil {
				if prof.Steps > fuzzSteps && !limit {
					t.Errorf("%s: consumed %d steps of %d without ErrStepLimit (err %v)", name, prof.Steps, fuzzSteps, err)
				}
				if limit && prof.Steps != fuzzSteps+1 {
					t.Errorf("%s: ErrStepLimit after %d steps, want %d", name, prof.Steps, fuzzSteps+1)
				}
				if !limit && bound.Steps > prof.Steps {
					t.Errorf("%s: bound %d exceeds the %d steps of the launch", name, bound.Steps, prof.Steps)
				}
			}
			if bound.Safe && err != nil && !limit {
				t.Errorf("%s: proven free of other errors, failed with %v", name, err)
			}
			if bound.RunsOut() && !limit {
				t.Errorf("%s: proven to run out (bound %d), ended with %v", name, bound.Steps, err)
			}
			got := outcome(name, prof, err, args)
			plainArgs, _ := fuzzArgs(fd, variant%argVariants)
			plainProf, plainErr := plain.Run(name, plainArgs, cfg)
			for _, d := range diffRecords(got, outcome(name, plainProf, plainErr, plainArgs)) {
				t.Errorf("%s: typed %s (untyped)", name, d)
			}
			goArgs, _ := fuzzArgs(fd, variant%argVariants)
			goProf, goErr := goroutines.Run(name, goArgs, cfg)
			for _, d := range diffRecords(got, outcome(name, goProf, goErr, goArgs)) {
				t.Errorf("%s: parked %s (goroutines)", name, d)
			}
			if n := settledGoroutines(before); n > before {
				t.Errorf("%s: %d goroutines after the launches, %d before", name, n, before)
			}
		}
	})
}

// settledGoroutines waits briefly for exiting goroutines to finish and
// returns the goroutine count.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// fuzzArgs builds small arguments for a kernel in the given variant:
// 64-element buffers with fixed contents and small scalars. Kernels with
// struct or nested pointer parameters are skipped.
func fuzzArgs(fd *clc.FuncDecl, variant uint8) ([]interp.Value, bool) {
	args := make([]interp.Value, len(fd.Params))
	for i, p := range fd.Params {
		switch t := p.Type.(type) {
		case *clc.PointerType:
			kind, per, elem := clc.ScalarKind(0), 1, t.Elem
			switch e := t.Elem.(type) {
			case *clc.ScalarType:
				kind = e.Kind
				if variant == argsOtherElem {
					elem = &clc.ScalarType{Kind: otherKind(kind)}
				}
			case *clc.VectorType:
				kind, per = e.Elem, e.Len
			default:
				return nil, false
			}
			if variant == argsOtherBuf {
				kind = otherKind(kind)
			}
			buf := interp.NewBuffer(kind, 64*per, t.Space)
			for j := range buf.F {
				buf.F[j] = float64(j%7) - 2.5
			}
			for j := range buf.I {
				buf.I[j] = int64(j % 5)
			}
			args[i] = interp.PtrValue(&interp.Pointer{Buf: buf, Elem: elem})
		case *clc.ScalarType:
			switch {
			case variant == argsPtrScalars:
				buf := interp.NewBuffer(clc.Int, 64, clc.Global)
				args[i] = interp.PtrValue(&interp.Pointer{Buf: buf, Off: 3, Elem: clc.TypeInt})
			case t.Kind.IsFloat():
				args[i] = interp.FloatValue(t.Kind, 1.5)
			default:
				args[i] = interp.IntValue(t.Kind, 4)
			}
		case *clc.VectorType:
			args[i] = interp.Splat(interp.IntValue(clc.Int, 3), t.Elem, t.Len)
		default:
			return nil, false
		}
	}
	return args, true
}

// otherKind swaps integer and float scalar kinds.
func otherKind(k clc.ScalarKind) clc.ScalarKind {
	if k.IsFloat() {
		return clc.Int
	}
	return clc.Float
}

// fixtureKernels returns the kernel sources written as raw string
// literals in a test file of this package.
func fixtureKernels(tb testing.TB, path string) []string {
	tb.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING || !strings.HasPrefix(lit.Value, "`") {
			return true
		}
		if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, "__kernel") {
			out = append(out, s)
		}
		return true
	})
	if len(out) == 0 {
		tb.Fatalf("no kernel fixtures in %s", path)
	}
	return out
}
