package interp

import (
	"errors"
	"fmt"
	"strings"

	"clgen/internal/clc"
)

// Profile aggregates dynamic execution statistics across a kernel run.
// Vector operations count one event per lane, so a float4 add contributes
// 4 to FloatOps. The platform performance models consume these counters.
type Profile struct {
	WorkItems    int64
	IntOps       int64
	FloatOps     int64
	GlobalLoads  int64
	GlobalStores int64
	LocalLoads   int64
	LocalStores  int64
	PrivateOps   int64
	Branches     int64
	Barriers     int64
	Atomics      int64
	// Steps is the execution budget the launch consumed: one per executed
	// statement, loop iteration and expression node. A launch that ran
	// out of budget reports MaxSteps+1.
	Steps int64
}

// Scale multiplies every counter by f. Used to extrapolate a profile
// measured at a reduced execution size to the nominal dataset size of a
// data-parallel kernel (per-work-item cost constant in the subset's suite
// kernels, so the extrapolation is exact for them).
func (p *Profile) Scale(f float64) {
	p.WorkItems = int64(float64(p.WorkItems) * f)
	p.IntOps = int64(float64(p.IntOps) * f)
	p.FloatOps = int64(float64(p.FloatOps) * f)
	p.GlobalLoads = int64(float64(p.GlobalLoads) * f)
	p.GlobalStores = int64(float64(p.GlobalStores) * f)
	p.LocalLoads = int64(float64(p.LocalLoads) * f)
	p.LocalStores = int64(float64(p.LocalStores) * f)
	p.PrivateOps = int64(float64(p.PrivateOps) * f)
	p.Branches = int64(float64(p.Branches) * f)
	p.Barriers = int64(float64(p.Barriers) * f)
	p.Atomics = int64(float64(p.Atomics) * f)
	p.Steps = int64(float64(p.Steps) * f)
}

// GlobalMemOps returns total global memory operations.
func (p *Profile) GlobalMemOps() int64 { return p.GlobalLoads + p.GlobalStores }

// LocalMemOps returns total local (shared) memory operations.
func (p *Profile) LocalMemOps() int64 { return p.LocalLoads + p.LocalStores }

// ComputeOps returns total arithmetic operations.
func (p *Profile) ComputeOps() int64 { return p.IntOps + p.FloatOps }

// Env is a prepared translation unit: file-scope constants evaluated and
// every function body compiled. An Env is immutable after construction
// and safe to reuse across runs.
type Env struct {
	File    *clc.File
	funcs   map[string]*function
	globals map[string]Value
	consts  map[string]*Pointer // __constant / file-scope arrays
	// usesBarrier records, per function, whether its call graph can reach a
	// barrier; kernels that cannot take the fast sequential path.
	usesBarrier map[string]bool
	// locals numbers the __local array declarations in function bodies,
	// once for both of a function's compilations.
	locals map[*clc.VarDecl]int
}

// NewEnv prepares a checked file for execution. Compilation never fails:
// a construct the interpreter cannot run raises its error when executed.
func NewEnv(f *clc.File) (*Env, error) { return newEnv(f, true) }

// newEnv is NewEnv; without park, every barrier kernel's work-items run
// as goroutines.
func newEnv(f *clc.File, park bool) (*Env, error) {
	env := &Env{
		File:        f,
		funcs:       map[string]*function{},
		globals:     map[string]Value{},
		consts:      map[string]*Pointer{},
		usesBarrier: map[string]bool{},
		locals:      map[*clc.VarDecl]int{},
	}
	for _, fd := range f.Functions() {
		// The first definition of a name wins, as in clc.File.Function,
		// which the driver and the static analyses resolve through.
		if _, dup := env.funcs[fd.Name]; fd.Body != nil && !dup {
			env.funcs[fd.Name] = &function{decl: fd, env: env}
			clc.Walk(fd.Body, func(n clc.Node) bool {
				if d, ok := n.(*clc.VarDecl); ok && d.Space == clc.Local {
					if _, isArr := d.Type.(*clc.ArrayType); isArr {
						env.locals[d] = len(env.locals)
					}
				}
				return true
			})
		}
	}
	for _, d := range f.Decls {
		vd, ok := d.(*clc.VarDecl)
		if !ok {
			continue
		}
		if err := env.initGlobal(vd); err != nil {
			return nil, err
		}
	}
	for name := range env.funcs {
		env.usesBarrier[name] = env.reachesBarrier(name, map[string]bool{})
	}
	for name, fn := range env.funcs {
		if park && fn.decl.IsKernel && env.usesBarrier[name] {
			fn.parks = env.barrierPath(fn.decl.Body)
		}
	}
	cp := &compiler{env: env, typed: true}
	for _, fd := range f.Functions() {
		if fn := env.funcs[fd.Name]; fn != nil && fn.decl == fd {
			cp.compileFunction(fn)
		}
	}
	return env, nil
}

func (env *Env) initGlobal(vd *clc.VarDecl) error {
	if at, ok := vd.Type.(*clc.ArrayType); ok {
		buf := NewBuffer(elemKind(at), int(scalarSlots(at)), vd.Space)
		if il, ok := vd.Init.(*clc.InitList); ok {
			if err := fillBufferFromInitList(buf, il, 0); err != nil {
				return fmt.Errorf("initializing %s: %w", vd.Name, err)
			}
		}
		// The name decays to a pointer typed by its first array
		// declaration.
		var elem clc.Type = clc.TypeInt
		for _, d := range env.File.Decls {
			if first, ok := d.(*clc.VarDecl); ok && first.Name == vd.Name {
				if fat, ok := first.Type.(*clc.ArrayType); ok {
					elem = fat.Elem
					break
				}
			}
		}
		env.consts[vd.Name] = &Pointer{Buf: buf, Elem: elem}
		return nil
	}
	v := ZeroValue(vd.Type)
	if vd.Init != nil {
		cv, err := evalConstExpr(vd.Init, env)
		if err != nil {
			return fmt.Errorf("initializing %s: %w", vd.Name, err)
		}
		conv, err := Convert(cv, vd.Type)
		if err != nil {
			return fmt.Errorf("initializing %s: %w", vd.Name, err)
		}
		v = conv
	}
	env.globals[vd.Name] = v
	return nil
}

func elemKind(t clc.Type) clc.ScalarKind {
	switch x := t.(type) {
	case *clc.ScalarType:
		return x.Kind
	case *clc.VectorType:
		return x.Elem
	case *clc.ArrayType:
		return elemKind(x.Elem)
	case *clc.PointerType:
		return elemKind(x.Elem)
	}
	return clc.Int
}

func fillBufferFromInitList(buf *Buffer, il *clc.InitList, off int64) error {
	pos := off
	for _, e := range il.Elems {
		if nested, ok := e.(*clc.InitList); ok {
			if err := fillBufferFromInitList(buf, nested, pos); err != nil {
				return err
			}
			// Advance by the nested element count (flattened).
			pos += int64(countInitScalars(nested))
			continue
		}
		v, err := evalConstExpr(e, nil)
		if err != nil {
			return err
		}
		c := ConvertScalar(v, buf.Kind)
		if err := buf.storeScalar(pos, c.i, c.f); err != nil {
			return err
		}
		pos++
	}
	return nil
}

func countInitScalars(il *clc.InitList) int {
	n := 0
	for _, e := range il.Elems {
		if nested, ok := e.(*clc.InitList); ok {
			n += countInitScalars(nested)
		} else {
			n++
		}
	}
	return n
}

// evalConstExpr evaluates file-scope constant initializers: literals,
// predeclared constants, and arithmetic over them.
func evalConstExpr(e clc.Expr, env *Env) (Value, error) {
	switch x := e.(type) {
	case *clc.IntLit:
		return IntValue(clc.Long, x.Value), nil
	case *clc.FloatLit:
		kind := clc.Double
		if strings.ContainsAny(x.Text, "fF") {
			kind = clc.Float
		}
		return FloatValue(kind, x.Value), nil
	case *clc.CharLit:
		return IntValue(clc.Char, x.Value), nil
	case *clc.Ident:
		if f, ok := clc.PredeclaredValue(x.Name); ok {
			return FloatValue(clc.Double, f), nil
		}
		if env != nil {
			if v, ok := env.globals[x.Name]; ok {
				return v, nil
			}
		}
		return Value{}, fmt.Errorf("non-constant identifier %q in constant expression", x.Name)
	case *clc.UnaryExpr:
		v, err := evalConstExpr(x.X, env)
		if err != nil {
			return Value{}, err
		}
		return unaryOp(x.Op, v)
	case *clc.BinaryExpr:
		a, err := evalConstExpr(x.X, env)
		if err != nil {
			return Value{}, err
		}
		b, err := evalConstExpr(x.Y, env)
		if err != nil {
			return Value{}, err
		}
		return binaryOp(x.Op, a, b)
	case *clc.CastExpr:
		v, err := evalConstExpr(x.X, env)
		if err != nil {
			return Value{}, err
		}
		return Convert(v, x.To)
	}
	return Value{}, fmt.Errorf("unsupported constant expression %T", e)
}

// reachesBarrier reports whether fn can execute a barrier.
func (env *Env) reachesBarrier(fn string, visiting map[string]bool) bool {
	if visiting[fn] {
		return false
	}
	visiting[fn] = true
	f, ok := env.funcs[fn]
	if !ok {
		return false
	}
	found := false
	clc.Walk(f.decl.Body, func(n clc.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*clc.CallExpr); ok {
			if b := clc.LookupBuiltin(call.Fun); b != nil && b.Sync {
				found = true
				return false
			}
			if _, user := env.funcs[call.Fun]; user && env.reachesBarrier(call.Fun, visiting) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// barrierPath returns the statements of a kernel body on a path to one of
// its barriers, if its work-items can park at every barrier they reach
// (run.go): each is an expression statement of the body nested only in
// blocks, if branches and loop bodies. A barrier reached through a user
// function, in a switch case, in a for initializer or inside an
// expression makes it return nil, since resuming there needs the Go stack.
func (env *Env) barrierPath(body *clc.BlockStmt) map[clc.Stmt]bool {
	path, unplaced := map[clc.Stmt]bool{}, 0
	var visit func(s clc.Stmt) bool
	visit = func(s clc.Stmt) (on bool) {
		switch x := s.(type) {
		case *clc.ExprStmt:
			on = env.isBarrier(x.X)
		case *clc.BlockStmt:
			for _, st := range x.Stmts {
				on = visit(st) || on
			}
		case *clc.IfStmt:
			on = visit(x.Then)
			if x.Else != nil {
				on = visit(x.Else) || on
			}
		case *clc.ForStmt:
			on = visit(x.Body)
		case *clc.WhileStmt:
			on = visit(x.Body)
		case *clc.DoWhileStmt:
			on = visit(x.Body)
		}
		if on {
			path[s] = true
		}
		return on
	}
	visit(body)
	clc.Walk(body, func(n clc.Node) bool {
		if x, ok := n.(*clc.ExprStmt); ok && path[x] {
			unplaced--
		} else if call, ok := n.(*clc.CallExpr); ok {
			if env.isBarrier(call) || env.usesBarrier[call.Fun] {
				unplaced++
			}
		}
		return true
	})
	if unplaced > 0 {
		return nil
	}
	return path
}

// isBarrier reports whether e calls the barrier builtin.
func (env *Env) isBarrier(e clc.Expr) bool {
	call, ok := e.(*clc.CallExpr)
	if !ok || call.Fun != "barrier" && call.Fun != "work_group_barrier" {
		return false
	}
	_, user := env.funcs[call.Fun]
	return !user
}

// Kernel returns the kernel declaration with the given name, or an error.
func (env *Env) Kernel(name string) (*clc.FuncDecl, error) {
	fn, ok := env.funcs[name]
	if !ok || !fn.decl.IsKernel {
		return nil, fmt.Errorf("interp: no kernel %q", name)
	}
	return fn.decl, nil
}

// Kernels lists the kernel names in declaration order.
func (env *Env) Kernels() []string {
	var names []string
	for _, fd := range env.File.Kernels() {
		if fd.Body != nil {
			names = append(names, fd.Name)
		}
	}
	return names
}

// Errors reported by kernel execution.
var (
	// ErrStepLimit reports that a run exceeded its execution budget —
	// the interpreter's analogue of the host driver's timeout (§5.2).
	ErrStepLimit = errors.New("interp: step limit exceeded (possible non-termination)")
	// ErrBarrierDivergence reports work-items of one group disagreeing on
	// barrier participation, which is undefined behaviour in OpenCL.
	ErrBarrierDivergence = errors.New("interp: barrier divergence within work-group")
)

// RunConfig describes one NDRange launch.
type RunConfig struct {
	// GlobalSize is the number of work-items per dimension; unused
	// dimensions must be 1. The zero value of a dimension is treated as 1.
	GlobalSize [3]int
	// LocalSize is the work-group size per dimension. Zero dimensions
	// default to min(GlobalSize, 64) on dimension 0 and 1 elsewhere.
	LocalSize [3]int
	// MaxSteps bounds total dynamic statements+expressions evaluated across
	// the launch; 0 means DefaultMaxSteps.
	MaxSteps int64
}

// DefaultMaxSteps is the default execution budget for one launch.
const DefaultMaxSteps = 64 << 20

func (c *RunConfig) normalize() error {
	for i := 0; i < 3; i++ {
		if c.GlobalSize[i] <= 0 {
			c.GlobalSize[i] = 1
		}
	}
	if c.LocalSize[0] <= 0 {
		c.LocalSize[0] = 64
		if c.GlobalSize[0] < 64 {
			c.LocalSize[0] = c.GlobalSize[0]
		}
	}
	for i := 1; i < 3; i++ {
		if c.LocalSize[i] <= 0 {
			c.LocalSize[i] = 1
		}
	}
	for i := 0; i < 3; i++ {
		if c.GlobalSize[i]%c.LocalSize[i] != 0 {
			return fmt.Errorf("interp: global size %d not divisible by local size %d in dim %d",
				c.GlobalSize[i], c.LocalSize[i], i)
		}
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = DefaultMaxSteps
	}
	return nil
}
