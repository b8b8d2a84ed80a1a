package interp

import (
	"errors"
	"fmt"
	"sync"

	"clgen/internal/clc"
)

// Kernels are compiled once per Env into Go closures over slot-indexed
// frames (Feeley & Lapalme, "Using closures for code generation", 1987).
// Names, callees, builtins, compound operators and swizzle lanes resolve
// at compile time. At run time a launch spends one unit of budget per
// executed statement, loop iteration and expression node, evaluating
// operands in source order: the step-accounting contract of DESIGN.md §7.
//
// A kernel whose every barrier is a statement of its own body nested only
// in blocks, if branches and loop bodies (Env.barrierPath) compiles the
// statements on a path to a barrier park-aware. A work-item parks by
// returning ctrlBarrier from its body: each block on the way records the
// statement that parked, each if its branch, in frame slots of their own.
// It resumes by re-entering the body on its kept frame with resuming set:
// the statements on the recorded path skip their unit of budget, their
// test and their scope-cell reset and jump to the recorded position, and
// the barrier statement clears resuming.

// errCancelled unwinds work-item goroutines after another item failed.
var errCancelled = errors.New("interp: cancelled")

// ctrl is the statement-level control-flow signal.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
	ctrlBarrier // parked at a barrier statement
)

type (
	evalFn func(c *wiCtx) (Value, error)
	execFn func(c *wiCtx) (ctrl, error)
	lvalFn func(c *wiCtx) (loc, error)
)

// slot is the storage of one variable in a frame.
type slot struct {
	val Value
	buf *Buffer  // non-nil for array variables and boxed scalars
	ptr *Pointer // the decayed pointer to buf's first element
	// boxed marks a scalar or vector variable whose address was taken: its
	// value lives in buf (a one-element private array) so that accesses
	// through the pointer and by name see the same storage.
	boxed bool
}

// load reads the variable's value, a boxed vector's lanes from ar. Reads
// of a boxed variable by name do not count as memory operations.
func (s *slot) load(ar *arena) (Value, error) {
	if s.boxed {
		return load(ar, s.buf, 0, s.ptr.Elem)
	}
	return s.val, nil
}

// read evaluates the variable by name: an array decays to a pointer to
// its first element.
func (s *slot) read(ar *arena) (Value, error) {
	if s.buf == nil {
		return s.val, nil
	}
	if s.boxed {
		return s.load(ar)
	}
	return Value{Ptr: s.ptr}, nil
}

// store writes an already-converted value into the variable.
func (s *slot) store(v Value) error {
	if s.boxed {
		return store(s.buf, 0, v, s.ptr.Elem)
	}
	s.val = v
	return nil
}

// wiCtx is the execution context of a work-item. Sequential launches
// reuse one context, its frames and its lane arena, for every work-item.
type wiCtx struct {
	// ids answers the work-item queries, indexed like queries: the
	// global, local and group ids, then the global size, local size and
	// group count.
	ids    [6][3]int64
	prof   *Profile
	budget int64        // the launch's budget while the work-item runs
	yield  func() error // barrier handoff of a work-item goroutine, or nil
	// resuming marks a parked work-item re-entering its kernel, until it
	// is past the barrier it parked at.
	resuming bool

	// locals holds the work-group's __local arrays declared in function
	// bodies, by declaration; all work-items of a group share it.
	locals []*Pointer

	frame  []slot   // the running function's variables
	frames [][]slot // frame storage by call depth
	vals   []Value  // evaluated call arguments
	retVal Value
	depth  int
	// arena holds the lanes of the Value-path vectors the work-item
	// builds; nil on the lockstep paths, whose work-items build them on the
	// heap.
	arena *arena
	// tmp is the stack of the statically kinded vectors' temporaries
	// (kinds.go), empty between expressions.
	tmp []lane
}

const maxCallDepth = 64

// forget clears every value c's frames, argument stack and return value
// hold, keeping their storage and the lane arena, so that a recycled
// context keeps nothing of its launch alive.
func (c *wiCtx) forget() {
	for _, fr := range c.frames {
		clear(fr[:cap(fr)])
	}
	clear(c.vals[:cap(c.vals)])
	c.vals, c.frame, c.depth, c.resuming, c.tmp = c.vals[:0], nil, 0, false, c.tmp[:0]
	c.prof, c.locals, c.retVal = nil, nil, Value{}
}

func (c *wiCtx) step() error {
	c.budget--
	if c.budget < 0 {
		return ErrStepLimit
	}
	return nil
}

// countMem records a memory access against the profile.
func (c *wiCtx) countMem(space clc.AddrSpace, width int, store bool) {
	n := int64(max(width, 1))
	switch space {
	case clc.Global, clc.Constant:
		if store {
			c.prof.GlobalStores += n
		} else {
			c.prof.GlobalLoads += n
		}
	case clc.Local:
		if store {
			c.prof.LocalStores += n
		} else {
			c.prof.LocalLoads += n
		}
	default:
		c.prof.PrivateOps += n
	}
}

func (c *wiCtx) countArith(kind clc.ScalarKind, width int) {
	if kind.IsFloat() {
		c.prof.FloatOps += int64(max(width, 1))
	} else {
		c.prof.IntOps += int64(max(width, 1))
	}
}

// function is a compiled function: its body runs in a frame of nslots
// variables whose first len(decl.Params) slots hold the arguments. body is
// compiled with static kinds (kinds.go) for arguments that meet guards.
type function struct {
	decl   *clc.FuncDecl
	env    *Env
	nslots int
	body   execFn
	guards []guard
	// parks holds, for a kernel whose work-items park at barriers, the
	// statements on a path to a barrier; nil for any other function.
	parks map[clc.Stmt]bool
	// plainFn is the function compiled without static kinds, made by
	// plain on first need.
	plainOnce sync.Once
	plainFn   *function
}

// call runs the user function f with the given arguments in a frame of
// its own.
func (c *wiCtx) call(f *function, args []Value) (Value, error) {
	if !f.admits(args) {
		f = f.plain()
	}
	ct, err := c.enter(f, args, nil)
	if err != nil || ct != ctrlReturn {
		return Value{}, err
	}
	return c.retVal, nil
}

// enter runs f's body in the frame at the next call depth: a copy of
// image when it is non-nil (a launch's kernel), else a cleared frame
// binding args, or, for a resuming work-item, the frame its kernel parked
// in.
func (c *wiCtx) enter(f *function, args []Value, image []slot) (ctrl, error) {
	if c.depth >= maxCallDepth {
		return ctrlNone, fmt.Errorf("interp: call depth limit in %q", f.decl.Name)
	}
	c.depth++
	for len(c.frames) <= c.depth {
		c.frames = append(c.frames, nil)
	}
	saved := c.frame
	c.frame = c.frames[c.depth]
	var err error
	switch {
	case c.resuming:
	case image != nil:
		copy(c.frameOf(len(image)), image)
		c.retVal = Value{}
	default:
		err = c.bindArgs(f, args)
	}
	ct := ctrlNone
	if err == nil {
		ct, err = f.body(c)
	}
	c.frame = saved
	c.depth--
	return ct, err
}

// frameOf makes the frame at the current depth n slots long, keeping its
// storage and contents where it is long enough.
func (c *wiCtx) frameOf(n int) []slot {
	fr := c.frame
	if cap(fr) < n {
		fr = make([]slot, n)
	} else {
		fr = fr[:n]
	}
	c.frames[c.depth], c.frame = fr, fr
	return fr
}

// bindArgs gives f a cleared frame at the current depth holding the
// arguments, converted to their parameters' types.
func (c *wiCtx) bindArgs(f *function, args []Value) error {
	clear(c.frameOf(f.nslots))
	c.retVal = Value{}
	return bindParams(c.arena, f.decl, args, c.frame)
}

// bindParams stores args in the first slots of fr, each converted to its
// parameter's type with lanes from ar.
func bindParams(ar *arena, fd *clc.FuncDecl, args []Value, fr []slot) error {
	if len(args) != len(fd.Params) {
		return fmt.Errorf("interp: %q called with %d args, want %d", fd.Name, len(args), len(fd.Params))
	}
	for i, p := range fd.Params {
		v := args[i]
		if !v.IsPointer() {
			conv, err := convert(ar, v, p.Type)
			if err != nil {
				return fmt.Errorf("interp: argument %d of %q: %w", i, fd.Name, err)
			}
			v = conv
		}
		fr[i] = slot{val: v}
	}
	return nil
}

// evalArgs evaluates call arguments onto the context's value stack. The
// caller truncates the stack back to base when done with them.
func (c *wiCtx) evalArgs(args []evalFn) (vals []Value, base int, err error) {
	base = len(c.vals)
	for _, a := range args {
		v, err := a(c)
		if err != nil {
			c.vals = c.vals[:base]
			return nil, base, err
		}
		c.vals = append(c.vals, v)
	}
	return c.vals[base:], base, nil
}

// scope is a compile-time scope: the parameters, a block, a for statement
// or a switch body. A name a declaration binds on every path through the
// scope resolves to its frame slot at compile time. A declaration that
// only some paths execute (the bare body of an if or loop, or a switch
// case) binds its name into the enclosing scope only once it executes:
// such a name has a cell, a frame slot holding 1 + the slot of the
// declaration last executed in the scope's current instance, or 0.
type scope struct {
	names map[string]int // frame slots of names every path binds, so far
	cells map[string]int
}

// compiler turns one function body into closures, typed or plain.
type compiler struct {
	env       *Env
	typed     bool
	scopes    []scope
	nslots    int
	uncertain map[clc.Node]map[string]bool // per scope node, names with cells
	// vars and ptrs are the function's statically kinded variables and
	// pointer parameters (their pointee's shape), found by inferKinds.
	vars, ptrs map[string]shape
	parks      map[clc.Stmt]bool // the statements to compile park-aware
}

// mark allocates a frame slot in which a park-aware statement records
// where its work-item parked.
func (cp *compiler) mark() int {
	cp.nslots++
	return cp.nslots - 1
}

// push opens the scope of node and returns its cells, which are reset
// whenever the scope is entered.
func (cp *compiler) push(node clc.Node) []int {
	s := scope{names: map[string]int{}, cells: map[string]int{}}
	var cells []int
	for name := range cp.uncertain[node] {
		s.cells[name] = cp.nslots
		cells = append(cells, cp.nslots)
		cp.nslots++
	}
	cp.scopes = append(cp.scopes, s)
	return cells
}

func (cp *compiler) pop() { cp.scopes = cp.scopes[:len(cp.scopes)-1] }

// ref is a name's resolution at one program point: cells to consult,
// innermost first, then the slot every path bound, if any.
type ref struct {
	cells []int
	idx   int
	bound bool
}

func (cp *compiler) lookup(name string) ref {
	var r ref
	for i := len(cp.scopes) - 1; i >= 0; i-- {
		if cell, ok := cp.scopes[i].cells[name]; ok {
			r.cells = append(r.cells, cell)
		} else if idx, ok := cp.scopes[i].names[name]; ok {
			r.idx, r.bound = idx, true
			break
		}
	}
	return r
}

// slot returns the variable r names in c's frame, or nil.
func (r *ref) slot(c *wiCtx) *slot {
	for _, cell := range r.cells {
		if k := c.frame[cell].val.i; k > 0 {
			return &c.frame[k-1]
		}
	}
	if r.bound {
		return &c.frame[r.idx]
	}
	return nil
}

// bind gives a declaration of name the next frame slot. cell is the
// name's cell in the current scope, or -1.
func (cp *compiler) bind(name string) (idx, cell int) {
	idx = cp.nslots
	cp.nslots++
	s := cp.scopes[len(cp.scopes)-1]
	if cell, ok := s.cells[name]; ok {
		return idx, cell
	}
	s.names[name] = idx
	return idx, -1
}

// declare stores a declared variable and records its binding.
func (c *wiCtx) declare(idx, cell int, s slot) {
	c.frame[idx] = s
	if cell >= 0 {
		c.frame[cell].val.i = int64(idx + 1)
	}
}

// entering resets a scope's cells before run, unless a work-item resumes
// into the scope.
func entering(cells []int, run execFn) execFn {
	if len(cells) == 0 {
		return run
	}
	return func(c *wiCtx) (ctrl, error) {
		if !c.resuming {
			for _, k := range cells {
				c.frame[k].val.i = 0
			}
		}
		return run(c)
	}
}

// uncertainNames finds, per scope node, the names some declaration binds
// into that scope on only some paths.
func uncertainNames(body *clc.BlockStmt) map[clc.Node]map[string]bool {
	out := map[clc.Node]map[string]bool{}
	var walk func(s clc.Stmt, scope clc.Node, direct bool)
	walk = func(s clc.Stmt, scope clc.Node, direct bool) {
		switch x := s.(type) {
		case *clc.BlockStmt:
			for _, st := range x.Stmts {
				walk(st, x, true)
			}
		case *clc.DeclStmt:
			for _, d := range x.Decls {
				if !direct && out[scope] == nil {
					out[scope] = map[string]bool{}
				}
				if !direct {
					out[scope][d.Name] = true
				}
			}
		case *clc.IfStmt:
			walk(x.Then, scope, false)
			if x.Else != nil {
				walk(x.Else, scope, false)
			}
		case *clc.WhileStmt:
			walk(x.Body, scope, false)
		case *clc.DoWhileStmt:
			walk(x.Body, scope, false)
		case *clc.ForStmt:
			if x.Init != nil {
				walk(x.Init, x, true)
			}
			walk(x.Body, x, false)
		case *clc.SwitchStmt:
			for _, cc := range x.Cases {
				for _, st := range cc.Body {
					walk(st, x, false)
				}
			}
		}
	}
	walk(body, nil, true)
	return out
}

// compileFunction compiles f's body.
func (cp *compiler) compileFunction(f *function) {
	cp.scopes, cp.nslots = nil, 0
	cp.uncertain = uncertainNames(f.decl.Body)
	cp.parks = f.parks
	if cp.typed {
		f.guards = cp.inferKinds(f.decl)
	}
	cp.push(f.decl)
	for _, p := range f.decl.Params {
		cp.bind(p.Name)
	}
	f.body = cp.block(f.decl.Body)
	f.nslots = cp.nslots
}

// fail, failExpr and failLoc raise err when the node executes, failExpr
// after its unit of budget.
func fail(err error) evalFn {
	return func(*wiCtx) (Value, error) { return Value{}, err }
}

func failExpr(err error) evalFn { return stepped(fail(err)) }

func failLoc(err error) lvalFn {
	return func(*wiCtx) (loc, error) { return loc{}, err }
}

// block compiles a block's statements in a new scope; running it spends
// no budget of its own.
func (cp *compiler) block(b *clc.BlockStmt) execFn {
	cells := cp.push(b)
	defer cp.pop()
	stmts := make([]execFn, len(b.Stmts))
	for i, s := range b.Stmts {
		stmts[i] = cp.stmt(s)
	}
	if cp.parks[b] {
		at := cp.mark()
		return entering(cells, func(c *wiCtx) (ctrl, error) {
			i := 0
			if c.resuming {
				i = int(c.frame[at].val.i)
			}
			for ; i < len(stmts); i++ {
				ct, err := stmts[i](c)
				if err != nil || ct != ctrlNone {
					c.frame[at].val.i = int64(i) // where a parked item resumes
					return ct, err
				}
			}
			return ctrlNone, nil
		})
	}
	return entering(cells, func(c *wiCtx) (ctrl, error) {
		for _, s := range stmts {
			ct, err := s(c)
			if err != nil || ct != ctrlNone {
				return ct, err
			}
		}
		return ctrlNone, nil
	})
}

// stmt compiles one statement; running it spends one unit of budget
// before anything else.
func (cp *compiler) stmt(s clc.Stmt) execFn {
	run := cp.stmtBody(s)
	if cp.parks[s] {
		return func(c *wiCtx) (ctrl, error) {
			if !c.resuming {
				if err := c.step(); err != nil {
					return ctrlNone, err
				}
			}
			return run(c)
		}
	}
	return func(c *wiCtx) (ctrl, error) {
		if err := c.step(); err != nil {
			return ctrlNone, err
		}
		return run(c)
	}
}

func (cp *compiler) stmtBody(s clc.Stmt) execFn {
	result := func(ct ctrl, err error) execFn {
		return func(*wiCtx) (ctrl, error) { return ct, err }
	}
	switch x := s.(type) {
	case *clc.BlockStmt:
		return cp.block(x)
	case *clc.EmptyStmt:
		return result(ctrlNone, nil)
	case *clc.BreakStmt:
		return result(ctrlBreak, nil)
	case *clc.ContinueStmt:
		return result(ctrlContinue, nil)
	case *clc.DeclStmt:
		decls := make([]func(*wiCtx) error, len(x.Decls))
		for i, d := range x.Decls {
			decls[i] = cp.decl(d)
		}
		return func(c *wiCtx) (ctrl, error) {
			for _, d := range decls {
				if err := d(c); err != nil {
					return ctrlNone, err
				}
			}
			return ctrlNone, nil
		}
	case *clc.ExprStmt:
		e := cp.effect(x.X)
		if cp.parks[x] {
			// A barrier: park once it has counted, go on when resumed. A
			// work-item goroutine, running this kernel as another's callee,
			// has waited in the barrier call instead.
			return func(c *wiCtx) (ctrl, error) {
				if c.resuming {
					c.resuming = false
					return ctrlNone, nil
				}
				if _, err := e(c); err != nil || c.yield != nil {
					return ctrlNone, err
				}
				return ctrlBarrier, nil
			}
		}
		return func(c *wiCtx) (ctrl, error) {
			_, err := e(c)
			return ctrlNone, err
		}
	case *clc.IfStmt:
		cond, then := cp.cond(x.Cond), cp.stmt(x.Then)
		els := result(ctrlNone, nil)
		if x.Else != nil {
			els = cp.stmt(x.Else)
		}
		if cp.parks[x] {
			taken := cp.mark()
			return func(c *wiCtx) (ctrl, error) {
				if !c.resuming {
					ok, err := test(c, cond)
					if err != nil {
						return ctrlNone, err
					}
					c.frame[taken].val.i = boolToInt(ok)
				}
				if c.frame[taken].val.i != 0 {
					return then(c)
				}
				return els(c)
			}
		}
		return func(c *wiCtx) (ctrl, error) {
			if ok, err := test(c, cond); err != nil {
				return ctrlNone, err
			} else if ok {
				return then(c)
			}
			return els(c)
		}
	case *clc.ForStmt:
		return cp.forStmt(x)
	case *clc.WhileStmt:
		cond := cp.cond(x.Cond)
		return loop(nil, cond, cp.stmt(x.Body), nil, false)
	case *clc.DoWhileStmt:
		body := cp.stmt(x.Body)
		return loop(nil, cp.cond(x.Cond), body, nil, true)
	case *clc.ReturnStmt:
		if x.X == nil {
			return result(ctrlReturn, nil)
		}
		e := cp.expr(x.X)
		return func(c *wiCtx) (ctrl, error) {
			v, err := e(c)
			if err != nil {
				return ctrlNone, err
			}
			c.retVal = v
			return ctrlReturn, nil
		}
	case *clc.SwitchStmt:
		return cp.switchStmt(x)
	}
	return result(ctrlNone, fmt.Errorf("interp: unsupported statement %T", s))
}

// effect compiles e evaluated for its side effects alone; a static
// vector's lanes go to temporaries.
func (cp *compiler) effect(e clc.Expr) evalFn {
	s, ok := cp.static(e)
	switch {
	case ok && s.width == 1:
		return func(c *wiCtx) (Value, error) {
			_, err := s.eval(c)
			return Value{}, err
		}
	case ok:
		ev, w := s.lanes, s.width
		return func(c *wiCtx) (Value, error) {
			n := len(c.tmp)
			err := ev(c, c.take(w))
			c.tmp = c.tmp[:n]
			return Value{}, err
		}
	}
	return cp.expr(e)
}

// condFn evaluates a condition as Value.Bool tests it.
type condFn func(c *wiCtx) (bool, error)

// test evaluates a loop or branch condition, counting the branch.
func test(c *wiCtx, cond condFn) (bool, error) {
	ok, err := cond(c)
	if err != nil {
		return false, err
	}
	c.prof.Branches++
	return ok, nil
}

func (cp *compiler) forStmt(x *clc.ForStmt) execFn {
	cells := cp.push(x)
	defer cp.pop()
	var init execFn
	var cond condFn
	var post evalFn
	if x.Init != nil {
		init = cp.stmt(x.Init)
	}
	if x.Cond != nil {
		cond = cp.cond(x.Cond)
	}
	body := cp.stmt(x.Body)
	if x.Post != nil {
		post = cp.effect(x.Post)
	}
	return entering(cells, loop(init, cond, body, post, false))
}

// loop runs init, then iterations of one budget unit each: the test
// (after the body for do-while), the body and post. A nil test is true.
// A work-item resuming into the body skips init and the resumed
// iteration's unit and leading test.
func loop(init execFn, cond condFn, body execFn, post evalFn, bodyFirst bool) execFn {
	return func(c *wiCtx) (ctrl, error) {
		resumed := c.resuming
		if init != nil && !resumed {
			if _, err := init(c); err != nil {
				return ctrlNone, err
			}
		}
		for ; ; resumed = false {
			if !resumed {
				if err := c.step(); err != nil {
					return ctrlNone, err
				}
				if cond != nil && !bodyFirst {
					if ok, err := test(c, cond); err != nil || !ok {
						return ctrlNone, err
					}
				}
			}
			ct, err := body(c)
			if err != nil || ct == ctrlBreak {
				return ctrlNone, err
			}
			if ct >= ctrlReturn { // a return, or parked at a barrier
				return ct, nil
			}
			if bodyFirst {
				if ok, err := test(c, cond); err != nil || !ok {
					return ctrlNone, err
				}
			}
			if post != nil {
				if _, err := post(c); err != nil {
					return ctrlNone, err
				}
			}
		}
	}
}

func (cp *compiler) switchStmt(x *clc.SwitchStmt) execFn {
	tag := cp.expr(x.Tag)
	vals := make([]evalFn, len(x.Cases))
	for i, cc := range x.Cases {
		if cc.Value != nil {
			vals[i] = cp.expr(cc.Value)
		}
	}
	cells := cp.push(x)
	defer cp.pop()
	var body []execFn
	start := make([]int, len(x.Cases)) // first statement of each case
	for i, cc := range x.Cases {
		start[i] = len(body)
		for _, st := range cc.Body {
			body = append(body, cp.stmt(st))
		}
	}
	return entering(cells, func(c *wiCtx) (ctrl, error) {
		t, err := tag(c)
		if err != nil {
			return ctrlNone, err
		}
		c.prof.Branches++
		matched, def := -1, -1
		for i, val := range vals {
			if val == nil {
				def = i
				continue
			}
			v, err := val(c)
			if err != nil {
				return ctrlNone, err
			}
			if v.Int() == t.Int() {
				matched = i
				break
			}
		}
		if matched < 0 {
			matched = def
		}
		if matched < 0 {
			return ctrlNone, nil
		}
		for _, st := range body[start[matched]:] { // fallthrough semantics
			ct, err := st(c)
			if err != nil {
				return ctrlNone, err
			}
			switch ct {
			case ctrlBreak:
				return ctrlNone, nil
			case ctrlReturn, ctrlContinue:
				return ct, nil
			}
		}
		return ctrlNone, nil
	})
}

// decl compiles a variable declaration. The initializer sees the scope
// as it was before the declaration.
func (cp *compiler) decl(d *clc.VarDecl) func(*wiCtx) error {
	if st, ok := d.Type.(*clc.ScalarType); ok && staticKind(st.Kind) {
		if s, ok := cp.scalar(d.Init); ok {
			init := s.convert(st.Kind)
			idx, cell := cp.bind(d.Name)
			return func(c *wiCtx) error {
				l, err := init(c)
				if err == nil {
					c.declare(idx, cell, slot{val: box(st.Kind, l)})
				}
				return err
			}
		}
	}
	if sh := cp.vars[d.Name]; sh.width > 1 {
		return cp.vectorDecl(d, sh)
	}
	at, isArr := d.Type.(*clc.ArrayType)
	if !isArr {
		var init evalFn
		if d.Init != nil {
			init = cp.expr(d.Init)
		}
		zero, t := ZeroValue(d.Type), d.Type
		idx, cell := cp.bind(d.Name)
		return func(c *wiCtx) error {
			v := zero
			if init != nil {
				iv, err := init(c)
				if err != nil {
					return err
				}
				if v = iv; !iv.IsPointer() {
					if v, err = convert(c.arena, iv, t); err != nil {
						return fmt.Errorf("interp: initializing %q: %w", d.Name, err)
					}
				}
			}
			c.declare(idx, cell, slot{val: v})
			return nil
		}
	}
	kind, n, space := elemKind(at), int(scalarSlots(at)), d.Space
	if space == clc.Local {
		// __local arrays in function bodies are one allocation per
		// work-group, shared by all of its work-items.
		li := cp.env.locals[d]
		idx, cell := cp.bind(d.Name)
		return func(c *wiCtx) error {
			p := c.locals[li]
			if p == nil {
				p = &Pointer{Buf: newBuffer(kind, n, space), Elem: at.Elem}
				c.locals[li] = p
			}
			c.declare(idx, cell, slot{buf: p.Buf, ptr: p})
			return nil
		}
	}
	var fill func(*wiCtx, *Buffer, int64) error
	if il, ok := d.Init.(*clc.InitList); ok {
		fill = cp.fillArray(il)
	}
	idx, cell := cp.bind(d.Name)
	return func(c *wiCtx) error {
		buf := newBuffer(kind, n, space)
		if fill != nil {
			if err := fill(c, buf, 0); err != nil {
				return err
			}
		}
		c.declare(idx, cell, slot{buf: buf, ptr: &Pointer{Buf: buf, Elem: at.Elem}})
		return nil
	}
}

// vectorDecl compiles the declaration of a statically kinded vector
// variable, whose lane l lives in the slot l past its first: its
// initializer, static by inferKinds, is converted or splat to its kind, and
// no initializer is zero.
func (cp *compiler) vectorDecl(d *clc.VarDecl, sh shape) func(*wiCtx) error {
	var init lanesFn
	from, sw := sh.kind, sh.width
	if d.Init != nil {
		s, _ := cp.static(d.Init)
		init, from, sw = s.into(), s.kind, s.width
	}
	stride := min(sw-1, 1) // 0 splats a scalar
	idx, _ := cp.bind(d.Name)
	cp.nslots += sh.width - 1
	return func(c *wiCtx) error {
		fr := c.frame[idx : idx+sh.width]
		if init == nil {
			for l := range fr {
				fr[l].val.i, fr[l].val.f = 0, 0
			}
			return nil
		}
		n := len(c.tmp)
		t := c.take(sw)
		err := init(c, t)
		if err == nil {
			for l := range fr {
				v := convertTo(t[l*stride], from, sh.kind)
				fr[l].val.i, fr[l].val.f = v.i, v.f
			}
		}
		c.tmp = c.tmp[:n]
		return err
	}
}

// fillArray compiles a brace initializer into stores of consecutive
// scalar slots from off, nested lists flattened.
func (cp *compiler) fillArray(il *clc.InitList) func(*wiCtx, *Buffer, int64) error {
	type elem struct {
		pos    int64
		scalar evalFn
		nested func(*wiCtx, *Buffer, int64) error
	}
	var elems []elem
	pos := int64(0)
	for _, e := range il.Elems {
		if nested, ok := e.(*clc.InitList); ok {
			elems = append(elems, elem{pos: pos, nested: cp.fillArray(nested)})
			pos += int64(countInitScalars(nested))
		} else {
			elems = append(elems, elem{pos: pos, scalar: cp.expr(e)})
			pos++
		}
	}
	return func(c *wiCtx, buf *Buffer, off int64) error {
		for _, el := range elems {
			if el.nested != nil {
				if err := el.nested(c, buf, off+el.pos); err != nil {
					return err
				}
				continue
			}
			v, err := el.scalar(c)
			if err != nil {
				return err
			}
			s := ConvertScalar(v, buf.Kind)
			if err := buf.storeScalar(off+el.pos, s.i, s.f); err != nil {
				return err
			}
		}
		return nil
	}
}

// loc is an assignable target: a variable or a memory location, through
// an optional swizzle.
type loc struct {
	slot  *slot
	buf   *Buffer
	off   int64
	typ   clc.Type
	lanes []int // swizzle lanes when assigning through a vector member
}

func (c *wiCtx) readLoc(l *loc) (Value, error) {
	var base Value
	var err error
	if l.slot != nil {
		base, err = l.slot.load(c.arena)
	} else if base, err = load(c.arena, l.buf, l.off, l.typ); err == nil {
		c.countMem(l.buf.Space, widthOfType(l.typ), false)
	}
	if err != nil || l.lanes == nil {
		return base, err
	}
	return extractLanes(c.arena, base, l.lanes), nil
}

func (c *wiCtx) writeLoc(l *loc, v Value) error {
	if l.lanes != nil {
		// Read-modify-write through the swizzle.
		var base Value
		var err error
		if l.slot != nil {
			base, err = l.slot.load(c.arena)
		} else {
			base, err = load(c.arena, l.buf, l.off, l.typ)
		}
		if err != nil {
			return err
		}
		merged := insertLanes(c.arena, base, l.lanes, v)
		if l.slot != nil {
			return l.slot.store(merged)
		}
		c.countMem(l.buf.Space, len(l.lanes), true)
		return store(l.buf, l.off, merged, l.typ)
	}
	if l.slot == nil {
		c.countMem(l.buf.Space, widthOfType(l.typ), true)
		return store(l.buf, l.off, v, l.typ)
	}
	if v.IsPointer() {
		return l.slot.store(v)
	}
	conv, err := convert(c.arena, v, l.typ)
	if err != nil {
		return err
	}
	return l.slot.store(conv)
}

func widthOfType(t clc.Type) int {
	if vt, ok := t.(*clc.VectorType); ok {
		return vt.Len
	}
	return 1
}

// extractLanes is the swizzle of v to lanes, its lanes from ar.
func extractLanes(ar *arena, v Value, lanes []int) Value {
	if len(lanes) == 1 {
		return v.Lane(lanes[0])
	}
	ls := ar.alloc(len(lanes))
	for i, l := range lanes {
		ls[i] = v.lane(l)
	}
	return vector(v.Kind, ls)
}

// insertLanes returns base with the given lanes replaced by v's (or by v
// itself when it is a scalar), converted to base's kind. base's lane array
// is copied into lanes from ar, never written.
func insertLanes(ar *arena, base Value, lanes []int, v Value) Value {
	at := func(i int) lane {
		if v.Width <= 1 {
			return convertLane(v.lane(0), v, base.Kind)
		}
		return convertLane(v.lane(i), v, base.Kind)
	}
	if base.Width <= 1 {
		for i, l := range lanes {
			if l == 0 {
				s := at(i)
				base.i, base.f = s.i, s.f
			}
		}
		return base
	}
	ls := ar.alloc(base.Width)
	for l := range ls {
		ls[l] = base.lane(l)
	}
	for i, l := range lanes {
		if l < len(ls) {
			ls[l] = at(i)
		}
	}
	return vector(base.Kind, ls)
}

// laneSeq[l : l+1] is the one-lane swizzle of lane l.
var laneSeq = [MaxLanes]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

// lvalue compiles an assignable expression. Resolving it spends no
// budget beyond evaluating its subexpressions.
func (cp *compiler) lvalue(e clc.Expr) lvalFn {
	switch x := e.(type) {
	case *clc.Ident:
		r := cp.lookup(x.Name)
		unknown := fmt.Errorf("interp: assignment to unknown identifier %q", x.Name)
		array := fmt.Errorf("interp: cannot assign to array %q", x.Name)
		if r.cells == nil && !r.bound {
			return failLoc(unknown)
		}
		t := x.ExprType()
		return func(c *wiCtx) (loc, error) {
			s := r.slot(c)
			switch {
			case s == nil:
				return loc{}, unknown
			case s.buf != nil && !s.boxed:
				return loc{}, array
			case t == nil:
				return loc{slot: s, typ: valueType(s.val)}, nil
			}
			return loc{slot: s, typ: t}, nil
		}
	case *clc.IndexExpr:
		base, index := cp.expr(x.X), cp.expr(x.Index)
		// Vector lane assignment v[i] — uncommon but legal in some
		// dialects — resolves the vector itself.
		inner := failLoc(errors.New("interp: cannot index non-pointer value"))
		switch x.X.ExprType().(type) {
		case *clc.PointerType, *clc.ArrayType:
		default:
			inner = cp.lvalue(x.X)
		}
		return func(c *wiCtx) (loc, error) {
			b, err := base(c)
			if err != nil {
				return loc{}, err
			}
			i, err := index(c)
			if err != nil {
				return loc{}, err
			}
			if p := b.Ptr; p != nil {
				if at, ok := p.Elem.(*clc.ArrayType); ok {
					return loc{}, fmt.Errorf("interp: cannot assign to array value %s", at)
				}
				return loc{buf: p.Buf, off: p.Off + i.Int()*scalarSlots(p.Elem), typ: p.Elem}, nil
			}
			if b.Width <= 1 {
				return loc{}, errors.New("interp: cannot index non-pointer value")
			}
			l, err := inner(c)
			if err != nil {
				return loc{}, err
			}
			lane := int(i.Int())
			if lane < 0 || lane >= b.Width {
				return loc{}, fmt.Errorf("interp: vector lane %d out of range", lane)
			}
			l.lanes = laneSeq[lane : lane+1]
			return l, nil
		}
	case *clc.MemberExpr:
		baseT := x.X.ExprType()
		vt, ok := baseT.(*clc.VectorType)
		if !ok {
			return failLoc(fmt.Errorf("interp: unsupported member assignment on %v", baseT))
		}
		lanes, err := clc.VectorComponents(x.Member, vt.Len)
		if err != nil {
			return failLoc(err)
		}
		inner := cp.lvalue(x.X)
		return func(c *wiCtx) (loc, error) {
			l, err := inner(c)
			if err != nil {
				return loc{}, err
			}
			if l.lanes != nil {
				return loc{}, fmt.Errorf("interp: nested swizzle assignment unsupported")
			}
			l.lanes = lanes
			return l, nil
		}
	case *clc.UnaryExpr:
		if x.Op == clc.MUL {
			ptr := cp.expr(x.X)
			return func(c *wiCtx) (loc, error) {
				v, err := ptr(c)
				if err != nil {
					return loc{}, err
				}
				if !v.IsPointer() {
					return loc{}, fmt.Errorf("interp: dereferencing non-pointer")
				}
				return loc{buf: v.Ptr.Buf, off: v.Ptr.Off, typ: v.Ptr.Elem}, nil
			}
		}
	}
	return failLoc(fmt.Errorf("interp: expression %T is not assignable", e))
}

// valueType reconstructs a clc.Type from a runtime value (fallback when the
// checker left no annotation).
func valueType(v Value) clc.Type {
	if v.Width > 1 {
		return &clc.VectorType{Elem: v.Kind, Len: v.Width}
	}
	return &clc.ScalarType{Kind: v.Kind}
}

// indexed advances p by idx elements of its pointee type. When the
// pointee is an (inner) array, the result points to that array's element
// type (C array decay) and arr is the array type.
func indexed(p *Pointer, idx int64) (off int64, arr *clc.ArrayType) {
	off = p.Off + idx*scalarSlots(p.Elem)
	arr, _ = p.Elem.(*clc.ArrayType)
	return off, arr
}

// stepped prefixes run (an evalFn or laneFn) with its node's unit of budget.
func stepped[T any](run func(*wiCtx) (T, error)) func(*wiCtx) (T, error) {
	return func(c *wiCtx) (T, error) {
		if err := c.step(); err != nil {
			var zero T
			return zero, err
		}
		return run(c)
	}
}

// constExpr evaluates to v for one unit of budget.
func constExpr(v Value) evalFn {
	return func(c *wiCtx) (Value, error) {
		if err := c.step(); err != nil {
			return Value{}, err
		}
		return v, nil
	}
}

// literal returns the value of a literal or sizeof expression.
func literal(e clc.Expr) (Value, bool) {
	switch x := e.(type) {
	case *clc.IntLit:
		kind := clc.Int
		if st, ok := x.ExprType().(*clc.ScalarType); ok {
			kind = st.Kind
		}
		return IntValue(kind, x.Value), true
	case *clc.FloatLit:
		kind := clc.Double
		if st, ok := x.ExprType().(*clc.ScalarType); ok {
			kind = st.Kind
		}
		return FloatValue(kind, x.Value), true
	case *clc.CharLit:
		return IntValue(clc.Char, x.Value), true
	case *clc.StringLit:
		return Value{}, true
	case *clc.SizeofExpr:
		size := int64(4)
		if x.Type != nil {
			size = int64(x.Type.Size())
		} else if t := x.X.ExprType(); t != nil {
			size = int64(t.Size())
		}
		return IntValue(clc.ULong, size), true
	}
	return Value{}, false
}

// expr compiles an expression; evaluating it spends one unit of budget
// before anything else. A statically kinded expression other than a
// literal or scalar variable is compiled by static and boxed.
func (cp *compiler) expr(e clc.Expr) evalFn {
	if v, ok := literal(e); ok {
		return constExpr(v)
	}
	if x, ok := e.(*clc.Ident); ok && cp.vars[x.Name].width <= 1 {
		return cp.ident(x)
	}
	if s, ok := cp.static(e); ok {
		return s.value()
	}
	switch x := e.(type) {
	case *clc.BinaryExpr:
		return cp.binary(x)
	case *clc.AssignExpr:
		return stepped(cp.assign(x))
	case *clc.UnaryExpr:
		return stepped(cp.unary(x))
	case *clc.PostfixExpr:
		return stepped(cp.incDec(x.X, x.Op, true))
	case *clc.CondExpr:
		cond, a, b := cp.cond(x.Cond), cp.expr(x.A), cp.expr(x.B)
		return stepped(func(c *wiCtx) (Value, error) {
			if ok, err := test(c, cond); err != nil {
				return Value{}, err
			} else if ok {
				return a(c)
			}
			return b(c)
		})
	case *clc.CallExpr:
		return stepped(cp.call(x))
	case *clc.IndexExpr:
		return cp.index(x)
	case *clc.MemberExpr:
		return stepped(cp.member(x))
	case *clc.CastExpr:
		return stepped(cp.cast(x))
	case *clc.InitList:
		return stepped(cp.initList(x))
	case *clc.ArgPack:
		if len(x.Args) == 1 {
			return stepped(cp.expr(x.Args[0]))
		}
		return failExpr(errors.New("interp: stray argument pack"))
	}
	return failExpr(fmt.Errorf("interp: unsupported expression %T", e))
}

func (cp *compiler) exprs(es []clc.Expr) []evalFn {
	out := make([]evalFn, len(es))
	for i, e := range es {
		out[i] = cp.expr(e)
	}
	return out
}

func (cp *compiler) ident(x *clc.Ident) evalFn {
	r := cp.lookup(x.Name)
	if r.cells == nil && r.bound {
		return func(c *wiCtx) (Value, error) {
			if err := c.step(); err != nil {
				return Value{}, err
			}
			return c.frame[r.idx].read(c.arena)
		}
	}
	// Not a variable on every path: file scope, predeclared, or unknown.
	var v Value
	var err error
	if p, ok := cp.env.consts[x.Name]; ok {
		v = PtrValue(p)
	} else if g, ok := cp.env.globals[x.Name]; ok {
		v = g
	} else if f, ok := clc.PredeclaredValue(x.Name); ok {
		v = FloatValue(clc.Double, f)
		if st, ok := x.ExprType().(*clc.ScalarType); ok {
			if st.Kind.IsFloat() {
				v = FloatValue(st.Kind, f)
			} else {
				v = IntValue(st.Kind, int64(f))
			}
		}
	} else {
		err = fmt.Errorf("interp: unknown identifier %q", x.Name)
	}
	if r.cells == nil {
		if err != nil {
			return failExpr(err)
		}
		return constExpr(v)
	}
	return func(c *wiCtx) (Value, error) {
		if err := c.step(); err != nil {
			return Value{}, err
		}
		if s := r.slot(c); s != nil {
			return s.read(c.arena)
		}
		return v, err
	}
}

func (cp *compiler) index(x *clc.IndexExpr) evalFn {
	base, idx := cp.expr(x.X), cp.expr(x.Index)
	return func(c *wiCtx) (Value, error) {
		if err := c.step(); err != nil {
			return Value{}, err
		}
		b, err := base(c)
		if err != nil {
			return Value{}, err
		}
		i, err := idx(c)
		if err != nil {
			return Value{}, err
		}
		if p := b.Ptr; p != nil {
			off, arr := indexed(p, i.Int())
			if arr != nil {
				// Inner dimension: result is a decayed pointer.
				return PtrValue(&Pointer{Buf: p.Buf, Off: off, Elem: arr.Elem}), nil
			}
			v, err := load(c.arena, p.Buf, off, p.Elem)
			if err != nil {
				return Value{}, fmt.Errorf("interp: %s: %w", x.Pos, err)
			}
			c.countMem(p.Buf.Space, widthOfType(p.Elem), false)
			return v, nil
		}
		if b.Width > 1 {
			lane := int(i.Int())
			if lane < 0 || lane >= b.Width {
				return Value{}, fmt.Errorf("interp: vector lane %d out of range", lane)
			}
			return b.Lane(lane), nil
		}
		return Value{}, fmt.Errorf("interp: %s: cannot index non-pointer", x.Pos)
	}
}

func (cp *compiler) initList(x *clc.InitList) evalFn {
	// Brace initializer in expression position: a vector build.
	elems := cp.exprs(x.Elems)
	return func(c *wiCtx) (Value, error) {
		lanes, base, err := c.evalArgs(elems)
		if err != nil {
			return Value{}, err
		}
		defer func() { c.vals = c.vals[:base] }()
		switch {
		case len(lanes) == 1:
			return lanes[0], nil
		case len(lanes) > MaxLanes:
			return Value{}, fmt.Errorf("interp: %s: brace initializer with %d elements exceeds %d lanes", x.Pos, len(lanes), MaxLanes)
		case len(lanes) == 0:
			return VecValue(clc.Float, nil), nil
		}
		return vecValue(c.arena, lanes[0].Kind, lanes), nil
	}
}

func (cp *compiler) binary(x *clc.BinaryExpr) evalFn {
	a, b, op := cp.expr(x.X), cp.expr(x.Y), x.Op
	return func(c *wiCtx) (Value, error) {
		if err := c.step(); err != nil {
			return Value{}, err
		}
		av, err := a(c)
		if err != nil {
			return Value{}, err
		}
		bv, err := b(c)
		if err != nil {
			return Value{}, err
		}
		out, err := binaryOp(c.arena, op, av, bv)
		if err != nil {
			return Value{}, fmt.Errorf("interp: %s: %w", x.Pos, err)
		}
		if out.Ptr == nil && op != clc.COMMA {
			c.countArith(out.Kind, out.Width)
		}
		return out, nil
	}
}

var compoundOps = map[clc.TokenKind]clc.TokenKind{
	clc.ADDASSIGN: clc.ADD, clc.SUBASSIGN: clc.SUB, clc.MULASSIGN: clc.MUL,
	clc.DIVASSIGN: clc.DIV, clc.REMASSIGN: clc.REM, clc.ANDASSIGN: clc.AND,
	clc.ORASSIGN: clc.OR, clc.XORASSIGN: clc.XOR, clc.SHLASSIGN: clc.SHL,
	clc.SHRASSIGN: clc.SHR,
}

func (cp *compiler) assign(x *clc.AssignExpr) evalFn {
	rhs, lhs := cp.expr(x.Y), cp.lvalue(x.X)
	op, known := compoundOps[x.Op]
	compound := x.Op != clc.ASSIGN
	return func(c *wiCtx) (Value, error) {
		v, err := rhs(c)
		if err != nil {
			return Value{}, err
		}
		l, err := lhs(c)
		if err != nil {
			return Value{}, err
		}
		if compound {
			old, err := c.readLoc(&l)
			if err != nil {
				return Value{}, err
			}
			if !known {
				return Value{}, fmt.Errorf("interp: unsupported compound assignment %s", x.Op)
			}
			if v, err = binaryOp(c.arena, op, old, v); err != nil {
				return Value{}, fmt.Errorf("interp: %s: %w", x.Pos, err)
			}
			c.countArith(old.Kind, old.Width)
		}
		if err := c.writeLoc(&l, v); err != nil {
			return Value{}, fmt.Errorf("interp: %s: %w", x.Pos, err)
		}
		return v, nil
	}
}

// incDec compiles ++ and --, prefix or postfix.
func (cp *compiler) incDec(target clc.Expr, tok clc.TokenKind, postfix bool) evalFn {
	lhs := cp.lvalue(target)
	op := clc.ADD
	if tok == clc.DEC {
		op = clc.SUB
	}
	one := IntValue(clc.Int, 1)
	return func(c *wiCtx) (Value, error) {
		l, err := lhs(c)
		if err != nil {
			return Value{}, err
		}
		old, err := c.readLoc(&l)
		if err != nil {
			return Value{}, err
		}
		nv, err := binaryOp(c.arena, op, old, one)
		if err != nil {
			return Value{}, err
		}
		c.countArith(old.Kind, old.Width)
		if err := c.writeLoc(&l, nv); err != nil {
			return Value{}, err
		}
		if postfix {
			return old, nil
		}
		return nv, nil
	}
}

func (cp *compiler) unary(x *clc.UnaryExpr) evalFn {
	switch x.Op {
	case clc.MUL:
		ptr := cp.expr(x.X)
		return func(c *wiCtx) (Value, error) {
			v, err := ptr(c)
			if err != nil {
				return Value{}, err
			}
			if !v.IsPointer() {
				return Value{}, fmt.Errorf("interp: dereferencing non-pointer")
			}
			out, err := load(c.arena, v.Ptr.Buf, v.Ptr.Off, v.Ptr.Elem)
			if err != nil {
				return Value{}, err
			}
			c.countMem(v.Ptr.Buf.Space, widthOfType(v.Ptr.Elem), false)
			return out, nil
		}
	case clc.AND:
		return cp.addrOf(x.X)
	case clc.INC, clc.DEC:
		return cp.incDec(x.X, x.Op, false)
	}
	operand, op := cp.expr(x.X), x.Op
	return func(c *wiCtx) (Value, error) {
		v, err := operand(c)
		if err != nil {
			return Value{}, err
		}
		out, err := unaryOp(c.arena, op, v)
		if err != nil {
			return Value{}, fmt.Errorf("interp: %s: %w", x.Pos, err)
		}
		c.countArith(out.Kind, out.Width)
		return out, nil
	}
}

func (cp *compiler) addrOf(e clc.Expr) evalFn {
	switch x := e.(type) {
	case *clc.IndexExpr:
		base, idx := cp.expr(x.X), cp.expr(x.Index)
		return func(c *wiCtx) (Value, error) {
			b, err := base(c)
			if err != nil {
				return Value{}, err
			}
			i, err := idx(c)
			if err != nil {
				return Value{}, err
			}
			if !b.IsPointer() {
				return Value{}, fmt.Errorf("interp: & of non-memory index")
			}
			off, arr := indexed(b.Ptr, i.Int())
			elem := b.Ptr.Elem
			if arr != nil {
				elem = arr.Elem
			}
			return PtrValue(&Pointer{Buf: b.Ptr.Buf, Off: off, Elem: elem}), nil
		}
	case *clc.Ident:
		r := cp.lookup(x.Name)
		unknown := fmt.Errorf("interp: & of unknown identifier %q", x.Name)
		if r.cells == nil && !r.bound {
			return fail(unknown)
		}
		_, isPtr := x.ExprType().(*clc.PointerType)
		return func(c *wiCtx) (Value, error) {
			s := r.slot(c)
			if s == nil {
				return Value{}, unknown
			}
			if s.buf != nil {
				return PtrValue(s.ptr), nil
			}
			if isPtr || s.val.IsPointer() {
				return Value{}, fmt.Errorf("interp: address of pointer variable %q unsupported", x.Name)
			}
			// Box the variable: migrate it into a one-element private
			// array, so that the pointer and later accesses by name share
			// its storage (out-parameters of fract/sincos, *p = v).
			kind, w := s.val.Kind, max(s.val.Width, 1)
			buf := newBuffer(kind, w, clc.Private)
			for l := 0; l < w; l++ {
				sc := convertLane(s.val.lane(l), s.val, kind)
				_ = buf.storeScalar(int64(l), sc.i, sc.f)
			}
			var elem clc.Type = &clc.ScalarType{Kind: kind}
			if w > 1 {
				elem = &clc.VectorType{Elem: kind, Len: w}
			}
			s.buf, s.ptr, s.boxed = buf, &Pointer{Buf: buf, Elem: elem}, true
			return PtrValue(s.ptr), nil
		}
	case *clc.UnaryExpr:
		if x.Op == clc.MUL {
			return cp.expr(x.X)
		}
	}
	return fail(fmt.Errorf("interp: unsupported address-of target %T", e))
}

func (cp *compiler) member(x *clc.MemberExpr) evalFn {
	base := cp.expr(x.X)
	// Swizzle lanes for the operand's static width; other widths resolve
	// when they occur.
	static := 0
	switch t := x.X.ExprType().(type) {
	case *clc.VectorType:
		static = t.Len
	case *clc.ScalarType:
		static = 1
	}
	var lanes []int
	var lanesErr error
	if static > 0 {
		lanes, lanesErr = clc.VectorComponents(x.Member, static)
	}
	return func(c *wiCtx) (Value, error) {
		b, err := base(c)
		if err != nil {
			return Value{}, err
		}
		if b.IsPointer() && x.Arrow {
			v, err := load(c.arena, b.Ptr.Buf, b.Ptr.Off, b.Ptr.Elem)
			if err != nil {
				return Value{}, err
			}
			c.countMem(b.Ptr.Buf.Space, widthOfType(b.Ptr.Elem), false)
			b = v
		}
		if b.Width < 1 || b.IsPointer() {
			return Value{}, fmt.Errorf("interp: %s: unsupported member access", x.Pos)
		}
		ls, err := lanes, lanesErr
		if b.Width != static {
			ls, err = clc.VectorComponents(x.Member, b.Width)
		}
		if err != nil {
			return Value{}, fmt.Errorf("interp: %s: %w", x.Pos, err)
		}
		return extractLanes(c.arena, b, ls), nil
	}
}

func (cp *compiler) cast(x *clc.CastExpr) evalFn {
	pack, isPack := x.X.(*clc.ArgPack)
	if !isPack {
		operand, to := cp.expr(x.X), x.To
		return func(c *wiCtx) (Value, error) {
			v, err := operand(c)
			if err != nil {
				return Value{}, err
			}
			out, err := convert(c.arena, v, to)
			if err != nil {
				return Value{}, fmt.Errorf("interp: %s: %w", x.Pos, err)
			}
			return out, nil
		}
	}
	vt, isVec := x.To.(*clc.VectorType)
	if !isVec {
		return fail(fmt.Errorf("interp: argument pack cast to non-vector %s", x.To))
	}
	args := cp.exprs(pack.Args)
	return func(c *wiCtx) (Value, error) {
		// Vector literal: the arguments' lanes, flattened.
		base := len(c.vals)
		defer func() { c.vals = c.vals[:base] }()
		for _, a := range args {
			v, err := a(c)
			if err != nil {
				return Value{}, err
			}
			if v.Width <= 1 {
				c.vals = append(c.vals, v)
				continue
			}
			for l := 0; l < v.Width; l++ {
				c.vals = append(c.vals, v.Lane(l))
			}
		}
		lanes := c.vals[base:]
		if len(lanes) == 1 {
			return splat(c.arena, lanes[0], vt.Elem, vt.Len), nil
		}
		if len(lanes) != vt.Len {
			return Value{}, fmt.Errorf("interp: vector literal arity %d for %s", len(lanes), vt)
		}
		return vecValue(c.arena, vt.Elem, lanes), nil
	}
}
