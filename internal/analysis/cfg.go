package analysis

import "clgen/internal/clc"

// This file builds a control-flow graph over clc function bodies. Blocks
// hold straight-line leaf statements; structured control flow (if, loops,
// switch) becomes edges. The true branch of a conditional block is always
// Succs[0] and the false branch Succs[1], which lets edge transfer
// functions refine branch conditions.

// Block is one basic block of a function CFG.
type Block struct {
	ID    int
	Stmts []clc.Stmt // leaf statements, in execution order
	// Cond, when non-nil, is evaluated after Stmts and decides the branch:
	// Succs[0] on true, Succs[1] on false. For switch dispatch blocks
	// (IsSwitch), Cond is the tag expression and Succs lists the case
	// bodies (plus the default or join block last).
	Cond     clc.Expr
	IsSwitch bool
	Succs    []*Block
	Preds    []*Block
}

// Loop records one structural loop of the function.
type Loop struct {
	Stmt clc.Stmt // the *clc.ForStmt, *clc.WhileStmt, or *clc.DoWhileStmt
	Head *Block   // block evaluating the loop condition
	Cond clc.Expr // nil for `for (;;)`
	Post clc.Expr // for-loop post expression, else nil
	Body []*Block // blocks of the body (and post), head excluded
	// HasBreak / HasReturn report whether the loop can exit other than by
	// its condition becoming false.
	HasBreak  bool
	HasReturn bool
	DoWhile   bool
}

// Graph is the CFG of a single function.
type Graph struct {
	Fn     *clc.FuncDecl
	Entry  *Block
	Exit   *Block
	Blocks []*Block // creation order; Entry first, Exit last after Seal
	Loops  []*Loop  // outermost-first, program order
}

type cfgBuilder struct {
	g          *Graph
	cur        *Block
	breakTo    []*Block
	breakIsSw  []bool // parallel to breakTo: target is a switch, not a loop
	continueTo []*Block
	loops      []*Loop
}

// BuildCFG constructs the control-flow graph for a function definition.
// fn.Body must be non-nil.
func BuildCFG(fn *clc.FuncDecl) *Graph {
	g := &Graph{Fn: fn}
	b := &cfgBuilder{g: g}
	g.Entry = b.newBlock()
	g.Exit = &Block{}
	b.cur = g.Entry
	b.stmt(fn.Body)
	b.link(b.cur, g.Exit)
	g.Exit.ID = len(g.Blocks)
	g.Blocks = append(g.Blocks, g.Exit)
	return g
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{ID: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	for _, l := range b.loops {
		l.Body = append(l.Body, blk)
	}
	return blk
}

func (b *cfgBuilder) link(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// endCond terminates the current block with a branch condition and returns
// it; the caller links the true/false successors (in that order).
func (b *cfgBuilder) endCond(cond clc.Expr) *Block {
	blk := b.cur
	blk.Cond = cond
	return blk
}

// terminate abandons the current block after a jump (return/break/continue);
// subsequent statements land in a fresh unreachable block.
func (b *cfgBuilder) terminate() {
	b.cur = b.newBlock()
}

func (b *cfgBuilder) pushLoop(l *Loop) {
	b.g.Loops = append(b.g.Loops, l)
	b.loops = append(b.loops, l)
}

func (b *cfgBuilder) popLoop() {
	b.loops = b.loops[:len(b.loops)-1]
}

func (b *cfgBuilder) markBreak() {
	// A break targeting a switch does not exit the enclosing loop.
	if n := len(b.breakIsSw); n > 0 && b.breakIsSw[n-1] {
		return
	}
	if n := len(b.loops); n > 0 {
		b.loops[n-1].HasBreak = true
	}
}

func (b *cfgBuilder) markReturn() {
	for _, l := range b.loops {
		l.HasReturn = true
	}
}

func (b *cfgBuilder) stmt(s clc.Stmt) {
	switch x := s.(type) {
	case nil, *clc.EmptyStmt:
	case *clc.BlockStmt:
		for _, st := range x.Stmts {
			b.stmt(st)
		}
	case *clc.DeclStmt, *clc.ExprStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
	case *clc.ReturnStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		b.link(b.cur, b.g.Exit)
		b.markReturn()
		b.terminate()
	case *clc.IfStmt:
		cond := b.endCond(x.Cond)
		then := b.newBlock()
		b.link(cond, then)
		b.cur = then
		b.stmt(x.Then)
		thenEnd := b.cur
		var elseEnd *Block
		if x.Else != nil {
			els := b.newBlock()
			b.link(cond, els)
			b.cur = els
			b.stmt(x.Else)
			elseEnd = b.cur
		}
		join := b.newBlock()
		b.link(thenEnd, join)
		if elseEnd != nil {
			b.link(elseEnd, join)
		} else {
			b.link(cond, join) // false edge
		}
		b.cur = join
	case *clc.WhileStmt:
		head := b.newBlock()
		b.link(b.cur, head)
		head.Cond = x.Cond
		exit := &Block{}
		l := &Loop{Stmt: x, Head: head, Cond: x.Cond}
		b.pushLoop(l)
		bodyEntry := b.newBlock()
		b.link(head, bodyEntry) // true edge
		b.pushBreak(exit, false)
		b.continueTo = append(b.continueTo, head)
		b.cur = bodyEntry
		b.stmt(x.Body)
		b.link(b.cur, head) // back edge
		b.popBreak()
		b.continueTo = b.continueTo[:len(b.continueTo)-1]
		b.popLoop()
		b.adopt(exit)
		b.link(head, exit) // false edge
		b.cur = exit
	case *clc.ForStmt:
		b.stmt(x.Init)
		head := b.newBlock()
		b.link(b.cur, head)
		head.Cond = x.Cond // may be nil: unconditional
		exit := &Block{}
		l := &Loop{Stmt: x, Head: head, Cond: x.Cond, Post: x.Post}
		b.pushLoop(l)
		bodyEntry := b.newBlock()
		b.link(head, bodyEntry) // true (or only) edge
		post := &Block{}
		b.pushBreak(exit, false)
		b.continueTo = append(b.continueTo, post)
		b.cur = bodyEntry
		b.stmt(x.Body)
		bodyEnd := b.cur
		b.adopt(post)
		b.link(bodyEnd, post)
		if x.Post != nil {
			post.Stmts = append(post.Stmts, &clc.ExprStmt{Pos: x.Post.NodePos(), X: x.Post})
		}
		b.link(post, head) // back edge
		b.popBreak()
		b.continueTo = b.continueTo[:len(b.continueTo)-1]
		b.popLoop()
		b.adopt(exit)
		if x.Cond != nil {
			b.link(head, exit) // false edge
		}
		b.cur = exit
	case *clc.DoWhileStmt:
		bodyEntry := b.newBlock()
		b.link(b.cur, bodyEntry)
		exit := &Block{}
		condBlk := &Block{}
		l := &Loop{Stmt: x, Head: condBlk, Cond: x.Cond, DoWhile: true}
		b.pushLoop(l)
		b.pushBreak(exit, false)
		b.continueTo = append(b.continueTo, condBlk)
		b.cur = bodyEntry
		b.stmt(x.Body)
		bodyEnd := b.cur
		b.adopt(condBlk)
		condBlk.Cond = x.Cond
		b.link(bodyEnd, condBlk)
		b.link(condBlk, bodyEntry) // true edge: loop again
		b.popBreak()
		b.continueTo = b.continueTo[:len(b.continueTo)-1]
		b.popLoop()
		b.adopt(exit)
		b.link(condBlk, exit) // false edge
		b.cur = exit
	case *clc.BreakStmt:
		if n := len(b.breakTo); n > 0 {
			b.link(b.cur, b.breakTo[n-1])
			b.markBreak()
		} else {
			b.link(b.cur, b.g.Exit)
		}
		b.terminate()
	case *clc.ContinueStmt:
		if n := len(b.continueTo); n > 0 {
			b.link(b.cur, b.continueTo[n-1])
		} else {
			b.link(b.cur, b.g.Exit)
		}
		b.terminate()
	case *clc.SwitchStmt:
		dispatch := b.endCond(x.Tag)
		dispatch.IsSwitch = true
		exit := &Block{}
		b.pushBreak(exit, true)
		hasDefault := false
		// Case bodies fall through to the next case in source order.
		var prevEnd *Block
		for _, c := range x.Cases {
			entry := b.newBlock()
			b.link(dispatch, entry)
			if prevEnd != nil {
				b.link(prevEnd, entry)
			}
			if c.Value == nil {
				hasDefault = true
			}
			b.cur = entry
			for _, st := range c.Body {
				b.stmt(st)
			}
			prevEnd = b.cur
		}
		b.popBreak()
		b.adopt(exit)
		if prevEnd != nil {
			b.link(prevEnd, exit)
		}
		if !hasDefault || len(x.Cases) == 0 {
			b.link(dispatch, exit)
		}
		b.cur = exit
	}
}

// adopt registers a pre-allocated block (given out to break/continue
// targets before its position was known) into the graph at the current
// position; it joins whatever loops are still being built.
func (b *cfgBuilder) adopt(blk *Block) {
	blk.ID = len(b.g.Blocks)
	b.g.Blocks = append(b.g.Blocks, blk)
	for _, l := range b.loops {
		l.Body = append(l.Body, blk)
	}
}

func (b *cfgBuilder) pushBreak(target *Block, isSwitch bool) {
	b.breakTo = append(b.breakTo, target)
	b.breakIsSw = append(b.breakIsSw, isSwitch)
}

func (b *cfgBuilder) popBreak() {
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	b.breakIsSw = b.breakIsSw[:len(b.breakIsSw)-1]
}

// Postorder returns the blocks reachable from Entry in postorder.
func (g *Graph) Postorder() []*Block {
	seen := make([]bool, len(g.Blocks)+1)
	var order []*Block
	var visit func(b *Block)
	visit = func(b *Block) {
		seen[b.ID] = true
		for _, s := range b.Succs {
			if !seen[s.ID] {
				visit(s)
			}
		}
		order = append(order, b)
	}
	visit(g.Entry)
	return order
}

// ReversePostorder returns the reachable blocks in reverse postorder, the
// canonical iteration order for forward dataflow.
func (g *Graph) ReversePostorder() []*Block {
	po := g.Postorder()
	rpo := make([]*Block, len(po))
	for i, b := range po {
		rpo[len(po)-1-i] = b
	}
	return rpo
}

// Dominates reports whether a dominates b under the given idom map.
func Dominates(idom map[*Block]*Block, a, b *Block) bool {
	for {
		if a == b {
			return true
		}
		next, ok := idom[b]
		if !ok || next == b {
			return false
		}
		b = next
	}
}
