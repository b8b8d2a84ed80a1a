package clc

import (
	"fmt"
	"strings"
)

// Printer renders an AST back to OpenCL C source in a single canonical
// style (a variant of the Google C++ style, per §4.1 of the paper):
// two-space indentation, K&R braces, one space around binary operators,
// one declaration per line.
type Printer struct {
	b      strings.Builder
	indent int
}

// PrintFile renders a whole translation unit.
func PrintFile(f *File) string {
	p := &Printer{}
	for i, d := range f.Decls {
		if i > 0 {
			p.b.WriteString("\n")
		}
		p.printDecl(d)
	}
	return p.b.String()
}

// PrintExpr renders a single expression.
func PrintExpr(e Expr) string {
	p := &Printer{}
	p.expr(e, 0)
	return p.b.String()
}

func (p *Printer) line(format string, args ...any) {
	p.b.WriteString(strings.Repeat("  ", p.indent))
	fmt.Fprintf(&p.b, format, args...)
	p.b.WriteString("\n")
}

func (p *Printer) printDecl(d Decl) {
	switch x := d.(type) {
	case *FuncDecl:
		p.printFuncDecl(x)
	case *VarDecl:
		p.line("%s;", p.varDeclString(x))
	case *TypedefDecl:
		p.line("typedef %s %s;", typeSpelling(x.Type), x.Name)
	case *StructDecl:
		p.line("struct %s {", x.Type.Name)
		p.indent++
		for _, f := range x.Type.Fields {
			p.line("%s %s;", typeSpelling(f.Type), f.Name)
		}
		p.indent--
		p.line("};")
	}
}

func (p *Printer) printFuncDecl(fd *FuncDecl) {
	var head strings.Builder
	if fd.IsKernel {
		head.WriteString("__kernel ")
	}
	if fd.IsInline {
		head.WriteString("inline ")
	}
	head.WriteString(typeSpelling(fd.Ret))
	head.WriteString(" ")
	head.WriteString(fd.Name)
	head.WriteString("(")
	for i, prm := range fd.Params {
		if i > 0 {
			head.WriteString(", ")
		}
		head.WriteString(paramString(prm))
	}
	head.WriteString(")")
	if fd.Body == nil {
		p.line("%s;", head.String())
		return
	}
	p.line("%s {", head.String())
	p.indent++
	for _, s := range fd.Body.Stmts {
		p.printStmt(s)
	}
	p.indent--
	p.line("}")
}

func paramString(prm *ParamDecl) string {
	var b strings.Builder
	if pt, ok := prm.Type.(*PointerType); ok {
		if pt.Space != Private {
			b.WriteString(pt.Space.String())
			b.WriteString(" ")
		}
		if prm.IsConst {
			b.WriteString("const ")
		}
		b.WriteString(typeSpelling(pt.Elem))
		b.WriteString("* ")
		b.WriteString(prm.Name)
		return b.String()
	}
	if prm.IsConst {
		b.WriteString("const ")
	}
	b.WriteString(typeSpelling(prm.Type))
	b.WriteString(" ")
	b.WriteString(prm.Name)
	return b.String()
}

func (p *Printer) varDeclString(d *VarDecl) string {
	var b strings.Builder
	if d.Space != Private {
		b.WriteString(d.Space.String())
		b.WriteString(" ")
	}
	if d.IsConst {
		b.WriteString("const ")
	}
	// Unwrap array suffixes.
	t := d.Type
	var dims []int
	for {
		at, ok := t.(*ArrayType)
		if !ok {
			break
		}
		dims = append(dims, at.Len)
		t = at.Elem
	}
	if pt, ok := t.(*PointerType); ok {
		b.WriteString(typeSpelling(pt.Elem))
		b.WriteString("* ")
	} else {
		b.WriteString(typeSpelling(t))
		b.WriteString(" ")
	}
	b.WriteString(d.Name)
	for _, n := range dims {
		fmt.Fprintf(&b, "[%d]", n)
	}
	if d.Init != nil {
		b.WriteString(" = ")
		b.WriteString(PrintExpr(d.Init))
	}
	return b.String()
}

// typeSpelling renders a type the way it appears in declarations.
func typeSpelling(t Type) string {
	switch x := t.(type) {
	case *PointerType:
		if x.Space != Private {
			return fmt.Sprintf("%s %s*", x.Space, typeSpelling(x.Elem))
		}
		return typeSpelling(x.Elem) + "*"
	case *StructType:
		if x.Name != "" {
			return "struct " + x.Name
		}
		return x.String()
	default:
		return t.String()
	}
}

func (p *Printer) printStmt(s Stmt) {
	switch x := s.(type) {
	case *BlockStmt:
		p.line("{")
		p.indent++
		for _, st := range x.Stmts {
			p.printStmt(st)
		}
		p.indent--
		p.line("}")
	case *DeclStmt:
		for _, d := range x.Decls {
			p.line("%s;", p.varDeclString(d))
		}
	case *ExprStmt:
		p.line("%s;", PrintExpr(x.X))
	case *EmptyStmt:
		p.line(";")
	case *IfStmt:
		p.printIf(x)
	case *ForStmt:
		init := ""
		switch i := x.Init.(type) {
		case *DeclStmt:
			var parts []string
			for _, d := range i.Decls {
				parts = append(parts, p.varDeclString(d))
			}
			init = strings.Join(parts, ", ")
		case *ExprStmt:
			init = PrintExpr(i.X)
		}
		cond := ""
		if x.Cond != nil {
			cond = PrintExpr(x.Cond)
		}
		post := ""
		if x.Post != nil {
			post = PrintExpr(x.Post)
		}
		p.line("for (%s; %s; %s) {", init, cond, post)
		p.indent++
		p.printBody(x.Body)
		p.indent--
		p.line("}")
	case *WhileStmt:
		p.line("while (%s) {", PrintExpr(x.Cond))
		p.indent++
		p.printBody(x.Body)
		p.indent--
		p.line("}")
	case *DoWhileStmt:
		p.line("do {")
		p.indent++
		p.printBody(x.Body)
		p.indent--
		p.line("} while (%s);", PrintExpr(x.Cond))
	case *ReturnStmt:
		if x.X != nil {
			p.line("return %s;", PrintExpr(x.X))
		} else {
			p.line("return;")
		}
	case *BreakStmt:
		p.line("break;")
	case *ContinueStmt:
		p.line("continue;")
	case *SwitchStmt:
		p.line("switch (%s) {", PrintExpr(x.Tag))
		p.indent++
		for _, cc := range x.Cases {
			if cc.Value != nil {
				p.line("case %s:", PrintExpr(cc.Value))
			} else {
				p.line("default:")
			}
			p.indent++
			for _, st := range cc.Body {
				p.printStmt(st)
			}
			p.indent--
		}
		p.indent--
		p.line("}")
	}
}

// printBody prints a loop or branch body, flattening a BlockStmt so the
// canonical style always brace-wraps exactly once.
func (p *Printer) printBody(s Stmt) {
	if b, ok := s.(*BlockStmt); ok {
		for _, st := range b.Stmts {
			p.printStmt(st)
		}
		return
	}
	p.printStmt(s)
}

func (p *Printer) printIf(x *IfStmt) {
	p.line("if (%s) {", PrintExpr(x.Cond))
	p.indent++
	p.printBody(x.Then)
	p.indent--
	if x.Else == nil {
		p.line("}")
		return
	}
	if elif, ok := x.Else.(*IfStmt); ok {
		p.b.WriteString(strings.Repeat("  ", p.indent))
		p.b.WriteString("} else ")
		// Render the else-if inline.
		rest := &Printer{indent: p.indent}
		rest.printIf(elif)
		s := rest.b.String()
		p.b.WriteString(strings.TrimLeft(s, " "))
		return
	}
	p.line("} else {")
	p.indent++
	p.printBody(x.Else)
	p.indent--
	p.line("}")
}

// expr renders an expression with parentheses inserted according to the
// parent precedence level.
func (p *Printer) expr(e Expr, parentPrec int) {
	switch x := e.(type) {
	case *Ident:
		p.b.WriteString(x.Name)
	case *IntLit:
		p.b.WriteString(x.Text)
	case *FloatLit:
		p.b.WriteString(x.Text)
	case *CharLit:
		p.b.WriteString(x.Text)
	case *StringLit:
		p.b.WriteString(x.Text)
	case *BinaryExpr:
		prec := binaryPrec(x.Op)
		if x.Op == COMMA {
			prec = 1
		}
		open := prec < parentPrec
		if open {
			p.b.WriteString("(")
		}
		p.expr(x.X, prec)
		if x.Op == COMMA {
			p.b.WriteString(", ")
		} else {
			fmt.Fprintf(&p.b, " %s ", x.Op)
		}
		p.expr(x.Y, prec+1)
		if open {
			p.b.WriteString(")")
		}
	case *AssignExpr:
		if parentPrec > 0 {
			p.b.WriteString("(")
		}
		p.expr(x.X, 12)
		fmt.Fprintf(&p.b, " %s ", x.Op)
		p.expr(x.Y, 0)
		if parentPrec > 0 {
			p.b.WriteString(")")
		}
	case *UnaryExpr:
		fmt.Fprintf(&p.b, "%s", x.Op)
		p.expr(x.X, 11)
	case *PostfixExpr:
		p.expr(x.X, 12)
		fmt.Fprintf(&p.b, "%s", x.Op)
	case *CondExpr:
		if parentPrec > 0 {
			p.b.WriteString("(")
		}
		p.expr(x.Cond, 2)
		p.b.WriteString(" ? ")
		p.expr(x.A, 0)
		p.b.WriteString(" : ")
		p.expr(x.B, 0)
		if parentPrec > 0 {
			p.b.WriteString(")")
		}
	case *CallExpr:
		p.b.WriteString(x.Fun)
		p.b.WriteString("(")
		for i, a := range x.Args {
			if i > 0 {
				p.b.WriteString(", ")
			}
			p.expr(a, 0)
		}
		p.b.WriteString(")")
	case *IndexExpr:
		p.expr(x.X, 12)
		p.b.WriteString("[")
		p.expr(x.Index, 0)
		p.b.WriteString("]")
	case *MemberExpr:
		p.expr(x.X, 12)
		if x.Arrow {
			p.b.WriteString("->")
		} else {
			p.b.WriteString(".")
		}
		p.b.WriteString(x.Member)
	case *CastExpr:
		if pack, ok := x.X.(*ArgPack); ok {
			fmt.Fprintf(&p.b, "(%s)(", typeSpelling(x.To))
			for i, a := range pack.Args {
				if i > 0 {
					p.b.WriteString(", ")
				}
				p.expr(a, 0)
			}
			p.b.WriteString(")")
			return
		}
		fmt.Fprintf(&p.b, "(%s)", typeSpelling(x.To))
		p.expr(x.X, 11)
	case *ArgPack:
		p.b.WriteString("(")
		for i, a := range x.Args {
			if i > 0 {
				p.b.WriteString(", ")
			}
			p.expr(a, 0)
		}
		p.b.WriteString(")")
	case *InitList:
		p.b.WriteString("{")
		for i, el := range x.Elems {
			if i > 0 {
				p.b.WriteString(", ")
			}
			p.expr(el, 0)
		}
		p.b.WriteString("}")
	case *SizeofExpr:
		if x.Type != nil {
			fmt.Fprintf(&p.b, "sizeof(%s)", typeSpelling(x.Type))
		} else {
			p.b.WriteString("sizeof ")
			p.expr(x.X, 11)
		}
	}
}
