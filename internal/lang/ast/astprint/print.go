// Package astprint renders MiniJ syntax trees back to source text. Only
// tests use it (the parser's round trips, the type checker's expression
// tables), so no binary links it; see the Makefile's printer-tests-only.
package astprint

import (
	"fmt"
	"strings"

	"slicehide/internal/lang/ast"
	"slicehide/internal/lang/token"
)

// Format renders the program back to MiniJ source text. The output parses to
// an equivalent program, which the parser round-trip tests rely on.
func Format(p *ast.Program) string {
	var b strings.Builder
	pr := printer{w: &b}
	for _, g := range p.Globals {
		pr.global(g)
	}
	for _, c := range p.Classes {
		pr.class(c)
	}
	for _, f := range p.Funcs {
		pr.funcDecl("func", f)
	}
	return b.String()
}

// ExprString renders an expression as source text.
func ExprString(e ast.Expr) string {
	var b strings.Builder
	(&printer{w: &b}).expr(e, 0)
	return b.String()
}

type printer struct {
	w   *strings.Builder
	ind int
}

func (p *printer) line(format string, args ...any) {
	p.w.WriteString(strings.Repeat("    ", p.ind))
	fmt.Fprintf(p.w, format, args...)
	p.w.WriteByte('\n')
}

func (p *printer) global(g *ast.GlobalDecl) {
	if g.Init != nil {
		p.line("var %s: %s = %s;", g.Name, g.Type, ExprString(g.Init))
	} else {
		p.line("var %s: %s;", g.Name, g.Type)
	}
}

func (p *printer) class(c *ast.ClassDecl) {
	p.line("class %s {", c.Name)
	p.ind++
	for _, f := range c.Fields {
		p.line("field %s: %s;", f.Name, f.Type)
	}
	for _, m := range c.Methods {
		p.funcDecl("method", m)
	}
	p.ind--
	p.line("}")
}

func (p *printer) funcDecl(kw string, f *ast.FuncDecl) {
	params := make([]string, len(f.Params))
	for i, pa := range f.Params {
		params[i] = fmt.Sprintf("%s: %s", pa.Name, pa.Type)
	}
	sig := fmt.Sprintf("%s %s(%s)", kw, f.Name, strings.Join(params, ", "))
	if bt, ok := f.Result.(*ast.BasicType); !ok || bt.Kind != ast.Void {
		sig += ": " + f.Result.String()
	}
	p.line("%s {", sig)
	p.ind++
	for _, s := range f.Body.Stmts {
		p.stmt(s)
	}
	p.ind--
	p.line("}")
}

func (p *printer) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.VarDecl:
		if s.Init != nil {
			p.line("var %s: %s = %s;", s.Name, s.Type, ExprString(s.Init))
		} else {
			p.line("var %s: %s;", s.Name, s.Type)
		}
	case *ast.Assign:
		p.line("%s = %s;", ExprString(s.Lhs), ExprString(s.Rhs))
	case *ast.If:
		p.line("if (%s) {", ExprString(s.Cond))
		p.ind++
		for _, t := range s.Then.Stmts {
			p.stmt(t)
		}
		p.ind--
		if s.Else != nil {
			p.line("} else {")
			p.ind++
			for _, t := range s.Else.Stmts {
				p.stmt(t)
			}
			p.ind--
		}
		p.line("}")
	case *ast.While:
		p.line("while (%s) {", ExprString(s.Cond))
		p.ind++
		for _, t := range s.Body.Stmts {
			p.stmt(t)
		}
		p.ind--
		p.line("}")
	case *ast.For:
		init, cond, post := "", "", ""
		if s.Init != nil {
			init = clause(s.Init)
		}
		if s.Cond != nil {
			cond = ExprString(s.Cond)
		}
		if s.Post != nil {
			post = clause(s.Post)
		}
		p.line("for (%s; %s; %s) {", init, cond, post)
		p.ind++
		for _, t := range s.Body.Stmts {
			p.stmt(t)
		}
		p.ind--
		p.line("}")
	case *ast.Return:
		if s.Value != nil {
			p.line("return %s;", ExprString(s.Value))
		} else {
			p.line("return;")
		}
	case *ast.Break:
		p.line("break;")
	case *ast.Continue:
		p.line("continue;")
	case *ast.Print:
		args := make([]string, len(s.Args))
		for i, a := range s.Args {
			args[i] = ExprString(a)
		}
		p.line("print(%s);", strings.Join(args, ", "))
	case *ast.ExprStmt:
		p.line("%s;", ExprString(s.X))
	case *ast.Block:
		p.line("{")
		p.ind++
		for _, t := range s.Stmts {
			p.stmt(t)
		}
		p.ind--
		p.line("}")
	default:
		p.line("/* unknown stmt %T */", s)
	}
}

func (p *printer) expr(e ast.Expr, prec int) {
	switch e := e.(type) {
	case *ast.IntLit:
		fmt.Fprintf(p.w, "%d", e.Value)
	case *ast.FloatLit:
		s := fmt.Sprintf("%g", e.Value)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		p.w.WriteString(s)
	case *ast.BoolLit:
		fmt.Fprintf(p.w, "%t", e.Value)
	case *ast.StringLit:
		quote(p.w, e.Value)
	case *ast.NullLit:
		p.w.WriteString("null")
	case *ast.Ident:
		p.w.WriteString(e.Name)
	case *ast.Unary:
		p.w.WriteString(e.Op.String())
		if x, ok := e.X.(*ast.Unary); ok && x.Op == token.MINUS && e.Op == token.MINUS {
			p.w.WriteByte(' ') // "--" would lex as a decrement
		}
		p.expr(e.X, 7)
	case *ast.Binary:
		op := e.Op.Precedence()
		if op < prec {
			p.w.WriteByte('(')
		}
		p.expr(e.X, op)
		fmt.Fprintf(p.w, " %s ", e.Op)
		p.expr(e.Y, op+1)
		if op < prec {
			p.w.WriteByte(')')
		}
	case *ast.Index:
		p.expr(e.Arr, 8)
		p.w.WriteByte('[')
		p.expr(e.I, 0)
		p.w.WriteByte(']')
	case *ast.FieldAccess:
		p.expr(e.Obj, 8)
		p.w.WriteByte('.')
		p.w.WriteString(e.Name)
	case *ast.Call:
		p.w.WriteString(e.Name)
		p.args(e.Args)
	case *ast.MethodCall:
		p.expr(e.Recv, 8)
		p.w.WriteByte('.')
		p.w.WriteString(e.Name)
		p.args(e.Args)
	case *ast.NewObject:
		fmt.Fprintf(p.w, "new %s()", e.Name)
	case *ast.NewArray:
		fmt.Fprintf(p.w, "new %s[", e.Elem)
		p.expr(e.Size, 0)
		p.w.WriteByte(']')
	case *ast.LenExpr:
		p.w.WriteString("len(")
		p.expr(e.Arr, 0)
		p.w.WriteByte(')')
	case *ast.Convert:
		p.w.WriteString(e.To.String())
		p.w.WriteByte('(')
		p.expr(e.X, 0)
		p.w.WriteByte(')')
	case *ast.Cond:
		if prec > 0 {
			p.w.WriteByte('(')
		}
		p.expr(e.C, 1)
		p.w.WriteString(" ? ")
		p.expr(e.T, 1)
		p.w.WriteString(" : ")
		p.expr(e.F, 1)
		if prec > 0 {
			p.w.WriteByte(')')
		}
	default:
		fmt.Fprintf(p.w, "/* unknown expr %T */", e)
	}
}

// quote writes s as a MiniJ string literal: the escapes the lexer knows,
// every other character as itself.
func quote(w *strings.Builder, s string) {
	w.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"', '\\':
			w.WriteByte('\\')
			w.WriteRune(r)
		case '\n':
			w.WriteString(`\n`)
		case 0:
			w.WriteString(`\0`)
		default:
			w.WriteRune(r)
		}
	}
	w.WriteByte('"')
}

func (p *printer) args(args []ast.Expr) {
	p.w.WriteByte('(')
	for i, a := range args {
		if i > 0 {
			p.w.WriteString(", ")
		}
		p.expr(a, 0)
	}
	p.w.WriteByte(')')
}

// clause renders a for-loop init or post statement on one line, without its
// semicolon.
func clause(s ast.Stmt) string {
	var b strings.Builder
	(&printer{w: &b}).stmt(s)
	return strings.TrimSuffix(strings.TrimSpace(b.String()), ";")
}
