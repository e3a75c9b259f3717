// Package parser implements a recursive-descent parser for MiniJ.
//
// An op-assignment (x += y, and -=, *=, /=, %=) or an increment (x++, x--)
// is read as x = x op y over one shared target, so its target is evaluated
// twice. A target that contains a call or an allocation is therefore a
// syntax error: a[idx()] += 5 would run idx() twice. Write the index to a
// local first.
package parser

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"slicehide/internal/lang/ast"
	"slicehide/internal/lang/lexer"
	"slicehide/internal/lang/token"
)

// Error is a syntax error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList aggregates syntax errors.
type ErrorList []*Error

func (l ErrorList) Error() string {
	if len(l) == 0 {
		return "no errors"
	}
	var b strings.Builder
	for i, e := range l {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(e.Error())
	}
	return b.String()
}

// Parse parses a whole MiniJ program from src.
func Parse(src string) (*ast.Program, error) {
	p := newParser(src)
	prog := p.parseProgram()
	if len(p.errors) > 0 {
		return prog, p.errors
	}
	return prog, nil
}

type parser struct {
	lex     *lexer.Lexer
	tok     token.Token
	peeked  token.Token
	hasPeek bool
	errors  ErrorList
	// stmts holds the statements of every block being parsed, innermost
	// last; a block copies its own off the top once, at its closing brace.
	stmts []ast.Stmt
}

const maxErrors = 20

func newParser(src string) *parser {
	p := &parser{lex: lexer.New(src)}
	p.next()
	return p
}

var errTooMany = errors.New("too many errors")

func (p *parser) next() {
	if p.hasPeek {
		p.tok, p.hasPeek = p.peeked, false
		return
	}
	p.tok = p.lex.Next()
}

func (p *parser) peek() token.Token {
	if !p.hasPeek {
		p.peeked, p.hasPeek = p.lex.Next(), true
	}
	return p.peeked
}

func (p *parser) errorf(pos token.Pos, format string, args ...any) {
	if len(p.errors) >= maxErrors {
		panic(errTooMany)
	}
	p.errors = append(p.errors, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (p *parser) expect(k token.Kind) token.Token {
	t := p.tok
	if t.Kind != k {
		p.errorf(t.Pos, "expected %s, found %s", k, t)
		// Do not consume; caller-driven recovery.
		return token.Token{Kind: k, Pos: t.Pos}
	}
	p.next()
	return t
}

func (p *parser) accept(k token.Kind) bool {
	if p.tok.Kind == k {
		p.next()
		return true
	}
	return false
}

// sync skips tokens until a likely statement/declaration boundary.
func (p *parser) sync(stop ...token.Kind) {
	for p.tok.Kind != token.EOF && !slices.Contains(stop, p.tok.Kind) {
		p.next()
	}
}

func (p *parser) parseProgram() *ast.Program {
	prog := &ast.Program{}
	defer func() {
		if r := recover(); r != nil && r != any(errTooMany) {
			panic(r)
		}
	}()
	for p.tok.Kind != token.EOF {
		switch p.tok.Kind {
		case token.VAR:
			prog.Globals = append(prog.Globals, p.parseGlobal())
		case token.CLASS:
			prog.Classes = append(prog.Classes, p.parseClass())
		case token.FUNC:
			prog.Funcs = append(prog.Funcs, p.parseFunc(token.FUNC))
		default:
			p.errorf(p.tok.Pos, "expected declaration, found %s", p.tok)
			p.next()
			p.sync(token.VAR, token.CLASS, token.FUNC)
		}
	}
	return prog
}

func (p *parser) parseGlobal() *ast.GlobalDecl {
	p.expect(token.VAR)
	name := p.expect(token.IDENT)
	p.expect(token.COLON)
	typ := p.parseType()
	var init ast.Expr
	if p.accept(token.ASSIGN) {
		init = p.parseExpr()
	}
	p.expect(token.SEMI)
	return &ast.GlobalDecl{NPos: name.Pos, Name: name.Lit, Type: typ, Init: init}
}

func (p *parser) parseClass() *ast.ClassDecl {
	kw := p.expect(token.CLASS)
	name := p.expect(token.IDENT)
	p.expect(token.LBRACE)
	c := &ast.ClassDecl{NPos: kw.Pos, Name: name.Lit}
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		switch p.tok.Kind {
		case token.FIELD:
			p.next()
			fname := p.expect(token.IDENT)
			p.expect(token.COLON)
			ftyp := p.parseType()
			p.expect(token.SEMI)
			c.Fields = append(c.Fields, &ast.FieldDecl{NPos: fname.Pos, Name: fname.Lit, Type: ftyp})
		case token.METHOD:
			c.Methods = append(c.Methods, p.parseFunc(token.METHOD))
		default:
			p.errorf(p.tok.Pos, "expected field or method, found %s", p.tok)
			p.next()
			p.sync(token.FIELD, token.METHOD, token.RBRACE)
		}
	}
	p.expect(token.RBRACE)
	return c
}

func (p *parser) parseFunc(kw token.Kind) *ast.FuncDecl {
	p.expect(kw)
	name := p.expect(token.IDENT)
	p.expect(token.LPAREN)
	var params []ast.Param
	for p.tok.Kind != token.RPAREN && p.tok.Kind != token.EOF {
		if len(params) > 0 {
			p.expect(token.COMMA)
		}
		pn := p.expect(token.IDENT)
		p.expect(token.COLON)
		pt := p.parseType()
		params = append(params, ast.Param{NPos: pn.Pos, Name: pn.Lit, Type: pt})
	}
	p.expect(token.RPAREN)
	var result ast.Type = &ast.BasicType{TPos: name.Pos, Kind: ast.Void}
	if p.accept(token.COLON) {
		result = p.parseType()
	}
	body := p.parseBlock()
	return &ast.FuncDecl{NPos: name.Pos, Name: name.Lit, Params: params, Result: result, Body: body}
}

func (p *parser) parseType() ast.Type {
	pos := p.tok.Pos
	var t ast.Type
	switch p.tok.Kind {
	case token.INTTYPE:
		p.next()
		t = &ast.BasicType{TPos: pos, Kind: ast.Int}
	case token.FLOATTYPE:
		p.next()
		t = &ast.BasicType{TPos: pos, Kind: ast.Float}
	case token.BOOLTYPE:
		p.next()
		t = &ast.BasicType{TPos: pos, Kind: ast.Bool}
	case token.STRINGTYPE:
		p.next()
		t = &ast.BasicType{TPos: pos, Kind: ast.String}
	case token.VOIDTYPE:
		p.next()
		t = &ast.BasicType{TPos: pos, Kind: ast.Void}
	case token.IDENT:
		t = &ast.ClassType{TPos: pos, Name: p.tok.Lit}
		p.next()
	default:
		p.errorf(pos, "expected type, found %s", p.tok)
		p.next()
		return &ast.BasicType{TPos: pos, Kind: ast.Int}
	}
	for p.tok.Kind == token.LBRACK && p.peek().Kind == token.RBRACK {
		p.next()
		p.next()
		t = &ast.ArrayType{TPos: pos, Elem: t}
	}
	return t
}

func (p *parser) parseBlock() *ast.Block {
	lb := p.expect(token.LBRACE)
	b := &ast.Block{BPos: lb.Pos}
	base := len(p.stmts)
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		before := p.tok
		p.stmts = append(p.stmts, p.parseStmt())
		if p.tok == before && len(p.errors) > 0 {
			// No progress; skip a token to avoid looping.
			p.next()
		}
	}
	if len(p.stmts) > base {
		b.Stmts = slices.Clone(p.stmts[base:])
		p.stmts = p.stmts[:base]
	}
	p.expect(token.RBRACE)
	return b
}

func (p *parser) parseStmt() ast.Stmt {
	switch p.tok.Kind {
	case token.VAR:
		return p.parseVarDecl()
	case token.IF:
		return p.parseIf()
	case token.WHILE:
		return p.parseWhile()
	case token.FOR:
		return p.parseFor()
	case token.RETURN:
		r := p.tok
		p.next()
		var v ast.Expr
		if p.tok.Kind != token.SEMI {
			v = p.parseExpr()
		}
		p.expect(token.SEMI)
		return &ast.Return{RPos: r.Pos, Value: v}
	case token.BREAK:
		b := p.tok
		p.next()
		p.expect(token.SEMI)
		return &ast.Break{BPos: b.Pos}
	case token.CONTINUE:
		c := p.tok
		p.next()
		p.expect(token.SEMI)
		return &ast.Continue{CPos: c.Pos}
	case token.PRINT:
		pr := p.tok
		p.next()
		p.expect(token.LPAREN)
		var args []ast.Expr
		for p.tok.Kind != token.RPAREN && p.tok.Kind != token.EOF {
			if len(args) > 0 {
				p.expect(token.COMMA)
			}
			args = append(args, p.parseExpr())
		}
		p.expect(token.RPAREN)
		p.expect(token.SEMI)
		return &ast.Print{PPos: pr.Pos, Args: args}
	case token.LBRACE:
		return p.parseBlock()
	}
	s := p.parseSimpleStmt()
	p.expect(token.SEMI)
	return s
}

func (p *parser) parseVarDecl() *ast.VarDecl {
	p.expect(token.VAR)
	name := p.expect(token.IDENT)
	p.expect(token.COLON)
	typ := p.parseType()
	var init ast.Expr
	if p.accept(token.ASSIGN) {
		init = p.parseExpr()
	}
	p.expect(token.SEMI)
	return &ast.VarDecl{NPos: name.Pos, Name: name.Lit, Type: typ, Init: init}
}

// parseSimpleStmt parses an assignment, op-assignment, increment, or
// expression statement (without the trailing semicolon). An op-assignment
// or increment becomes lhs = lhs op rhs over the one lhs node.
func (p *parser) parseSimpleStmt() ast.Stmt {
	lhs := p.parseExpr()
	kind := p.tok.Kind
	var rhs ast.Expr
	switch kind {
	case token.ASSIGN:
		p.next()
		return &ast.Assign{Lhs: lhs, Rhs: p.parseExpr()}
	case token.PLUSEQ, token.MINUSEQ, token.STAREQ, token.SLASHEQ, token.PERCENTEQ:
		p.next()
		rhs = p.parseExpr()
	case token.PLUSPLUS, token.MINUSMINUS:
		p.next()
		rhs = &ast.IntLit{LPos: lhs.Pos(), Value: 1}
	default:
		return &ast.ExprStmt{X: lhs}
	}
	if ast.HasCall(lhs) {
		p.errorf(lhs.Pos(), "%s target contains a call or allocation, which it would evaluate twice", kind)
	}
	return &ast.Assign{Lhs: lhs, Rhs: &ast.Binary{Op: opOfAssign(kind), X: lhs, Y: rhs}}
}

func opOfAssign(k token.Kind) token.Kind {
	switch k {
	case token.PLUSEQ, token.PLUSPLUS:
		return token.PLUS
	case token.MINUSEQ, token.MINUSMINUS:
		return token.MINUS
	case token.STAREQ:
		return token.STAR
	case token.SLASHEQ:
		return token.SLASH
	case token.PERCENTEQ:
		return token.PERCENT
	}
	return token.ILLEGAL
}

func (p *parser) parseIf() *ast.If {
	kw := p.expect(token.IF)
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	then := p.parseBlock()
	var els *ast.Block
	if p.accept(token.ELSE) {
		if p.tok.Kind == token.IF {
			inner := p.parseIf()
			els = &ast.Block{BPos: inner.IPos, Stmts: []ast.Stmt{inner}}
		} else {
			els = p.parseBlock()
		}
	}
	return &ast.If{IPos: kw.Pos, Cond: cond, Then: then, Else: els}
}

func (p *parser) parseWhile() *ast.While {
	kw := p.expect(token.WHILE)
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	body := p.parseBlock()
	return &ast.While{WPos: kw.Pos, Cond: cond, Body: body}
}

func (p *parser) parseFor() *ast.For {
	kw := p.expect(token.FOR)
	p.expect(token.LPAREN)
	f := &ast.For{FPos: kw.Pos}
	if p.tok.Kind != token.SEMI {
		if p.tok.Kind == token.VAR {
			p.next()
			name := p.expect(token.IDENT)
			p.expect(token.COLON)
			typ := p.parseType()
			var init ast.Expr
			if p.accept(token.ASSIGN) {
				init = p.parseExpr()
			}
			f.Init = &ast.VarDecl{NPos: name.Pos, Name: name.Lit, Type: typ, Init: init}
		} else {
			f.Init = p.parseSimpleStmt()
		}
	}
	p.expect(token.SEMI)
	if p.tok.Kind != token.SEMI {
		f.Cond = p.parseExpr()
	}
	p.expect(token.SEMI)
	if p.tok.Kind != token.RPAREN {
		f.Post = p.parseSimpleStmt()
	}
	p.expect(token.RPAREN)
	f.Body = p.parseBlock()
	return f
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

func (p *parser) parseExpr() ast.Expr {
	return p.parseCond()
}

func (p *parser) parseCond() ast.Expr {
	c := p.parseBinary(1)
	if p.accept(token.QUESTION) {
		t := p.parseCond()
		p.expect(token.COLON)
		f := p.parseCond()
		return &ast.Cond{C: c, T: t, F: f}
	}
	return c
}

func (p *parser) parseBinary(minPrec int) ast.Expr {
	x := p.parseUnary()
	for {
		prec := p.tok.Kind.Precedence()
		if prec < minPrec {
			return x
		}
		op := p.tok.Kind
		p.next()
		y := p.parseBinary(prec + 1)
		x = &ast.Binary{Op: op, X: x, Y: y}
	}
}

func (p *parser) parseUnary() ast.Expr {
	switch p.tok.Kind {
	case token.MINUS, token.NOT:
		op := p.tok
		p.next()
		x := p.parseUnary()
		return &ast.Unary{OpPos: op.Pos, Op: op.Kind, X: x}
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() ast.Expr {
	x := p.parsePrimary()
	for {
		switch p.tok.Kind {
		case token.LBRACK:
			p.next()
			i := p.parseExpr()
			p.expect(token.RBRACK)
			x = &ast.Index{Arr: x, I: i}
		case token.DOT:
			p.next()
			name := p.expect(token.IDENT)
			if p.tok.Kind == token.LPAREN {
				args := p.parseArgs()
				x = &ast.MethodCall{Recv: x, Name: name.Lit, NPos: name.Pos, Args: args}
			} else {
				x = &ast.FieldAccess{Obj: x, Name: name.Lit, NPos: name.Pos}
			}
		default:
			return x
		}
	}
}

func (p *parser) parseArgs() []ast.Expr {
	p.expect(token.LPAREN)
	var args []ast.Expr
	for p.tok.Kind != token.RPAREN && p.tok.Kind != token.EOF {
		if len(args) > 0 {
			p.expect(token.COMMA)
		}
		args = append(args, p.parseExpr())
	}
	p.expect(token.RPAREN)
	return args
}

func (p *parser) parsePrimary() ast.Expr {
	t := p.tok
	switch t.Kind {
	case token.INT, token.CHAR:
		p.next()
		v, err := strconv.ParseInt(t.Lit, 10, 64)
		if err != nil {
			p.errorf(t.Pos, "invalid integer literal %q", t.Lit)
		}
		return &ast.IntLit{LPos: t.Pos, Value: v}
	case token.FLOAT:
		p.next()
		v, err := strconv.ParseFloat(t.Lit, 64)
		if err != nil {
			p.errorf(t.Pos, "invalid float literal %q", t.Lit)
		}
		return &ast.FloatLit{LPos: t.Pos, Value: v}
	case token.STRING:
		p.next()
		return &ast.StringLit{LPos: t.Pos, Value: t.Lit}
	case token.TRUE:
		p.next()
		return &ast.BoolLit{LPos: t.Pos, Value: true}
	case token.FALSE:
		p.next()
		return &ast.BoolLit{LPos: t.Pos, Value: false}
	case token.NULL:
		p.next()
		return &ast.NullLit{LPos: t.Pos}
	case token.IDENT:
		p.next()
		if p.tok.Kind == token.LPAREN {
			args := p.parseArgs()
			return &ast.Call{NPos: t.Pos, Name: t.Lit, Args: args}
		}
		return &ast.Ident{NPos: t.Pos, Name: t.Lit}
	case token.LEN:
		p.next()
		p.expect(token.LPAREN)
		arr := p.parseExpr()
		p.expect(token.RPAREN)
		return &ast.LenExpr{NPos: t.Pos, Arr: arr}
	case token.INTTYPE, token.FLOATTYPE:
		// Numeric conversion: int(e) / float(e).
		kind := ast.Int
		if t.Kind == token.FLOATTYPE {
			kind = ast.Float
		}
		p.next()
		p.expect(token.LPAREN)
		x := p.parseExpr()
		p.expect(token.RPAREN)
		return &ast.Convert{NPos: t.Pos, To: kind, X: x}
	case token.NEW:
		p.next()
		if p.tok.Kind == token.IDENT && p.peek().Kind == token.LPAREN {
			name := p.expect(token.IDENT)
			p.expect(token.LPAREN)
			p.expect(token.RPAREN)
			return &ast.NewObject{NPos: t.Pos, Name: name.Lit}
		}
		elem := p.parseType()
		// The innermost LBRACK carries the size: new int[10].
		p.expect(token.LBRACK)
		size := p.parseExpr()
		p.expect(token.RBRACK)
		// Trailing [] pairs add nesting: new int[10][] is an array of int[].
		for p.tok.Kind == token.LBRACK && p.peek().Kind == token.RBRACK {
			p.next()
			p.next()
			elem = &ast.ArrayType{TPos: t.Pos, Elem: elem}
		}
		return &ast.NewArray{NPos: t.Pos, Elem: elem, Size: size}
	case token.LPAREN:
		p.next()
		e := p.parseExpr()
		p.expect(token.RPAREN)
		return e
	}
	p.errorf(t.Pos, "expected expression, found %s", t)
	p.next()
	return &ast.IntLit{LPos: t.Pos, Value: 0}
}
