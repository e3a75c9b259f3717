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

	"slicehide/internal/lang/ast"
	"slicehide/internal/lang/lexer"
	"slicehide/internal/lang/token"
	"slicehide/internal/slab"
)

// Error is a syntax error; ErrorList is a parse's errors.
type (
	Error     = token.Error
	ErrorList = token.ErrorList
)

// Parse parses a whole MiniJ program from src. Its errors are the syntax
// errors, then the lexical ones, under one cap.
func Parse(src string) (*ast.Program, error) {
	p := newParser(src)
	prog := p.parseProgram()
	lexed := p.lex.Errors()
	if p.errors = append(p.errors, lexed[:min(len(lexed), maxErrors-len(p.errors))]...); len(p.errors) > 0 {
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
	// args does the same for argument lists, params for the parameters of
	// the function being parsed.
	stmts  []ast.Stmt
	args   []ast.Expr
	params []ast.Param

	// The most frequent nodes, and the lists that hold them, come from
	// blocks that belong to this parse.
	stmtLists  slab.Of[ast.Stmt]
	exprLists  slab.Of[ast.Expr]
	paramLists slab.Of[ast.Param]
	funcs      slab.Of[ast.FuncDecl]
	idents     slab.Of[ast.Ident]
	ints       slab.Of[ast.IntLit]
	binaries   slab.Of[ast.Binary]
	basics     slab.Of[ast.BasicType]
	varDecls   slab.Of[ast.VarDecl]
	assigns    slab.Of[ast.Assign]
	ifs        slab.Of[ast.If]
	whiles     slab.Of[ast.While]
	fors       slab.Of[ast.For]
	returns    slab.Of[ast.Return]
	breaks     slab.Of[ast.Break]
	continues  slab.Of[ast.Continue]
	prints     slab.Of[ast.Print]
	exprStmts  slab.Of[ast.ExprStmt]
	blocks     slab.Of[ast.Block]
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
	d := p.parseVarDecl()
	p.expect(token.SEMI)
	return &ast.GlobalDecl{NPos: d.NPos, Name: d.Name, Type: d.Type, Init: d.Init}
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
	p.params = p.params[:0]
	for p.tok.Kind != token.RPAREN && p.tok.Kind != token.EOF {
		if len(p.params) > 0 {
			p.expect(token.COMMA)
		}
		pn := p.expect(token.IDENT)
		p.expect(token.COLON)
		pt := p.parseType()
		p.params = append(p.params, ast.Param{NPos: pn.Pos, Name: pn.Lit, Type: pt})
	}
	params := p.paramLists.Make(len(p.params))
	copy(params, p.params)
	p.expect(token.RPAREN)
	var result ast.Type = p.basics.New(ast.BasicType{TPos: name.Pos, Kind: ast.Void})
	if p.accept(token.COLON) {
		result = p.parseType()
	}
	body := p.parseBlock()
	return p.funcs.New(ast.FuncDecl{NPos: name.Pos, Name: name.Lit, Params: params, Result: result, Body: body})
}

// basicKinds maps the keywords that name a basic type to it.
var basicKinds = map[token.Kind]ast.BasicKind{
	token.INTTYPE: ast.Int, token.FLOATTYPE: ast.Float, token.BOOLTYPE: ast.Bool,
	token.STRINGTYPE: ast.String, token.VOIDTYPE: ast.Void,
}

func (p *parser) parseType() ast.Type {
	pos := p.tok.Pos
	var t ast.Type
	switch kind, basic := basicKinds[p.tok.Kind]; {
	case basic:
		p.next()
		t = p.basics.New(ast.BasicType{TPos: pos, Kind: kind})
	case p.tok.Kind == token.IDENT:
		t = &ast.ClassType{TPos: pos, Name: p.tok.Lit}
		p.next()
	default:
		p.errorf(pos, "expected type, found %s", p.tok)
		p.next()
		return p.basics.New(ast.BasicType{TPos: pos, Kind: ast.Int})
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
	b := p.blocks.New(ast.Block{BPos: lb.Pos})
	base := len(p.stmts)
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		before := p.tok
		p.stmts = append(p.stmts, p.parseStmt())
		if p.tok == before && len(p.errors) > 0 {
			// No progress; skip a token to avoid looping.
			p.next()
		}
	}
	b.Stmts = p.stmtLists.Make(len(p.stmts) - base)
	copy(b.Stmts, p.stmts[base:])
	p.stmts = p.stmts[:base]
	p.expect(token.RBRACE)
	return b
}

func (p *parser) parseStmt() ast.Stmt {
	switch p.tok.Kind {
	case token.VAR:
		d := p.parseVarDecl()
		p.expect(token.SEMI)
		return d
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
		return p.returns.New(ast.Return{RPos: r.Pos, Value: v})
	case token.BREAK:
		b := p.tok
		p.next()
		p.expect(token.SEMI)
		return p.breaks.New(ast.Break{BPos: b.Pos})
	case token.CONTINUE:
		c := p.tok
		p.next()
		p.expect(token.SEMI)
		return p.continues.New(ast.Continue{CPos: c.Pos})
	case token.PRINT:
		pr := p.tok
		p.next()
		args := p.parseArgs()
		p.expect(token.SEMI)
		return p.prints.New(ast.Print{PPos: pr.Pos, Args: args})
	case token.LBRACE:
		return p.parseBlock()
	}
	s := p.parseSimpleStmt()
	p.expect(token.SEMI)
	return s
}

// parseVarDecl parses "var name: type [= init]" up to, not including, the
// semicolon; globals, locals and a for loop's init share it.
func (p *parser) parseVarDecl() *ast.VarDecl {
	p.expect(token.VAR)
	name := p.expect(token.IDENT)
	p.expect(token.COLON)
	typ := p.parseType()
	var init ast.Expr
	if p.accept(token.ASSIGN) {
		init = p.parseExpr()
	}
	return p.varDecls.New(ast.VarDecl{NPos: name.Pos, Name: name.Lit, Type: typ, Init: init})
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
		return p.assigns.New(ast.Assign{Lhs: lhs, Rhs: p.parseExpr()})
	case token.PLUSEQ, token.MINUSEQ, token.STAREQ, token.SLASHEQ, token.PERCENTEQ:
		p.next()
		rhs = p.parseExpr()
	case token.PLUSPLUS, token.MINUSMINUS:
		p.next()
		rhs = p.ints.New(ast.IntLit{LPos: lhs.Pos(), Value: 1})
	default:
		return p.exprStmts.New(ast.ExprStmt{X: lhs})
	}
	if ast.HasCall(lhs) {
		p.errorf(lhs.Pos(), "%s target contains a call or allocation, which it would evaluate twice", kind)
	}
	return p.assigns.New(ast.Assign{Lhs: lhs, Rhs: p.binaries.New(ast.Binary{Op: opOfAssign[kind], X: lhs, Y: rhs})})
}

// opOfAssign maps an op-assignment or increment to its binary operator.
var opOfAssign = map[token.Kind]token.Kind{
	token.PLUSEQ: token.PLUS, token.PLUSPLUS: token.PLUS, token.MINUSEQ: token.MINUS,
	token.MINUSMINUS: token.MINUS, token.STAREQ: token.STAR, token.SLASHEQ: token.SLASH,
	token.PERCENTEQ: token.PERCENT,
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
			els = p.blocks.New(ast.Block{BPos: inner.IPos, Stmts: p.stmtLists.Make(1)})
			els.Stmts[0] = inner
		} else {
			els = p.parseBlock()
		}
	}
	return p.ifs.New(ast.If{IPos: kw.Pos, Cond: cond, Then: then, Else: els})
}

func (p *parser) parseWhile() *ast.While {
	kw := p.expect(token.WHILE)
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	body := p.parseBlock()
	return p.whiles.New(ast.While{WPos: kw.Pos, Cond: cond, Body: body})
}

func (p *parser) parseFor() *ast.For {
	kw := p.expect(token.FOR)
	p.expect(token.LPAREN)
	f := p.fors.New(ast.For{FPos: kw.Pos})
	if p.tok.Kind != token.SEMI {
		if p.tok.Kind == token.VAR {
			f.Init = p.parseVarDecl()
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
		x = p.binaries.New(ast.Binary{Op: op, X: x, Y: y})
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
	base := len(p.args)
	for p.tok.Kind != token.RPAREN && p.tok.Kind != token.EOF {
		if len(p.args) > base {
			p.expect(token.COMMA)
		}
		p.args = append(p.args, p.parseExpr())
	}
	p.expect(token.RPAREN)
	args := p.exprLists.Make(len(p.args) - base)
	copy(args, p.args[base:])
	p.args = p.args[:base]
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
		return p.ints.New(ast.IntLit{LPos: t.Pos, Value: v})
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
		return p.idents.New(ast.Ident{NPos: t.Pos, Name: t.Lit})
	case token.LEN:
		p.next()
		p.expect(token.LPAREN)
		arr := p.parseExpr()
		p.expect(token.RPAREN)
		return &ast.LenExpr{NPos: t.Pos, Arr: arr}
	case token.INTTYPE, token.FLOATTYPE:
		// Numeric conversion: int(e) / float(e).
		kind := basicKinds[t.Kind]
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
	return p.ints.New(ast.IntLit{LPos: t.Pos, Value: 0})
}
