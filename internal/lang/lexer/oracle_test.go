package lexer

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"slicehide/internal/lang/token"
)

// runeLexer is the rune-by-rune scanner the byte scanner replaced, kept as
// the oracle FuzzLexer and TestLexerMatchesOracleOnCorpora compare Lexer
// against: it decodes every byte as a rune, counts columns one rune at a
// time and looks identifiers up in a map. Its tokens, positions, literals
// and errors define what Lexer must produce.
type runeLexer struct {
	src    string
	off    int // byte offset of next rune
	ch     rune
	chLen  int
	line   int32
	col    int32
	errors []*Error
}

func newRuneLexer(src string) *runeLexer {
	l := &runeLexer{src: src, line: 1, col: 0}
	l.advance()
	return l
}

const oracleEOF = rune(-1)

// oracleKeywords spells every keyword out, independently of the byte
// scanner's table.
var oracleKeywords = map[string]token.Kind{
	"func": token.FUNC, "method": token.METHOD, "class": token.CLASS,
	"field": token.FIELD, "var": token.VAR, "if": token.IF, "else": token.ELSE,
	"while": token.WHILE, "for": token.FOR, "return": token.RETURN,
	"break": token.BREAK, "continue": token.CONTINUE, "print": token.PRINT,
	"new": token.NEW, "true": token.TRUE, "false": token.FALSE,
	"null": token.NULL, "int": token.INTTYPE, "float": token.FLOATTYPE,
	"bool": token.BOOLTYPE, "string": token.STRINGTYPE, "void": token.VOIDTYPE,
	"len": token.LEN,
}

func (l *runeLexer) advance() {
	l.off += l.chLen
	if l.off >= len(l.src) {
		l.ch, l.chLen = oracleEOF, 0
		l.col++
		return
	}
	r, w := utf8.DecodeRuneInString(l.src[l.off:])
	if l.ch == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	l.ch, l.chLen = r, w
}

func (l *runeLexer) peek() rune {
	if l.off+l.chLen >= len(l.src) {
		return oracleEOF
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.off+l.chLen:])
	return r
}

func (l *runeLexer) errorf(pos token.Pos, format string, args ...any) {
	l.errors = append(l.errors, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (l *runeLexer) skipSpaceAndComments() {
	for {
		for l.ch == ' ' || l.ch == '\t' || l.ch == '\r' || l.ch == '\n' {
			l.advance()
		}
		if l.ch == '/' && l.peek() == '/' {
			for l.ch != '\n' && l.ch != oracleEOF {
				l.advance()
			}
			continue
		}
		if l.ch == '/' && l.peek() == '*' {
			pos := l.pos()
			l.advance() // '/'
			l.advance() // '*'
			closed := false
			for l.ch != oracleEOF {
				if l.ch == '*' && l.peek() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(pos, "unterminated block comment")
			}
			continue
		}
		return
	}
}

func (l *runeLexer) pos() token.Pos { return token.Pos{Line: l.line, Col: l.col} }

func oracleIsLetter(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func oracleIsDigit(r rune) bool { return r >= '0' && r <= '9' }

func (l *runeLexer) Next() token.Token {
	l.skipSpaceAndComments()
	pos := l.pos()
	switch {
	case l.ch == oracleEOF:
		return token.Token{Kind: token.EOF, Pos: pos}
	case oracleIsLetter(l.ch):
		return l.scanIdent(pos)
	case oracleIsDigit(l.ch):
		return l.scanNumber(pos)
	case l.ch == '"':
		return l.scanString(pos)
	case l.ch == '\'':
		return l.scanChar(pos)
	}
	return l.scanOperator(pos)
}

func (l *runeLexer) scanIdent(pos token.Pos) token.Token {
	start := l.off
	for oracleIsLetter(l.ch) || oracleIsDigit(l.ch) {
		l.advance()
	}
	lit := l.src[start:l.off]
	if kind, ok := oracleKeywords[lit]; ok {
		return token.Token{Kind: kind, Pos: pos, Lit: lit}
	}
	return token.Token{Kind: token.IDENT, Pos: pos, Lit: lit}
}

func (l *runeLexer) scanNumber(pos token.Pos) token.Token {
	start := l.off
	for oracleIsDigit(l.ch) {
		l.advance()
	}
	kind := token.INT
	if l.ch == '.' && oracleIsDigit(l.peek()) {
		kind = token.FLOAT
		l.advance()
		for oracleIsDigit(l.ch) {
			l.advance()
		}
	}
	if l.ch == 'e' || l.ch == 'E' {
		if next := l.peek(); oracleIsDigit(next) || next == '+' || next == '-' {
			kind = token.FLOAT
			l.advance()
			if l.ch == '+' || l.ch == '-' {
				l.advance()
			}
			if !oracleIsDigit(l.ch) {
				l.errorf(pos, "malformed exponent in numeric literal")
			}
			for oracleIsDigit(l.ch) {
				l.advance()
			}
		}
	}
	return token.Token{Kind: kind, Pos: pos, Lit: l.src[start:l.off]}
}

func (l *runeLexer) scanString(pos token.Pos) token.Token {
	l.advance() // opening quote
	var b strings.Builder
	for l.ch != '"' {
		if l.ch == oracleEOF || l.ch == '\n' {
			l.errorf(pos, "unterminated string literal")
			return token.Token{Kind: token.STRING, Pos: pos, Lit: b.String()}
		}
		if l.ch == '\\' {
			l.advance()
			switch l.ch {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case '\'':
				b.WriteByte('\'')
			case '0':
				b.WriteByte(0)
			default:
				l.errorf(l.pos(), "unknown escape \\%c", l.ch)
				b.WriteRune(l.ch)
			}
			l.advance()
			continue
		}
		b.WriteRune(l.ch)
		l.advance()
	}
	l.advance() // closing quote
	return token.Token{Kind: token.STRING, Pos: pos, Lit: b.String()}
}

func (l *runeLexer) scanChar(pos token.Pos) token.Token {
	l.advance() // opening quote
	var r rune
	if l.ch == '\\' {
		l.advance()
		switch l.ch {
		case 'n':
			r = '\n'
		case 't':
			r = '\t'
		case '\\':
			r = '\\'
		case '\'':
			r = '\''
		case '"':
			r = '"'
		case '0':
			r = 0
		default:
			l.errorf(l.pos(), "unknown escape \\%c", l.ch)
			r = l.ch
		}
		l.advance()
	} else if l.ch == oracleEOF || l.ch == '\n' {
		l.errorf(pos, "unterminated character literal")
		return token.Token{Kind: token.CHAR, Pos: pos, Lit: "0"}
	} else {
		r = l.ch
		l.advance()
	}
	if l.ch != '\'' {
		l.errorf(pos, "unterminated character literal")
	} else {
		l.advance()
	}
	return token.Token{Kind: token.CHAR, Pos: pos, Lit: fmt.Sprintf("%d", r)}
}

func (l *runeLexer) scanOperator(pos token.Pos) token.Token {
	ch := l.ch
	l.advance()
	two := func(next rune, ifTwo, ifOne token.Kind) token.Token {
		if l.ch == next {
			l.advance()
			return token.Token{Kind: ifTwo, Pos: pos}
		}
		return token.Token{Kind: ifOne, Pos: pos}
	}
	switch ch {
	case '+':
		if l.ch == '+' {
			l.advance()
			return token.Token{Kind: token.PLUSPLUS, Pos: pos}
		}
		return two('=', token.PLUSEQ, token.PLUS)
	case '-':
		if l.ch == '-' {
			l.advance()
			return token.Token{Kind: token.MINUSMINUS, Pos: pos}
		}
		return two('=', token.MINUSEQ, token.MINUS)
	case '*':
		return two('=', token.STAREQ, token.STAR)
	case '/':
		return two('=', token.SLASHEQ, token.SLASH)
	case '%':
		return two('=', token.PERCENTEQ, token.PERCENT)
	case '=':
		return two('=', token.EQ, token.ASSIGN)
	case '!':
		return two('=', token.NEQ, token.NOT)
	case '<':
		return two('=', token.LEQ, token.LT)
	case '>':
		return two('=', token.GEQ, token.GT)
	case '&':
		if l.ch == '&' {
			l.advance()
			return token.Token{Kind: token.AND, Pos: pos}
		}
		l.errorf(pos, "unexpected character %q (did you mean &&?)", ch)
		return token.Token{Kind: token.ILLEGAL, Pos: pos, Lit: string(ch)}
	case '|':
		if l.ch == '|' {
			l.advance()
			return token.Token{Kind: token.OR, Pos: pos}
		}
		l.errorf(pos, "unexpected character %q (did you mean ||?)", ch)
		return token.Token{Kind: token.ILLEGAL, Pos: pos, Lit: string(ch)}
	case '(':
		return token.Token{Kind: token.LPAREN, Pos: pos}
	case ')':
		return token.Token{Kind: token.RPAREN, Pos: pos}
	case '{':
		return token.Token{Kind: token.LBRACE, Pos: pos}
	case '}':
		return token.Token{Kind: token.RBRACE, Pos: pos}
	case '[':
		return token.Token{Kind: token.LBRACK, Pos: pos}
	case ']':
		return token.Token{Kind: token.RBRACK, Pos: pos}
	case ',':
		return token.Token{Kind: token.COMMA, Pos: pos}
	case ';':
		return token.Token{Kind: token.SEMI, Pos: pos}
	case ':':
		return token.Token{Kind: token.COLON, Pos: pos}
	case '.':
		return token.Token{Kind: token.DOT, Pos: pos}
	case '?':
		return token.Token{Kind: token.QUESTION, Pos: pos}
	}
	l.errorf(pos, "unexpected character %q", ch)
	return token.Token{Kind: token.ILLEGAL, Pos: pos, Lit: string(ch)}
}

// OracleNext returns the Next of a rune scanner over src, for the external
// tests and benchmark that compare Lexer against it on generated corpora.
func OracleNext(src string) func() token.Token { return newRuneLexer(src).Next }

// OracleScan lexes src with the rune scanner.
func OracleScan(src string) ([]token.Token, []*Error) {
	l := newRuneLexer(src)
	return scanAll(l.Next), l.errors
}

// Scan lexes src with Lexer.
func Scan(src string) ([]token.Token, []*Error) {
	l := New(src)
	return scanAll(l.Next), l.errors
}

// scanAll returns every token up to and including the first EOF, then two
// more calls' worth, which must be EOF at the same position again.
func scanAll(next func() token.Token) []token.Token {
	var toks []token.Token
	for {
		t := next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return append(toks, next(), next())
		}
	}
}

// DiffScan returns a description of the first difference between what
// Lexer and the rune scanner make of src, or "" if they agree on every
// token's kind, position and literal and on every error.
func DiffScan(src string) string {
	got, gotErrs := Scan(src)
	want, wantErrs := OracleScan(src)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("token %d: got %s %q at %s, want %s %q at %s",
				i, got[i].Kind, got[i].Lit, got[i].Pos, want[i].Kind, want[i].Lit, want[i].Pos)
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("got %d tokens, want %d", len(got), len(want))
	}
	for i := range min(len(gotErrs), len(wantErrs)) {
		if *gotErrs[i] != *wantErrs[i] {
			return fmt.Sprintf("error %d: got %v, want %v", i, gotErrs[i], wantErrs[i])
		}
	}
	if len(gotErrs) != len(wantErrs) {
		return fmt.Sprintf("got %d errors %v, want %d %v", len(gotErrs), gotErrs, len(wantErrs), wantErrs)
	}
	return ""
}
