// Package lexer implements a hand-written scanner for MiniJ source text.
package lexer

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"slicehide/internal/lang/token"
)

// Error is a lexical error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans MiniJ source text into tokens.
type Lexer struct {
	src    string
	off    int // byte offset of next rune
	ch     rune
	chLen  int
	line   int32
	col    int32
	errors []*Error
}

// New returns a Lexer over src.
func New(src string) *Lexer {
	l := &Lexer{src: src, line: 1, col: 0}
	l.advance()
	return l
}

const eof = rune(-1)

func (l *Lexer) advance() {
	l.off += l.chLen
	if l.off >= len(l.src) {
		l.ch, l.chLen = eof, 0
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

func (l *Lexer) peek() rune {
	if l.off+l.chLen >= len(l.src) {
		return eof
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.off+l.chLen:])
	return r
}

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	l.errors = append(l.errors, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (l *Lexer) skipSpaceAndComments() {
	for {
		for l.ch == ' ' || l.ch == '\t' || l.ch == '\r' || l.ch == '\n' {
			l.advance()
		}
		if l.ch == '/' && l.peek() == '/' {
			for l.ch != '\n' && l.ch != eof {
				l.advance()
			}
			continue
		}
		if l.ch == '/' && l.peek() == '*' {
			pos := l.pos()
			l.advance() // '/'
			l.advance() // '*'
			closed := false
			for l.ch != eof {
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

func (l *Lexer) pos() token.Pos { return token.Pos{Line: l.line, Col: l.col} }

func isLetter(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isDigit(r rune) bool { return r >= '0' && r <= '9' }

// Next returns the next token. At end of input it returns an EOF token
// forever.
func (l *Lexer) Next() token.Token {
	l.skipSpaceAndComments()
	pos := l.pos()
	switch {
	case l.ch == eof:
		return token.Token{Kind: token.EOF, Pos: pos}
	case isLetter(l.ch):
		return l.scanIdent(pos)
	case isDigit(l.ch):
		return l.scanNumber(pos)
	case l.ch == '"':
		return l.scanString(pos)
	case l.ch == '\'':
		return l.scanChar(pos)
	}
	return l.scanOperator(pos)
}

func (l *Lexer) scanIdent(pos token.Pos) token.Token {
	start := l.off
	for isLetter(l.ch) || isDigit(l.ch) {
		l.advance()
	}
	lit := l.src[start:l.off]
	kind := token.Lookup(lit)
	if kind != token.IDENT {
		return token.Token{Kind: kind, Pos: pos, Lit: lit}
	}
	return token.Token{Kind: token.IDENT, Pos: pos, Lit: lit}
}

func (l *Lexer) scanNumber(pos token.Pos) token.Token {
	start := l.off
	for isDigit(l.ch) {
		l.advance()
	}
	kind := token.INT
	if l.ch == '.' && isDigit(l.peek()) {
		kind = token.FLOAT
		l.advance()
		for isDigit(l.ch) {
			l.advance()
		}
	}
	if l.ch == 'e' || l.ch == 'E' {
		if next := l.peek(); isDigit(next) || next == '+' || next == '-' {
			kind = token.FLOAT
			l.advance()
			if l.ch == '+' || l.ch == '-' {
				l.advance()
			}
			if !isDigit(l.ch) {
				l.errorf(pos, "malformed exponent in numeric literal")
			}
			for isDigit(l.ch) {
				l.advance()
			}
		}
	}
	return token.Token{Kind: kind, Pos: pos, Lit: l.src[start:l.off]}
}

func (l *Lexer) scanString(pos token.Pos) token.Token {
	l.advance() // opening quote
	var b strings.Builder
	for l.ch != '"' {
		if l.ch == eof || l.ch == '\n' {
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

func (l *Lexer) scanChar(pos token.Pos) token.Token {
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
	} else if l.ch == eof || l.ch == '\n' {
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

func (l *Lexer) scanOperator(pos token.Pos) token.Token {
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
