// Package lexer implements a hand-written scanner for MiniJ source text.
//
// The scanner works on bytes: whitespace, identifiers, numbers and
// operators are ASCII, and UTF-8 is decoded only at a byte >= 0x80. Columns
// still count runes: the scanner keeps where the current line starts and
// how many of its bytes so far do not start a rune.
package lexer

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"slicehide/internal/lang/token"
)

// Error is a lexical error.
type Error = token.Error

// Lexer scans MiniJ source text into tokens.
type Lexer struct {
	src       string
	off       int // byte offset of the next unscanned byte
	line      int32
	lineStart int   // byte offset of the current line's first byte
	wide      int   // bytes of the current line before off that do not start a rune
	past      int32 // takes at the end of input, each a column past it
	errors    []*Error
}

// New returns a Lexer over src.
func New(src string) *Lexer { return &Lexer{src: src, line: 1} }

// Errors returns the lexical errors encountered so far.
func (l *Lexer) Errors() []*Error { return l.errors }

type keyword struct {
	lit  string
	kind token.Kind
}

// keywords holds each keyword at its keywordSlot; no two share a slot
// (TestEveryKeyword lexes each).
var keywords = func() (t [64]keyword) {
	for k := token.FUNC; k.IsKeyword(); k++ {
		t[keywordSlot(k.String())] = keyword{k.String(), k}
	}
	return t
}()

// keywordSlot hashes a non-empty identifier by its first and last bytes and
// its length, with multipliers under which no two keywords collide.
func keywordSlot(s string) int {
	return int((uint(s[0])*3 + uint(s[len(s)-1])*21 + uint(len(s))) & 63)
}

// operators gives, for an operator's first byte, its kind alone, followed
// by '=', and doubled; ILLEGAL where there is no such operator.
var operators = [128]struct{ one, eq, twice token.Kind }{
	'+': {token.PLUS, token.PLUSEQ, token.PLUSPLUS},
	'-': {token.MINUS, token.MINUSEQ, token.MINUSMINUS},
	'*': {token.STAR, token.STAREQ, 0},
	'/': {token.SLASH, token.SLASHEQ, 0},
	'%': {token.PERCENT, token.PERCENTEQ, 0},
	'=': {token.ASSIGN, token.EQ, 0},
	'!': {token.NOT, token.NEQ, 0},
	'<': {token.LT, token.LEQ, 0},
	'>': {token.GT, token.GEQ, 0},
	'&': {0, 0, token.AND},
	'|': {0, 0, token.OR},
	'(': {one: token.LPAREN}, ')': {one: token.RPAREN},
	'{': {one: token.LBRACE}, '}': {one: token.RBRACE},
	'[': {one: token.LBRACK}, ']': {one: token.RBRACK},
	',': {one: token.COMMA}, ';': {one: token.SEMI}, ':': {one: token.COLON},
	'.': {one: token.DOT}, '?': {one: token.QUESTION},
}

func isLetter(c byte) bool { return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	l.errors = append(l.errors, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// pos returns the position of the byte at off.
func (l *Lexer) pos() token.Pos {
	if l.off >= len(l.src) {
		return l.eofPos()
	}
	return token.Pos{Line: l.line, Col: int32(l.off-l.lineStart-l.wide) + 1}
}

// eofPos returns the position of the end of input: a column past the last
// rune, on that rune's line, so a final newline starts no line of its own.
func (l *Lexer) eofPos() token.Pos {
	line, start := l.line, l.lineStart
	if n := len(l.src); n > 0 && l.src[n-1] == '\n' {
		line--
		start = strings.LastIndexByte(l.src[:n-1], '\n') + 1
	}
	return token.Pos{Line: line, Col: int32(utf8.RuneCountInString(l.src[start:])) + 1 + l.past}
}

// skipTo moves to end, counting the lines and runes it passes over.
func (l *Lexer) skipTo(end int) {
	s := l.src[l.off:end]
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		l.line += int32(strings.Count(s, "\n"))
		l.lineStart, l.wide = l.off+i+1, 0
		s = s[i+1:]
	}
	l.wide += len(s) - utf8.RuneCountInString(s)
	l.off = end
}

// take returns the rune at off and moves past it. At the end of input it
// returns -1 and moves only the end's column on.
func (l *Lexer) take() rune {
	if l.off >= len(l.src) {
		l.past++
		return -1
	}
	r, w := rune(l.src[l.off]), 1
	if r >= utf8.RuneSelf {
		r, w = utf8.DecodeRuneInString(l.src[l.off:])
	}
	if l.off += w; r == '\n' {
		l.line++
		l.lineStart, l.wide = l.off, 0
	}
	l.wide += w - 1
	return r
}

func (l *Lexer) skipSpaceAndComments() {
	src, off := l.src, l.off
	for off < len(src) {
		switch c := src[off]; {
		case c == ' ' || c == '\t' || c == '\r':
			off++
			continue
		case c == '\n':
			off++
			l.line++
			l.lineStart, l.wide = off, 0
			continue
		case c != '/' || off+1 == len(src):
		case src[off+1] == '/':
			// What a line comment holds never reaches a column: a newline
			// follows it, or eofPos counts the runes itself.
			if i := strings.IndexByte(src[off+2:], '\n'); i >= 0 {
				off += 2 + i
			} else {
				off = len(src)
			}
			continue
		case src[off+1] == '*':
			l.off = off
			if i := strings.Index(src[off+2:], "*/"); i >= 0 {
				off += 2 + i + 2
			} else {
				l.errorf(l.pos(), "unterminated block comment")
				off = len(src)
			}
			l.skipTo(off)
			continue
		}
		break
	}
	l.off = off
}

// Next returns the next token. At end of input it returns an EOF token
// forever.
func (l *Lexer) Next() token.Token {
	l.skipSpaceAndComments()
	if l.off >= len(l.src) {
		return token.Token{Kind: token.EOF, Pos: l.eofPos()}
	}
	pos := l.pos()
	switch c := l.src[l.off]; {
	case isLetter(c):
		return l.scanIdent(pos)
	case isDigit(c):
		return l.scanNumber(pos)
	case c == '"':
		return l.scanString(pos)
	case c == '\'':
		return l.scanChar(pos)
	case c >= utf8.RuneSelf:
		if r, _ := utf8.DecodeRuneInString(l.src[l.off:]); unicode.IsLetter(r) {
			return l.scanIdent(pos)
		}
		return l.illegal(pos, l.take(), "")
	}
	return l.scanOperator(pos)
}

func (l *Lexer) scanIdent(pos token.Pos) token.Token {
	src, start, off := l.src, l.off, l.off
	for off < len(src) {
		if c := src[off]; isLetter(c) || isDigit(c) {
			off++
			continue
		} else if c < utf8.RuneSelf {
			break
		}
		r, w := utf8.DecodeRuneInString(src[off:])
		if !unicode.IsLetter(r) {
			break
		}
		off += w
		l.wide += w - 1
	}
	l.off = off
	lit := src[start:off]
	if kw := &keywords[keywordSlot(lit)]; kw.lit == lit {
		return token.Token{Kind: kw.kind, Pos: pos, Lit: lit}
	}
	return token.Token{Kind: token.IDENT, Pos: pos, Lit: lit}
}

// digits returns the offset of the first byte from off on that is not a
// decimal digit.
func digits(src string, off int) int {
	for off < len(src) && isDigit(src[off]) {
		off++
	}
	return off
}

func (l *Lexer) scanNumber(pos token.Pos) token.Token {
	src, start := l.src, l.off
	off := digits(src, start)
	kind := token.INT
	if off+1 < len(src) && src[off] == '.' && isDigit(src[off+1]) {
		kind = token.FLOAT
		off = digits(src, off+1)
	}
	if off+1 < len(src) && (src[off] == 'e' || src[off] == 'E') {
		if next := src[off+1]; isDigit(next) || next == '+' || next == '-' {
			kind = token.FLOAT
			off++
			if src[off] == '+' || src[off] == '-' {
				off++
			}
			if off == len(src) || !isDigit(src[off]) {
				l.errorf(pos, "malformed exponent in numeric literal")
			}
			off = digits(src, off)
		}
	}
	l.off = off
	return token.Token{Kind: kind, Pos: pos, Lit: src[start:off]}
}

// escape reads the character after a backslash and returns the rune it
// stands for. An unknown escape is reported and stands for itself.
func (l *Lexer) escape() rune {
	pos := l.pos()
	switch c := l.take(); c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case '0':
		return 0
	case '\\', '"', '\'':
		return c
	default:
		l.errorf(pos, "unknown escape \\%c", c)
		return c
	}
}

// scanString slices a string free of escapes, newlines and non-ASCII bytes
// out of the source; any other is built rune by rune, an invalid byte
// becoming U+FFFD.
func (l *Lexer) scanString(pos token.Pos) token.Token {
	src, start := l.src, l.off+1
	off := start
	for off < len(src) && src[off] != '"' && src[off] != '\\' && src[off] != '\n' && src[off] < utf8.RuneSelf {
		off++
	}
	if off < len(src) && src[off] == '"' {
		l.off = off + 1
		return token.Token{Kind: token.STRING, Pos: pos, Lit: src[start:off]}
	}
	var b strings.Builder
	b.WriteString(src[start:off])
	for l.off = off; l.off == len(src) || src[l.off] != '"'; {
		switch {
		case l.off == len(src) || src[l.off] == '\n':
			l.errorf(pos, "unterminated string literal")
			return token.Token{Kind: token.STRING, Pos: pos, Lit: b.String()}
		case src[l.off] == '\\':
			l.off++
			b.WriteRune(l.escape())
		default:
			b.WriteRune(l.take())
		}
	}
	l.off++ // closing quote
	return token.Token{Kind: token.STRING, Pos: pos, Lit: b.String()}
}

func (l *Lexer) scanChar(pos token.Pos) token.Token {
	src := l.src
	var r rune
	switch l.off++; {
	case l.off == len(src) || src[l.off] == '\n':
		l.errorf(pos, "unterminated character literal")
		return token.Token{Kind: token.CHAR, Pos: pos, Lit: "0"}
	case src[l.off] == '\\':
		l.off++
		r = l.escape()
	default:
		r = l.take()
	}
	if l.off < len(src) && src[l.off] == '\'' {
		l.off++
	} else {
		l.errorf(pos, "unterminated character literal")
	}
	return token.Token{Kind: token.CHAR, Pos: pos, Lit: strconv.Itoa(int(r))}
}

func (l *Lexer) illegal(pos token.Pos, r rune, hint string) token.Token {
	l.errorf(pos, "unexpected character %q"+hint, r)
	return token.Token{Kind: token.ILLEGAL, Pos: pos, Lit: string(r)}
}

func (l *Lexer) scanOperator(pos token.Pos) token.Token {
	c := l.src[l.off]
	op := &operators[c]
	kind := op.one
	if l.off++; l.off < len(l.src) {
		switch next := l.src[l.off]; {
		case next == '=' && op.eq != token.ILLEGAL:
			kind = op.eq
			l.off++
		case next == c && op.twice != token.ILLEGAL:
			kind = op.twice
			l.off++
		}
	}
	switch {
	case kind != token.ILLEGAL:
		return token.Token{Kind: kind, Pos: pos}
	case c == '&' || c == '|':
		return l.illegal(pos, rune(c), " (did you mean "+string([]byte{c, c})+"?)")
	}
	return l.illegal(pos, rune(c), "")
}
