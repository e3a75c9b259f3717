package lexer

import (
	"strings"
	"testing"

	"slicehide/internal/lang/token"
)

func kinds(src string) []token.Kind {
	l := New(src)
	var ks []token.Kind
	for _, t := range l.All() {
		ks = append(ks, t.Kind)
	}
	return ks
}

func TestOperators(t *testing.T) {
	src := "+ - * / % = += -= *= /= %= ++ -- == != < <= > >= && || ! ( ) { } [ ] , ; : . ?"
	want := []token.Kind{
		token.PLUS, token.MINUS, token.STAR, token.SLASH, token.PERCENT,
		token.ASSIGN, token.PLUSEQ, token.MINUSEQ, token.STAREQ, token.SLASHEQ,
		token.PERCENTEQ, token.PLUSPLUS, token.MINUSMINUS,
		token.EQ, token.NEQ, token.LT, token.LEQ, token.GT, token.GEQ,
		token.AND, token.OR, token.NOT,
		token.LPAREN, token.RPAREN, token.LBRACE, token.RBRACE,
		token.LBRACK, token.RBRACK, token.COMMA, token.SEMI, token.COLON,
		token.DOT, token.QUESTION, token.EOF,
	}
	got := kinds(src)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func TestKeywordsAndIdents(t *testing.T) {
	src := "func while whilex if0 class int float bool string void"
	want := []token.Kind{
		token.FUNC, token.WHILE, token.IDENT, token.IDENT, token.CLASS,
		token.INTTYPE, token.FLOATTYPE, token.BOOLTYPE, token.STRINGTYPE,
		token.VOIDTYPE, token.EOF,
	}
	got := kinds(src)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func TestNumbers(t *testing.T) {
	tests := []struct {
		src  string
		kind token.Kind
		lit  string
	}{
		{"0", token.INT, "0"},
		{"42", token.INT, "42"},
		{"3.5", token.FLOAT, "3.5"},
		{"1e3", token.FLOAT, "1e3"},
		{"2.5e-2", token.FLOAT, "2.5e-2"},
		{"7.0", token.FLOAT, "7.0"},
	}
	for _, tt := range tests {
		l := New(tt.src)
		tok := l.Next()
		if tok.Kind != tt.kind || tok.Lit != tt.lit {
			t.Errorf("%q: got %s %q, want %s %q", tt.src, tok.Kind, tok.Lit, tt.kind, tt.lit)
		}
		if len(l.Errors()) != 0 {
			t.Errorf("%q: unexpected errors %v", tt.src, l.Errors())
		}
	}
}

func TestDotAfterNumber(t *testing.T) {
	// "1.foo" must lex as INT DOT IDENT, not a malformed float.
	got := kinds("1.foo")
	want := []token.Kind{token.INT, token.DOT, token.IDENT, token.EOF}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestStrings(t *testing.T) {
	l := New(`"hello\nworld" "tab\t" "q\"q"`)
	toks := l.All()
	if len(l.Errors()) != 0 {
		t.Fatalf("errors: %v", l.Errors())
	}
	wants := []string{"hello\nworld", "tab\t", `q"q`}
	for i, w := range wants {
		if toks[i].Kind != token.STRING || toks[i].Lit != w {
			t.Errorf("string %d: got %s %q, want %q", i, toks[i].Kind, toks[i].Lit, w)
		}
	}
}

func TestCharLiteral(t *testing.T) {
	l := New(`'a' '\n' '\''`)
	toks := l.All()
	if len(l.Errors()) != 0 {
		t.Fatalf("errors: %v", l.Errors())
	}
	wants := []string{"97", "10", "39"}
	for i, w := range wants {
		if toks[i].Kind != token.CHAR || toks[i].Lit != w {
			t.Errorf("char %d: got %s %q, want %q", i, toks[i].Kind, toks[i].Lit, w)
		}
	}
}

func TestComments(t *testing.T) {
	src := `a // line comment
	b /* block
	comment */ c`
	got := kinds(src)
	want := []token.Kind{token.IDENT, token.IDENT, token.IDENT, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
}

func TestUnterminatedString(t *testing.T) {
	l := New(`"abc`)
	l.All()
	if len(l.Errors()) == 0 {
		t.Fatal("expected error for unterminated string")
	}
}

func TestUnterminatedComment(t *testing.T) {
	l := New(`/* abc`)
	l.All()
	if len(l.Errors()) == 0 {
		t.Fatal("expected error for unterminated comment")
	}
}

func TestIllegalChars(t *testing.T) {
	for _, src := range []string{"@", "#", "&", "|", "~"} {
		l := New(src)
		tok := l.Next()
		if tok.Kind != token.ILLEGAL {
			t.Errorf("%q: got %s, want ILLEGAL", src, tok.Kind)
		}
		if len(l.Errors()) == 0 {
			t.Errorf("%q: expected a lexical error", src)
		}
	}
}

func TestPositions(t *testing.T) {
	l := New("a\n  b\nccc d")
	toks := l.All()
	wantPos := []token.Pos{{Line: 1, Col: 1}, {Line: 2, Col: 3}, {Line: 3, Col: 1}, {Line: 3, Col: 5}}
	for i, w := range wantPos {
		if toks[i].Pos != w {
			t.Errorf("token %d: got %v, want %v", i, toks[i].Pos, w)
		}
	}
}

func TestEOFIsSticky(t *testing.T) {
	l := New("x")
	l.Next()
	for i := 0; i < 3; i++ {
		if k := l.Next().Kind; k != token.EOF {
			t.Fatalf("call %d after end: got %s, want EOF", i, k)
		}
	}
}

func TestLongInput(t *testing.T) {
	src := strings.Repeat("x = x + 1; ", 10000)
	l := New(src)
	toks := l.All()
	if len(toks) != 6*10000+1 {
		t.Fatalf("got %d tokens, want %d", len(toks), 6*10000+1)
	}
	if len(l.Errors()) != 0 {
		t.Fatalf("errors: %v", l.Errors())
	}
}

// All scans the remaining input and returns every token up to and including
// EOF.
func (l *Lexer) All() []token.Token {
	var toks []token.Token
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}
