// Package token defines the lexical tokens of the MiniJ language, the small
// Java-like language that serves as the substrate for the slicing-based
// software-splitting transformation.
package token

import (
	"fmt"
	"strings"
)

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds. Literal kinds carry their text in Token.Lit.
const (
	ILLEGAL Kind = iota
	EOF

	// Literals and identifiers.
	IDENT  // x, foo, Stack
	INT    // 123
	FLOAT  // 1.25
	STRING // "abc"
	CHAR   // 'a' (lexed as an INT with the rune value)

	// Operators and delimiters.
	PLUS    // +
	MINUS   // -
	STAR    // *
	SLASH   // /
	PERCENT // %

	ASSIGN     // =
	PLUSEQ     // +=
	MINUSEQ    // -=
	STAREQ     // *=
	SLASHEQ    // /=
	PERCENTEQ  // %=
	PLUSPLUS   // ++
	MINUSMINUS // --

	EQ  // ==
	NEQ // !=
	LT  // <
	LEQ // <=
	GT  // >
	GEQ // >=

	AND // &&
	OR  // ||
	NOT // !

	LPAREN   // (
	RPAREN   // )
	LBRACE   // {
	RBRACE   // }
	LBRACK   // [
	RBRACK   // ]
	COMMA    // ,
	SEMI     // ;
	COLON    // :
	DOT      // .
	QUESTION // ?

	// Keywords.
	kwBegin
	FUNC
	METHOD
	CLASS
	FIELD
	VAR
	IF
	ELSE
	WHILE
	FOR
	RETURN
	BREAK
	CONTINUE
	PRINT
	NEW
	TRUE
	FALSE
	NULL
	INTTYPE
	FLOATTYPE
	BOOLTYPE
	STRINGTYPE
	VOIDTYPE
	LEN
	kwEnd
)

var kindNames = map[Kind]string{
	ILLEGAL: "ILLEGAL", EOF: "EOF",
	IDENT: "IDENT", INT: "INT", FLOAT: "FLOAT", STRING: "STRING", CHAR: "CHAR",
	PLUS: "+", MINUS: "-", STAR: "*", SLASH: "/", PERCENT: "%",
	ASSIGN: "=", PLUSEQ: "+=", MINUSEQ: "-=", STAREQ: "*=", SLASHEQ: "/=",
	PERCENTEQ: "%=", PLUSPLUS: "++", MINUSMINUS: "--",
	EQ: "==", NEQ: "!=", LT: "<", LEQ: "<=", GT: ">", GEQ: ">=",
	AND: "&&", OR: "||", NOT: "!",
	LPAREN: "(", RPAREN: ")", LBRACE: "{", RBRACE: "}", LBRACK: "[", RBRACK: "]",
	COMMA: ",", SEMI: ";", COLON: ":", DOT: ".", QUESTION: "?",
	FUNC: "func", METHOD: "method", CLASS: "class", FIELD: "field", VAR: "var",
	IF: "if", ELSE: "else", WHILE: "while", FOR: "for", RETURN: "return",
	BREAK: "break", CONTINUE: "continue", PRINT: "print", NEW: "new",
	TRUE: "true", FALSE: "false", NULL: "null",
	INTTYPE: "int", FLOATTYPE: "float", BOOLTYPE: "bool",
	STRINGTYPE: "string", VOIDTYPE: "void", LEN: "len",
}

// String returns the textual form of the kind (the operator text or keyword
// for fixed tokens, the class name for variable ones).
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// IsKeyword reports whether k is a keyword kind. The keywords are the kinds
// from FUNC through LEN, and String spells each of them.
func (k Kind) IsKeyword() bool { return kwBegin < k && k < kwEnd }

// IsLiteral reports whether k is an identifier or basic literal.
func (k Kind) IsLiteral() bool {
	switch k {
	case IDENT, INT, FLOAT, STRING, CHAR:
		return true
	}
	return false
}

// Pos is a source position: 1-based line and column. 32 bits each keeps
// every token, AST node and IR statement 8 bytes smaller than machine ints.
type Pos struct {
	Line int32
	Col  int32
}

// String renders the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Valid reports whether the position carries real location information.
func (p Pos) Valid() bool { return p.Line > 0 }

// Token is a single lexical token with its position and literal text.
type Token struct {
	Kind Kind
	Pos  Pos
	Lit  string // literal text for IDENT/INT/FLOAT/STRING/CHAR
}

// String renders the token for diagnostics.
func (t Token) String() string {
	if t.Kind.IsLiteral() {
		return fmt.Sprintf("%s(%q)", t.Kind, t.Lit)
	}
	return t.Kind.String()
}

// Error is a lexical, syntax or semantic error at a source position.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList is the errors one pass found, in the order it found them.
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

// Precedence returns the binary-operator precedence of k (higher binds
// tighter), or 0 if k is not a binary operator.
func (k Kind) Precedence() int {
	switch k {
	case OR:
		return 1
	case AND:
		return 2
	case EQ, NEQ:
		return 3
	case LT, LEQ, GT, GEQ:
		return 4
	case PLUS, MINUS:
		return 5
	case STAR, SLASH, PERCENT:
		return 6
	}
	return 0
}
