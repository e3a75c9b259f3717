package parser

import (
	"testing"

	"slicehide/internal/lang/ast/astprint"
	"slicehide/internal/lang/lexer"
	"slicehide/internal/lang/token"
)

// FuzzParse: parsing never panics, an input the lexer reports an error in
// never parses, and a program that parses prints through astprint to text
// that parses again and prints the same. The committed seeds under
// testdata/fuzz/FuzzParse are FuzzLexer's.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		l := lexer.New(src)
		for l.Next().Kind != token.EOF {
		}
		if len(l.Errors()) > 0 {
			t.Fatalf("%q parses, but lexing it reports %v", src, l.Errors())
		}
		text := astprint.Format(prog)
		prog2, err := Parse(text)
		if err != nil {
			t.Fatalf("%q parses, but its print does not: %v\n%s", src, err, text)
		}
		if text2 := astprint.Format(prog2); text2 != text {
			t.Fatalf("%q: print is not stable:\n--- first ---\n%s--- second ---\n%s", src, text, text2)
		}
	})
}
