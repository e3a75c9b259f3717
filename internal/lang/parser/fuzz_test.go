package parser

import (
	"testing"

	"slicehide/internal/lang/ast/astprint"
)

// FuzzParse: parsing never panics, and a program that parses prints
// through astprint to text that parses again and prints the same. The
// committed seeds under testdata/fuzz/FuzzParse are FuzzLexer's.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
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
