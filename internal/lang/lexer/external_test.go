package lexer_test

import (
	"fmt"
	"strings"
	"testing"

	"slicehide/internal/corpus"
	"slicehide/internal/lang/lexer"
	"slicehide/internal/lang/token"
)

// FuzzLexer is differential: on every input the byte scanner must emit the
// rune scanner's tokens (kind, line, rune column and literal, then a
// sticky EOF) and its errors, in order. The committed seeds under
// testdata/fuzz/FuzzLexer cover non-ASCII identifiers, \r\n line ends, an
// unterminated block comment, a string and a char cut off by the end of
// input, exponent floats, every keyword and identifiers a keyword
// prefixes.
func FuzzLexer(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		if d := lexer.DiffScan(src); d != "" {
			t.Fatalf("%q: %s", src, d)
		}
	})
}

// TestLexerMatchesOracleOnCorpora lexes the five Table 1 corpora at full
// scale under seeds 1 to 5, as `go run ./bench -workload split_corpus`
// generates them, with both scanners.
func TestLexerMatchesOracleOnCorpora(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, p := range corpus.Profiles {
			p.Seed += seed * 1000
			if d := lexer.DiffScan(corpus.Generate(p)); d != "" {
				t.Errorf("%s@%d: %s", p.Name, seed, d)
			}
		}
	}
}

func TestEveryKeyword(t *testing.T) {
	n := 0
	for k := token.FUNC; k.IsKeyword(); k++ {
		toks, _ := lexer.Scan(k.String() + " " + k.String() + "x x" + k.String())
		if toks[0].Kind != k || toks[1].Kind != token.IDENT || toks[2].Kind != token.IDENT {
			t.Errorf("%s: lexed as %s %s %s", k, toks[0].Kind, toks[1].Kind, toks[2].Kind)
		}
		n++
	}
	if n != 23 {
		t.Errorf("%d keywords, want 23", n)
	}
}

// allocFreeSource has every kind of token but string and char literals,
// comments, non-ASCII identifiers and \r\n line ends among them.
var allocFreeSource = strings.Repeat(`// a line comment: é
class Point { field x: int; field y: float; /* block
  comment ü */ method norm(): float { return float(x) * y + 1.5e-3; } }
var total: int = 0;
func grün(n: int, ok: bool): int {
	var i: int = 0;
	while (i < n && !ok || i >= 10) { i += 1; total = total % 7 - i / 2; }
	for (var j: int = 0; j <= n; j++) { if (j != 3) { continue; } else { break; } }
	var a: int[] = new int[n];
	a[0] = len(a) > 0 ? a[0] : -1;
	var p: Point = new Point();
	print(p.norm(), null == null, true, false);
	return i;
}`+"\r\n", 8)

// TestLexerAllocatesNothing: lexing a program with no string or char
// literals allocates nothing. Every literal is a slice of the source and
// every keyword resolves through the keyword table.
func TestLexerAllocatesNothing(t *testing.T) {
	if d := lexer.DiffScan(allocFreeSource); d != "" {
		t.Fatal(d)
	}
	allocs := testing.AllocsPerRun(20, func() {
		l := lexer.New(allocFreeSource)
		for l.Next().Kind != token.EOF {
		}
	})
	if allocs != 0 {
		t.Errorf("lexing allocated %v times, want 0", allocs)
	}
}

func ExampleLexer() {
	l := lexer.New("var π: float = 3.14;")
	for t := l.Next(); t.Kind != token.EOF; t = l.Next() {
		fmt.Println(t.Pos, t)
	}
	// Output:
	// 1:1 var
	// 1:5 IDENT("π")
	// 1:6 :
	// 1:8 float
	// 1:14 =
	// 1:16 FLOAT("3.14")
	// 1:20 ;
}

// BenchmarkLexer scans the seed-1 corpora with the byte scanner and with
// the rune scanner it replaced.
func BenchmarkLexer(b *testing.B) {
	var src strings.Builder
	for _, p := range corpus.Profiles {
		p.Seed += 1000
		src.WriteString(corpus.Generate(p))
	}
	for _, sc := range []struct {
		name string
		next func(string) func() token.Token
	}{
		{"bytes", func(src string) func() token.Token { return lexer.New(src).Next }},
		{"runes", lexer.OracleNext},
	} {
		b.Run(sc.name, func(b *testing.B) {
			b.SetBytes(int64(src.Len()))
			b.ReportAllocs()
			for range b.N {
				next := sc.next(src.String())
				for next().Kind != token.EOF {
				}
			}
		})
	}
}
