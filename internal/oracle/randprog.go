package oracle

import (
	"fmt"
	"math/rand"
	"strings"
)

// RandProgram generates a small random MiniJ program, deterministic in
// seed. Generated programs always terminate (loops are counter-bounded),
// never trap (divisions are by positive expressions, array indices are
// normalized into range), and print scalar results — which makes them
// ideal fixtures for the split-equivalence property test: for every
// function and every hideable seed variable, splitting must preserve the
// program output exactly.
func RandProgram(seed int64) string {
	r := rand.New(rand.NewSource(seed))
	g := &randGen{r: r, b: &strings.Builder{}, protected: map[string]bool{}}
	return g.program()
}

type randGen struct {
	r *rand.Rand
	b *strings.Builder

	// vars in scope of the current function, by type.
	ints   []string
	floats []string
	bools  []string
	arrays []string
	nextID int
	depth  int
	// protected vars (loop counters) are readable but never assigned, so
	// generated loops always terminate.
	protected map[string]bool
}

func (g *randGen) printf(format string, args ...any) {
	fmt.Fprintf(g.b, format, args...)
}

func (g *randGen) fresh(prefix string) string {
	g.nextID++
	return fmt.Sprintf("%s%d", prefix, g.nextID)
}

func (g *randGen) indent() string { return strings.Repeat("    ", g.depth) }

// scopeMark snapshots the in-scope variable lists so block-local
// declarations disappear when the block closes.
type scopeMark struct{ i, b, f, a int }

func (g *randGen) saveScope() scopeMark {
	return scopeMark{i: len(g.ints), b: len(g.bools), f: len(g.floats), a: len(g.arrays)}
}

func (g *randGen) restoreScope(m scopeMark) {
	g.ints = g.ints[:m.i]
	g.bools = g.bools[:m.b]
	g.floats = g.floats[:m.f]
	g.arrays = g.arrays[:m.a]
}

// intExpr builds a terminating, non-trapping int expression.
func (g *randGen) intExpr(depth int) string {
	if depth <= 0 || g.r.Float64() < 0.35 {
		if len(g.ints) > 0 && g.r.Float64() < 0.7 {
			return g.ints[g.r.Intn(len(g.ints))]
		}
		return fmt.Sprintf("%d", g.r.Intn(21)-10)
	}
	x := g.intExpr(depth - 1)
	y := g.intExpr(depth - 1)
	switch g.r.Intn(7) {
	case 0:
		return fmt.Sprintf("(%s + %s)", x, y)
	case 1:
		return fmt.Sprintf("(%s - %s)", x, y)
	case 2:
		return fmt.Sprintf("(%s * %s)", x, y)
	case 3:
		// Division by a strictly positive expression.
		return fmt.Sprintf("(%s / (%s * %s + 1))", x, y, y)
	case 4:
		return fmt.Sprintf("(%s %% %d)", x, g.r.Intn(9)+2)
	case 5:
		// 0 - x rather than -x: a literal operand starting with a minus
		// would otherwise lex as the -- token.
		return fmt.Sprintf("(0 - %s)", x)
	default:
		c := g.boolExpr(depth - 1)
		return fmt.Sprintf("(%s ? %s : %s)", c, x, y)
	}
}

func (g *randGen) boolExpr(depth int) string {
	if depth <= 0 || g.r.Float64() < 0.3 {
		if len(g.bools) > 0 && g.r.Float64() < 0.5 {
			return g.bools[g.r.Intn(len(g.bools))]
		}
		ops := []string{"<", "<=", ">", ">=", "==", "!="}
		return fmt.Sprintf("(%s %s %s)", g.intExpr(1), ops[g.r.Intn(len(ops))], g.intExpr(1))
	}
	x := g.boolExpr(depth - 1)
	y := g.boolExpr(depth - 1)
	switch g.r.Intn(3) {
	case 0:
		return fmt.Sprintf("(%s && %s)", x, y)
	case 1:
		return fmt.Sprintf("(%s || %s)", x, y)
	default:
		return fmt.Sprintf("(!%s)", x)
	}
}

// assignableInt picks an in-scope int variable that is safe to assign
// (not a protected loop counter).
func (g *randGen) assignableInt() (string, bool) {
	var cands []string
	for _, v := range g.ints {
		if !g.protected[v] {
			cands = append(cands, v)
		}
	}
	if len(cands) == 0 {
		return "", false
	}
	return cands[g.r.Intn(len(cands))], true
}

// arrayIndex yields an always-in-range index expression for array a.
func (g *randGen) arrayIndex(a string) string {
	e := g.intExpr(1)
	return fmt.Sprintf("((%s %% len(%s) + len(%s)) %% len(%s))", e, a, a, a)
}

func (g *randGen) stmts(n int) {
	for i := 0; i < n; i++ {
		g.stmt()
	}
}

func (g *randGen) stmt() {
	choice := g.r.Intn(10)
	// Limit nesting.
	if g.depth > 3 && choice >= 6 {
		choice = g.r.Intn(6)
	}
	switch choice {
	case 0, 1: // int assignment or declaration
		if v, ok := g.assignableInt(); ok && g.r.Float64() < 0.6 {
			g.printf("%s%s = %s;\n", g.indent(), v, g.intExpr(2))
		} else {
			v := g.fresh("v")
			g.printf("%svar %s: int = %s;\n", g.indent(), v, g.intExpr(2))
			g.ints = append(g.ints, v)
		}
	case 2: // bool declaration/assignment
		if len(g.bools) > 0 && g.r.Float64() < 0.5 {
			g.printf("%s%s = %s;\n", g.indent(), g.bools[g.r.Intn(len(g.bools))], g.boolExpr(2))
		} else {
			v := g.fresh("b")
			g.printf("%svar %s: bool = %s;\n", g.indent(), v, g.boolExpr(2))
			g.bools = append(g.bools, v)
		}
	case 3: // array store
		if len(g.arrays) == 0 {
			v := g.fresh("A")
			g.printf("%svar %s: int[] = new int[%d];\n", g.indent(), v, g.r.Intn(6)+3)
			g.arrays = append(g.arrays, v)
			return
		}
		a := g.arrays[g.r.Intn(len(g.arrays))]
		g.printf("%s%s[%s] = %s;\n", g.indent(), a, g.arrayIndex(a), g.intExpr(2))
	case 4: // array read into int
		v, ok := g.assignableInt()
		if len(g.arrays) == 0 || !ok {
			return
		}
		a := g.arrays[g.r.Intn(len(g.arrays))]
		g.printf("%s%s = %s + %s[%s];\n", g.indent(), v, v, a, g.arrayIndex(a))
	case 5: // print
		if len(g.ints) > 0 {
			g.printf("%sprint(%s);\n", g.indent(), g.ints[g.r.Intn(len(g.ints))])
		}
	case 6, 7: // if
		g.printf("%sif (%s) {\n", g.indent(), g.boolExpr(2))
		g.depth++
		save := g.saveScope()
		g.stmts(g.r.Intn(3) + 1)
		g.restoreScope(save)
		g.depth--
		if g.r.Float64() < 0.5 {
			g.printf("%s} else {\n", g.indent())
			g.depth++
			save := g.saveScope()
			g.stmts(g.r.Intn(3) + 1)
			g.restoreScope(save)
			g.depth--
		}
		g.printf("%s}\n", g.indent())
	case 8: // bounded counter loop
		c := g.fresh("k")
		bound := g.r.Intn(7) + 2
		g.printf("%sfor (var %s: int = 0; %s < %d; %s++) {\n", g.indent(), c, c, bound, c)
		g.depth++
		save := g.saveScope()
		g.ints = append(g.ints, c)
		g.protected[c] = true
		g.stmts(g.r.Intn(3) + 1)
		if g.r.Float64() < 0.3 {
			g.printf("%sif (%s == %d) { continue; }\n", g.indent(), c, g.r.Intn(bound))
		}
		if g.r.Float64() < 0.2 {
			g.printf("%sif (%s == %d) { break; }\n", g.indent(), c, g.r.Intn(bound))
		}
		g.restoreScope(save)
		delete(g.protected, c)
		g.depth--
		g.printf("%s}\n", g.indent())
	default: // derived chain (good slicing material)
		if len(g.ints) == 0 {
			return
		}
		src := g.ints[g.r.Intn(len(g.ints))]
		v := g.fresh("d")
		g.printf("%svar %s: int = %s * %d + %s;\n", g.indent(), v, src, g.r.Intn(5)+2, g.intExpr(1))
		g.ints = append(g.ints, v)
	}
}

func (g *randGen) function(name string, nparams int) {
	params := make([]string, nparams)
	decl := make([]string, nparams)
	for i := range params {
		params[i] = fmt.Sprintf("p%d", i)
		decl[i] = params[i] + ": int"
	}
	g.printf("func %s(%s): int {\n", name, strings.Join(decl, ", "))
	g.depth = 1
	g.ints = append([]string(nil), params...)
	g.bools = nil
	g.arrays = nil
	g.stmts(g.r.Intn(8) + 6)
	g.printf("    return %s;\n}\n", g.intExpr(2))
	g.depth = 0
}

func (g *randGen) program() string {
	nfuncs := g.r.Intn(2) + 1
	names := make([]string, nfuncs)
	arity := make([]int, nfuncs)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
		arity[i] = g.r.Intn(3) + 1
		g.function(names[i], arity[i])
	}
	g.printf("func main() {\n")
	g.depth = 1
	g.ints, g.bools, g.arrays = nil, nil, nil
	for i, name := range names {
		args := make([]string, arity[i])
		for j := range args {
			args[j] = fmt.Sprintf("%d", g.r.Intn(15)+1)
		}
		g.printf("    print(%s(%s));\n", name, strings.Join(args, ", "))
		// A second call with different arguments exercises more paths.
		for j := range args {
			args[j] = fmt.Sprintf("%d", g.r.Intn(15)-7)
		}
		g.printf("    print(%s(%s));\n", name, strings.Join(args, ", "))
	}
	g.printf("}\n")
	g.depth = 0
	return g.b.String()
}
