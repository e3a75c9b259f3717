package corpus

import (
	"fmt"
	"math/rand"
	"strings"

	"slicehide/internal/ir"
)

// Generate produces the MiniJ source of a benchmark program matching the
// profile. Generation is deterministic in p.Seed.
func Generate(p Profile) string {
	g := &gen{p: p, rng: rand.New(rand.NewSource(p.Seed)), b: &strings.Builder{}}
	return g.program()
}

// Compile generates and compiles the benchmark program.
func Compile(p Profile) (*ir.Program, error) {
	return ir.Compile(Generate(p))
}

// MustCompile panics on generation/compilation errors (generator bugs).
func MustCompile(p Profile) *ir.Program {
	prog, err := Compile(p)
	if err != nil {
		panic(fmt.Sprintf("corpus: generated %s does not compile: %v", p.Name, err))
	}
	return prog
}

type gen struct {
	p   Profile
	rng *rand.Rand
	b   *strings.Builder
}

func (g *gen) printf(format string, args ...any) {
	fmt.Fprintf(g.b, format, args...)
}

// program lays the benchmark out as:
//
//	classes with scalar fields        (hosts for initializer methods)
//	private leaf per worker           (makes workers call-graph dominators)
//	worker functions                  (splitting candidates)
//	a recursive and a loop-called decoy (exercise the selection filters)
//	filler methods                    (callers / aggregate / print flavors)
//	self-contained methods            (per Table 1 category counts)
//	main                              (calls every worker once, no loops)
func (g *gen) program() string {
	p := g.p
	// Budget: total methods = workers + leaves + decoys(2) + sc counts +
	// fillers + class methods + main.
	scTotal := p.SelfContained()
	fixed := p.SplitWorkers*2 /* worker+leaf */ + 3 /* decoys + fillLeaf */ + scTotal + 1 /* main */
	fillers := p.Methods - fixed
	if fillers < 0 {
		fillers = 0
	}

	// Classes host the initializer methods and a share of the fillers.
	classFillers := 0
	if p.Classes > 0 {
		classFillers = fillers / 3
	}
	topFillers := fillers - classFillers

	g.classes(classFillers)
	for i := 0; i < p.SplitWorkers; i++ {
		g.leaf(i)
		g.worker(i)
	}
	g.decoys()
	for i := 0; i < topFillers; i++ {
		g.filler(i)
	}
	for i := 0; i < p.SelfContainedSmall; i++ {
		g.selfContainedSmall(i)
	}
	for i := 0; i < p.SelfContainedBigNonInit; i++ {
		g.selfContainedBig(i)
	}
	g.mainFunc()
	return g.b.String()
}

// intExpr builds a random scalar int expression over the given variables,
// flavored by the profile's operator mix.
func (g *gen) intExpr(vars []string, depth int) string {
	if depth <= 0 || g.rng.Float64() < 0.3 {
		if g.rng.Float64() < 0.35 {
			return fmt.Sprintf("%d", g.rng.Intn(19)+1)
		}
		return vars[g.rng.Intn(len(vars))]
	}
	x := g.intExpr(vars, depth-1)
	y := g.intExpr(vars, depth-1)
	r := g.rng.Float64()
	switch {
	case r < g.p.ModFrac*0.5:
		return fmt.Sprintf("(%s %% %d)", x, g.rng.Intn(17)+3)
	case r < g.p.ModFrac*0.5+g.p.DivFrac:
		return fmt.Sprintf("(%s / (%s * %s + 1))", x, y, y)
	case r < 0.55:
		return fmt.Sprintf("(%s + %s)", x, y)
	case r < 0.75:
		return fmt.Sprintf("(%s - %s)", x, y)
	default:
		return fmt.Sprintf("(%s * %s)", x, y)
	}
}

// classes emits the class declarations, their initializer methods (the
// SelfContainedBigInit category), and a share of filler methods.
func (g *gen) classes(classFillers int) {
	p := g.p
	if p.Classes == 0 {
		return
	}
	initsLeft := p.SelfContainedBigInit
	perClass := classFillers / p.Classes
	extra := classFillers % p.Classes
	for c := 0; c < p.Classes; c++ {
		g.printf("class K%d {\n", c)
		nf := 12 // enough scalar fields for a >10-statement initializer
		for f := 0; f < nf; f++ {
			g.printf("    field f%d: int;\n", f)
		}
		g.printf("    field data: int[];\n")
		if initsLeft > 0 {
			initsLeft--
			g.printf("    method reset(seed: int) {\n")
			for f := 0; f < nf; f++ {
				if f%3 == 0 {
					g.printf("        f%d = seed;\n", f)
				} else {
					g.printf("        f%d = %d;\n", f, g.rng.Intn(100))
				}
			}
			g.printf("    }\n")
		}
		n := perClass
		if c < extra {
			n++
		}
		for m := 0; m < n; m++ {
			g.classFiller(c, m)
		}
		g.printf("}\n")
	}
	if initsLeft > 0 {
		panic("corpus: not enough classes for initializer methods")
	}
}

// classFiller emits a non-self-contained method (touches the aggregate
// field or calls a sibling).
func (g *gen) classFiller(c, m int) {
	vars := []string{"x", "f0", "f1", "f2"}
	switch m % 3 {
	case 0:
		g.printf("    method fill%d(x: int): int {\n", m)
		g.printf("        var t: int = %s;\n", g.intExpr(vars, 2))
		g.printf("        if (data != null && t >= 0 && t < len(data)) { return data[t]; }\n")
		g.printf("        return t;\n    }\n")
	case 1:
		g.printf("    method fill%d(x: int) {\n", m)
		g.printf("        data = new int[x + 1];\n")
		g.printf("        for (var i: int = 0; i < len(data); i++) { data[i] = %s; }\n", g.intExpr([]string{"x", "i"}, 2))
		g.printf("    }\n")
	default:
		g.printf("    method fill%d(x: int): int {\n", m)
		g.printf("        var t: int = %s;\n", g.intExpr(vars, 2))
		g.printf("        f%d = t;\n", m%12)
		if m >= 2 {
			g.printf("        return fill%d((t %% 7 + 7) %% 7);\n", m-2)
		} else {
			g.printf("        print(t);\n        return t;\n")
		}
		g.printf("    }\n")
	}
}

// leaf emits the private utility that makes worker i a call-graph
// dominator. The trace print keeps leaves out of the self-contained counts
// (they are bookkeeping, not Table 1 subjects).
func (g *gen) leaf(i int) {
	g.printf("func leaf%d(v: int): int {\n", i)
	g.printf("    if (v < -1000000) { print(\"leaf%d\", v); }\n", i)
	g.printf("    return %s;\n}\n", g.intExpr([]string{"v"}, 2))
}

// worker emits splitting candidate i. Worker bodies are shaped by the
// profile's leak mix so that the Table 3 arithmetic-complexity
// distribution matches the paper's per-benchmark columns: each worker
// receives a proportional share of the program-wide constant, linear,
// polynomial, rational, and arbitrary leak statements, a share of the
// hidden-predicate branches, and (for the first HiddenLoopWorkers) a
// hidden loop counter.
func (g *gen) worker(i int) {
	p := g.p
	share := func(total int) int {
		return total*(i+1)/p.SplitWorkers - total*i/p.SplitWorkers
	}
	nConst, nLin, nPoly := share(p.LeakConst), share(p.LeakLinear), share(p.LeakPoly)
	nRat, nArb, nBr := share(p.LeakRational), share(p.LeakArb), share(p.Branches)
	hiddenLoop := i < p.HiddenLoopWorkers
	if p.FloatFrac >= 0.5 {
		g.floatWorker(i, nConst, nLin, nPoly, nRat, nArb, nBr, hiddenLoop)
		return
	}
	g.intWorker(i, nConst, nLin, nPoly, nRat, nArb, nBr, hiddenLoop)
}

func (g *gen) intWorker(i, nConst, nLin, nPoly, nRat, nArb, nBr int, hiddenLoop bool) {
	r := g.rng
	c := func(lo, hi int) int { return r.Intn(hi-lo+1) + lo }
	g.printf("func worker%d(x: int, y: int, z: int): int {\n", i)
	g.printf("    var h: int = %d * x + %d * y + %d;\n", c(2, 9), c(1, 7), c(1, 50))
	g.printf("    var u: int = h * %d + x - %d;\n", c(2, 5), c(1, 9))
	g.printf("    var w: int = u + h - y + z * %d;\n", c(1, 3))
	g.printf("    var acc: int = 0;\n")
	size := 20 + nConst + nLin + nPoly + nRat + nArb + nBr
	g.printf("    var B: int[] = new int[z + %d];\n", size)
	if hiddenLoop {
		g.printf("    var j: int = (h %% 5 + 5) %% 5;\n")
		g.printf("    while (j < z) {\n")
		g.printf("        acc = acc + u + j * %d;\n", c(1, 4))
		if g.p.ArrayFeed {
			g.printf("        acc = acc + B[(j %% len(B) + len(B)) %% len(B)];\n")
		}
		g.printf("        j = j + 1;\n    }\n")
	} else {
		g.printf("    var j: int = 0;\n")
		g.printf("    while (j < z) {\n")
		g.printf("        acc = acc + u * %d + h;\n", c(1, 3))
		g.printf("        j = j + 1;\n    }\n")
	}
	idx := 2
	for k := 0; k < nBr; k++ {
		g.printf("    if (h * %d + u > %d) {\n        acc = acc + h * %d;\n    } else {\n        B[%d] = y;\n    }\n",
			c(1, 4), c(50, 400), c(1, 5), idx)
		idx++
	}
	for k := 0; k < nLin; k++ {
		g.printf("    B[%d] = h * %d + u * %d + y;\n", idx, c(1, 9), c(1, 9))
		idx++
	}
	for k := 0; k < nPoly; k++ {
		g.printf("    B[%d] = h * u + h * %d;\n", idx, c(1, 9))
		idx++
	}
	for k := 0; k < nRat; k++ {
		g.printf("    B[%d] = h * %d / (u * u + 1) + w;\n", idx, c(2, 9))
		idx++
	}
	for k := 0; k < nArb; k++ {
		g.printf("    B[%d] = (h %% %d) + u;\n", idx, c(3, 17))
		idx++
	}
	for k := 0; k < nConst; k++ {
		g.printf("    w = %d;\n    B[%d] = w;\n", c(1, 99), idx)
		idx++
	}
	g.printf("    var out: int = leaf%d((acc %% 997 + 997) %% 997);\n", i)
	g.printf("    return out + B[0];\n}\n")
}

func (g *gen) floatWorker(i, nConst, nLin, nPoly, nRat, nArb, nBr int, hiddenLoop bool) {
	r := g.rng
	cf := func() string { return fmt.Sprintf("%d.%d", r.Intn(8)+1, r.Intn(10)) }
	g.printf("func worker%d(x: int, y: int, z: int): int {\n", i)
	g.printf("    var fx: float = float(x);\n    var fy: float = float(y);\n    var fz: float = float(z);\n")
	g.printf("    var h: float = %s * fx + %s * fy;\n", cf(), cf())
	g.printf("    var u: float = h * %s + fx;\n", cf())
	g.printf("    var w: float = u + h - fy + fz;\n")
	g.printf("    var acc: float = 0.0;\n")
	size := 20 + nConst + nLin + nPoly + nRat + nArb + nBr
	g.printf("    var F: float[] = new float[z + %d];\n", size)
	if hiddenLoop {
		g.printf("    var j: float = h / (h * h + 1.0);\n")
		g.printf("    while (j < fz) {\n")
		g.printf("        acc = acc + u * %s + j;\n", cf())
		g.printf("        j = j + 1.0;\n    }\n")
	} else {
		g.printf("    var j: float = 0.0;\n")
		g.printf("    while (j < fz) {\n")
		g.printf("        acc = acc + u * %s + h;\n", cf())
		g.printf("        j = j + 1.0;\n    }\n")
	}
	idx := 2
	for k := 0; k < nBr; k++ {
		g.printf("    if (h * %s + u > %d.0) {\n        acc = acc + h * %s;\n    } else {\n        F[%d] = fy;\n    }\n",
			cf(), r.Intn(400)+50, cf(), idx)
		idx++
	}
	for k := 0; k < nLin; k++ {
		g.printf("    F[%d] = h * %s + u * %s + fy;\n", idx, cf(), cf())
		idx++
	}
	for k := 0; k < nPoly; k++ {
		if i == 0 && k == 0 {
			// One degree-6 polynomial leak (the paper's jfig max degree).
			g.printf("    F[%d] = h * h * h * u * u * u;\n", idx)
		} else {
			g.printf("    F[%d] = h * u + h * %s;\n", idx, cf())
		}
		idx++
	}
	for k := 0; k < nRat; k++ {
		g.printf("    F[%d] = h * %s / (u * u + 1.5) + w;\n", idx, cf())
		idx++
	}
	for k := 0; k < nArb; k++ {
		g.printf("    F[%d] = h > u ? u * %s : h * %s;\n", idx, cf(), cf())
		idx++
	}
	for k := 0; k < nConst; k++ {
		g.printf("    w = %s;\n    F[%d] = w;\n", cf(), idx)
		idx++
	}
	g.printf("    var out: int = leaf%d(x + y);\n", i)
	g.printf("    if (acc < 0.0) {\n        out = out - 1;\n    } else {\n        out = out + 1;\n    }\n")
	g.printf("    return out;\n}\n")
}

// decoys emits a recursive and a loop-called function reachable from main
// (both must be rejected by the cut), plus the shared filler leaf.
func (g *gen) decoys() {
	g.printf("func fillLeaf(v: int): int {\n    if (v < -1000000) { print(v); }\n    return v * 2 + 1;\n}\n")
	g.printf("func recDecoy(n: int): int {\n")
	g.printf("    var a: int = n * 2;\n")
	g.printf("    if (n <= 1) { return a; }\n")
	g.printf("    return a + recDecoy(n - 1);\n}\n")
	g.printf("func loopDecoy(v: int): int {\n    var a: int = v + 3;\n    if (a < -1000000) { print(a); }\n    return a * 2;\n}\n")
}

// filler emits one non-self-contained top-level function.
func (g *gen) filler(i int) {
	vars := []string{"a", "b"}
	switch i % 4 {
	case 0: // caller
		g.printf("func fill%d(a: int, b: int): int {\n", i)
		g.printf("    var t: int = %s;\n", g.intExpr(vars, 3))
		g.printf("    return t + fillLeaf(a);\n}\n")
	case 1: // aggregate
		g.printf("func fill%d(a: int, b: int): int {\n", i)
		g.printf("    var A: int[] = new int[(a %% 32 + 32) %% 32 + 4];\n")
		g.printf("    var s: int = 0;\n")
		g.printf("    for (var i: int = 0; i < len(A); i++) { A[i] = %s; s = s + A[i]; }\n", g.intExpr([]string{"a", "b", "i"}, 2))
		g.printf("    return s;\n}\n")
	case 2: // printer
		g.printf("func fill%d(a: int, b: int) {\n", i)
		g.printf("    var t: int = %s;\n", g.intExpr(vars, 2))
		g.printf("    print(\"v\", t);\n}\n")
	default: // string handling
		g.printf("func fill%d(a: int, b: int): string {\n", i)
		g.printf("    var s: string = \"r%d\";\n", i)
		g.printf("    if (a > b) { s = s + \"!\"; }\n")
		g.printf("    return s;\n}\n")
	}
}

// selfContainedSmall emits a small self-contained function (<= 10 stmts).
func (g *gen) selfContainedSmall(i int) {
	g.printf("func scs%d(a: int, b: int): int {\n", i)
	g.printf("    var t: int = %s;\n", g.intExpr([]string{"a", "b"}, 2))
	g.printf("    t = t + a * %d;\n", g.rng.Intn(9)+1)
	g.printf("    return t;\n}\n")
}

// selfContainedBig emits a large (> 10 stmts) self-contained non-initializer.
func (g *gen) selfContainedBig(i int) {
	g.printf("func scb%d(a: int, b: int, c: int): int {\n", i)
	g.printf("    var t: int = a;\n")
	g.printf("    var u: int = b;\n")
	for k := 0; k < 9; k++ {
		g.printf("    t = %s;\n", g.intExpr([]string{"t", "u", "c"}, 2))
	}
	g.printf("    while (t > c && u > 0) {\n        t = t - c;\n        u = u - 1;\n    }\n")
	g.printf("    return t + u;\n}\n")
}

// mainFunc calls every worker once (outside loops) plus the decoys.
func (g *gen) mainFunc() {
	g.printf("func main() {\n    var r: int = 0;\n")
	for i := 0; i < g.p.SplitWorkers; i++ {
		g.printf("    r = r + worker%d(%d, %d, %d);\n", i, g.rng.Intn(9)+1, g.rng.Intn(9)+1, g.rng.Intn(24)+8)
	}
	g.printf("    r = r + recDecoy(5);\n")
	g.printf("    for (var i: int = 0; i < 3; i++) { r = r + loopDecoy(i); }\n")
	g.printf("    print(r);\n}\n")
}
