package callgraph

import (
	"fmt"
	goast "go/ast"
	goparser "go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"slicehide/internal/cfg"
	"slicehide/internal/corpus"
	"slicehide/internal/ir"
)

// This file keeps the call graph as Build computed it before it read the
// structured IR: a CFG per function, natural loops over its dominators, a
// call site in a loop when its statement's node has loop depth > 0, and
// Tarjan's algorithm over string-keyed maps. The differential tests compare
// it with Build.

// site is one call: the calling function, the statement holding the call,
// the callee, and whether the call sits in a loop.
type site struct {
	caller string
	stmt   int
	callee string
	inLoop bool
}

func (s site) String() string {
	return fmt.Sprintf("%s s%d -> %s loop=%v", s.caller, s.stmt, s.callee, s.inLoop)
}

// oracleBuild is the CFG-based Build, returning its call sites too.
func oracleBuild(prog *ir.Program) (*Graph, []site) {
	g := &Graph{
		Prog:       prog,
		Callees:    make(map[string]map[string]bool),
		Callers:    make(map[string]map[string]bool),
		Recursive:  make(map[string]bool),
		LoopCalled: make(map[string]bool),
	}
	var sites []site
	for _, qn := range prog.Order {
		g.Callees[qn] = map[string]bool{}
	}
	for _, qn := range prog.Order {
		flow := cfg.Build(prog.Funcs[qn])
		depths := loopDepths(flow)
		for _, n := range flow.Nodes {
			if n.Stmt == nil {
				continue
			}
			inLoop := depths[n] > 0
			ir.StmtExprs(n.Stmt, func(e ir.Expr) {
				ir.WalkExpr(e, func(x ir.Expr) {
					if call, ok := x.(*ir.CallExpr); ok {
						g.addEdge(qn, call.Callee, inLoop)
						sites = append(sites, site{qn, n.Stmt.ID(), call.Callee, inLoop})
					}
				})
			})
		}
	}
	oracleFindRecursion(g)
	return g, sites
}

// buildSites is Build plus the call sites its walk visits.
func buildSites(prog *ir.Program) (*Graph, []site) {
	var sites []site
	for _, qn := range prog.Order {
		eachCall(prog.Funcs[qn].Body, false, func(s ir.Stmt, callee string, inLoop bool) {
			sites = append(sites, site{qn, s.ID(), callee, inLoop})
		})
	}
	return Build(prog), sites
}

// naturalLoops finds the natural loops of g using back edges (tail→head
// where head dominates tail) and returns each loop's nodes, header
// included.
func naturalLoops(g *cfg.Graph) []map[*cfg.Node]bool {
	_, dominates := cfgDominance(g)
	byHead := make(map[*cfg.Node]map[*cfg.Node]bool)
	var order []*cfg.Node
	for _, tail := range g.Nodes {
		for _, head := range tail.Succs {
			if !dominates(head.Index, tail.Index) {
				continue
			}
			body, ok := byHead[head]
			if !ok {
				body = map[*cfg.Node]bool{head: true}
				byHead[head] = body
				order = append(order, head)
			}
			// Collect nodes reaching tail without passing through head.
			var stack []*cfg.Node
			if !body[tail] {
				body[tail] = true
				stack = append(stack, tail)
			}
			for len(stack) > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range n.Preds {
					if !body[p] {
						body[p] = true
						stack = append(stack, p)
					}
				}
			}
		}
	}
	loops := make([]map[*cfg.Node]bool, 0, len(order))
	for _, h := range order {
		loops = append(loops, byHead[h])
	}
	return loops
}

// loopDepths returns the nesting depth of each node (0 = not in any loop).
func loopDepths(g *cfg.Graph) map[*cfg.Node]int {
	depth := make(map[*cfg.Node]int, len(g.Nodes))
	for _, body := range naturalLoops(g) {
		for n := range body {
			depth[n]++
		}
	}
	return depth
}

// oracleFindRecursion is the string-keyed Tarjan findRecursion replaced.
func oracleFindRecursion(g *Graph) {
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	next := 0

	var names []string
	for qn := range g.Callees {
		names = append(names, qn)
	}
	sort.Strings(names)

	type frame struct {
		node  string
		succs []string
		i     int
	}
	succsOf := func(n string) []string {
		var out []string
		for c := range g.Callees[n] {
			if _, known := g.Callees[c]; known {
				out = append(out, c)
			}
		}
		sort.Strings(out)
		return out
	}
	for _, start := range names {
		if _, seen := index[start]; seen {
			continue
		}
		var frames []frame
		index[start], low[start] = next, next
		next++
		stack = append(stack, start)
		onStack[start] = true
		frames = append(frames, frame{node: start, succs: succsOf(start)})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.i < len(f.succs) {
				w := f.succs[f.i]
				f.i++
				if _, seen := index[w]; !seen {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{node: w, succs: succsOf(w)})
				} else if onStack[w] && index[w] < low[f.node] {
					low[f.node] = index[w]
				}
				continue
			}
			v := f.node
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[v] < low[parent.node] {
					low[parent.node] = low[v]
				}
			}
			if low[v] == index[v] {
				var scc []string
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == v {
						break
					}
				}
				if len(scc) > 1 {
					for _, m := range scc {
						g.Recursive[m] = true
					}
				} else if g.Callees[scc[0]][scc[0]] {
					g.Recursive[scc[0]] = true
				}
			}
		}
	}
}

// sortedSites renders sites as a sorted multiset.
func sortedSites(sites []site) []string {
	out := make([]string, len(sites))
	for i, s := range sites {
		out[i] = s.String()
	}
	sort.Strings(out)
	return out
}

// exampleSources returns the MiniJ programs embedded in examples/: every
// raw-string constant of every example's main.go.
func exampleSources(t testing.TB) map[string]string {
	files, err := filepath.Glob("../../examples/*/main.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	srcs := map[string]string{}
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := goparser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		goast.Inspect(f, func(n goast.Node) bool {
			vs, ok := n.(*goast.ValueSpec)
			if !ok {
				return true
			}
			for i, v := range vs.Values {
				if lit, ok := v.(*goast.BasicLit); ok && lit.Kind == token.STRING && lit.Value[0] == '`' {
					src, _ := strconv.Unquote(lit.Value)
					srcs["example/"+filepath.Base(filepath.Dir(file))+"/"+vs.Names[i].Name] = src
				}
			}
			return true
		})
	}
	return srcs
}

// oracleSources returns every program the differential test compares on:
// the five Table 1 corpora at full scale under three generator seeds, the
// Table 5 kernels, and the examples.
func oracleSources(t *testing.T) map[string]string {
	srcs := exampleSources(t)
	for seed := int64(0); seed < 3; seed++ {
		for _, p := range corpus.Profiles {
			p.Seed += seed * 1000
			srcs[fmt.Sprintf("corpus/%s/seed%d", p.Name, seed)] = corpus.Generate(p)
		}
	}
	for _, k := range corpus.Kernels() {
		srcs["kernel/"+k.Name] = k.Source(k.Inputs[0].Size)
	}
	return srcs
}

func TestBuildMatchesCFGOracle(t *testing.T) {
	srcs := oracleSources(t)
	if len(srcs) < 15+5+4 {
		t.Fatalf("only %d programs", len(srcs))
	}
	loopSites := 0
	for name, src := range srcs {
		prog, err := ir.Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, gotSites := buildSites(prog)
		want, wantSites := oracleBuild(prog)
		for _, f := range []struct {
			field     string
			got, want any
		}{
			{"Callees", got.Callees, want.Callees},
			{"Callers", got.Callers, want.Callers},
			{"Recursive", got.Recursive, want.Recursive},
			{"LoopCalled", got.LoopCalled, want.LoopCalled},
			{"call sites", sortedSites(gotSites), sortedSites(wantSites)},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Errorf("%s: %s differ:\n got %v\nwant %v", name, f.field, f.got, f.want)
			}
		}
		for _, s := range gotSites {
			if s.inLoop {
				loopSites++
			}
		}
	}
	if loopSites == 0 {
		t.Fatal("no call site in a loop anywhere; the comparison says nothing about loops")
	}
}

// TestLoopCalledSyntactic pins the shapes where natural loops and syntax can
// disagree to the syntactic answer: a call is loop-called when a while
// statement encloses it (its condition, body or Post), whether or not
// control can come back around.
func TestLoopCalledSyntactic(t *testing.T) {
	prog, err := ir.Compile(`
func c(): bool { return false; }
func r(): int { return 1; }
func b() { }
func after() { }
func start(): int { return 0; }
func step(i: int): int { return i + 1; }
func once() { }
func returns(): int {
    while (c()) { return r(); }
    return 0;
}
func breaks() {
    while (true) { b(); break; }
}
func dead() {
    while (true) { break; after(); }
}
func post(n: int) {
    for (var i: int = start(); i < n; i = step(i)) { }
    if (c()) { once(); }
}
func main() { print(returns()); breaks(); dead(); post(3); }
`)
	if err != nil {
		t.Fatal(err)
	}
	g, sites := buildSites(prog)
	for callee, want := range map[string]bool{
		"c":     true,  // a while condition, though the body always returns
		"r":     true,  // a body that always returns
		"b":     true,  // a body that always breaks
		"after": true,  // after a break
		"step":  true,  // a for loop's post
		"start": false, // a for loop's init runs once, before the while
		"once":  false, // an if is not a loop
	} {
		if g.LoopCalled[callee] != want {
			t.Errorf("LoopCalled[%s] = %v, want %v", callee, g.LoopCalled[callee], want)
		}
	}
	// c is called twice: in returns' while condition (in a loop) and in
	// post's if condition (not); each site keeps its own answer.
	var cSites []string
	for _, s := range sites {
		if s.callee == "c" {
			cSites = append(cSites, fmt.Sprintf("%s %v", s.caller, s.inLoop))
		}
	}
	sort.Strings(cSites)
	if want := []string{"post false", "returns true"}; !reflect.DeepEqual(cSites, want) {
		t.Errorf("sites of c: %v, want %v", cSites, want)
	}
	// Natural loops see no loop where nothing comes back around.
	oracle, _ := oracleBuild(prog)
	if oracle.LoopCalled["r"] || oracle.LoopCalled["b"] {
		t.Errorf("the CFG oracle found a back edge in a body that always leaves")
	}
}

func TestNaturalLoops(t *testing.T) {
	p, err := ir.Compile(`
func f(n: int): int {
    var s: int = 0;
    for (var i: int = 0; i < n; i++) {
        for (var j: int = 0; j < i; j++) {
            s = s + j;
        }
    }
    return s;
}`)
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Build(p.Func("f"))
	if loops := naturalLoops(g); len(loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(loops))
	}
	maxDepth := 0
	for _, d := range loopDepths(g) {
		maxDepth = max(maxDepth, d)
	}
	if maxDepth != 2 {
		t.Errorf("max nesting depth %d, want 2", maxDepth)
	}
}

// BenchmarkCallGraphCorpus times Build over one generated corpus program
// (javac at full scale), compiled once off the clock: Build caches nothing
// on the program.
func BenchmarkCallGraphCorpus(b *testing.B) {
	prog := corpus.MustCompile(corpus.Profiles[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(prog)
	}
}
