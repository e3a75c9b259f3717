package vm

import (
	"strings"
	"testing"

	"slicehide/internal/interp"
	"slicehide/internal/ir"
	"slicehide/internal/lang/token"
	"slicehide/internal/oracle"
)

func intVar(name string) *ir.Var { return &ir.Var{Name: name, Kind: ir.VarLocal} }

func ref(v *ir.Var) ir.Expr { return &ir.VarRef{Var: v} }
func num(n int64) ir.Expr   { return &ir.Const{Kind: ir.ConstInt, I: n} }
func assign(v *ir.Var, e ir.Expr) ir.Stmt {
	return &ir.AssignStmt{Lhs: &ir.VarTarget{Var: v}, Rhs: e}
}

// The layering rule bars the vm package itself from lang/token; its test
// binary is free to use it to build IR by hand.
func bin(op token.Kind, x, y ir.Expr) ir.Expr {
	return &ir.Binary{Op: op, X: x, Y: y}
}

// benchComp mirrors the loadtest fragment: k = a0*3 + a1; t = k + a0;
// return t - a1, with k hidden in the activation store.
func benchComp() (Source, []*ir.Var) {
	k := intVar("k")
	a0, a1 := intVar("$a0"), intVar("$a1")
	t := intVar("t")
	frag := FragSource{
		ID:   0,
		Args: []*ir.Var{a0, a1},
		Body: []ir.Stmt{
			assign(k, bin(token.PLUS, bin(token.STAR, ref(a0), num(3)), ref(a1))),
			assign(t, bin(token.PLUS, ref(k), ref(a0))),
			&ir.ReturnStmt{Value: bin(token.MINUS, ref(t), ref(a1))},
		},
	}
	return Source{Name: "work", Vars: []*ir.Var{k}, Frags: []FragSource{frag}}, []*ir.Var{k, t}
}

func compileBench(t testing.TB) (*Program, *Frag, *Comp) {
	comp, _ := benchComp()
	p := Compile([]Source{comp}, nil)
	cc := p.Comps["work"]
	if cc == nil {
		t.Fatal("component not compiled")
	}
	f := cc.Frag(0)
	if f == nil {
		t.Fatal("fragment not compiled")
	}
	return p, f, cc
}

func TestCompileExecArithmetic(t *testing.T) {
	_, f, cc := compileBench(t)
	fr := &Frame{temps: make([]interp.Value, f.NTemps)}
	act := cc.Act.NewVals()
	args := []interp.Value{interp.IntV(7), interp.IntV(5)}
	v, err := f.Exec(fr, args, Env{Act: act}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// k = 7*3+5 = 26; t = 26+7 = 33; return 33-5 = 28.
	if v.Kind != interp.KindInt || v.I != 28 {
		t.Fatalf("got %v, want 28", v)
	}
	ks, ok := cc.Act.SlotByName("k")
	if !ok {
		t.Fatal("k has no slot")
	}
	if act[ks].I != 26 {
		t.Fatalf("k = %v, want 26", act[ks])
	}
}

func TestWriteSetTracksStores(t *testing.T) {
	_, f, cc := compileBench(t)
	fr := &Frame{temps: make([]interp.Value, f.NTemps)}
	act := cc.Act.NewVals()
	ws := &WriteSet{}
	args := []interp.Value{interp.IntV(1), interp.IntV(2)}
	if _, err := f.Exec(fr, args, Env{Act: act}, ws); err != nil {
		t.Fatal(err)
	}
	if len(ws.Act) != 2 || len(ws.Globals) != 0 || len(ws.Fields) != 0 {
		t.Fatalf("write set %+v, want 2 act slots", ws)
	}
}

func TestStepLimitInfiniteLoop(t *testing.T) {
	x := intVar("x")
	frag := FragSource{
		ID: 0,
		Body: []ir.Stmt{
			assign(x, num(0)),
			&ir.WhileStmt{
				Cond: &ir.Const{Kind: ir.ConstBool, B: true},
				Body: []ir.Stmt{assign(x, bin(token.PLUS, ref(x), num(1)))},
			},
		},
	}
	p := Compile([]Source{{Name: "spin", Frags: []FragSource{frag}}}, nil)
	f := p.Comps["spin"].Frag(0)
	fr := &Frame{temps: make([]interp.Value, f.NTemps)}
	act := p.Comps["spin"].Act.NewVals()
	_, err := f.Exec(fr, nil, Env{Act: act}, nil)
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("err = %v, want step limit", err)
	}
}

func TestDeterministicHash(t *testing.T) {
	comp1, _ := benchComp()
	comp2, _ := benchComp()
	p1 := Compile([]Source{comp1}, nil)
	p2 := Compile([]Source{comp2}, nil)
	if p1.Hash != p2.Hash {
		t.Fatalf("hashes differ: %x vs %x", p1.Hash, p2.Hash)
	}
	if p1.Hash == 0 {
		t.Fatal("hash is zero")
	}
}

func TestComparisonOpcodesFollowBinOpOrder(t *testing.T) {
	for op := ir.BinLt; op <= ir.BinGeq; op++ {
		k := Opcode(op - ir.BinLt)
		if oc := binOpcode(op); oc != OpLt+k || oc-OpEq+OpJumpNEq != OpJumpNLt+k {
			t.Errorf("%s compiles to %s, not the opcode at offset %d from lt and jumpnlt", op, oc, k)
		}
	}
}

func BenchmarkFragExec(b *testing.B) {
	_, f, cc := compileBench(b)
	fr := &Frame{temps: make([]interp.Value, f.NTemps)}
	act := cc.Act.NewVals()
	args := []interp.Value{interp.IntV(7), interp.IntV(5)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Exec(fr, args, Env{Act: act}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// machineSrc is a Table 5-shaped loop: array reads, arithmetic, nested
// conditionals and a call per chunk.
const machineSrc = `
func mix(h: int, x: int): int { return (h * 131 + x) % 1000000007; }
func main() {
    var n: int = 20000;
    var a: int[] = new int[n];
    var s: int = 42;
    for (var i: int = 0; i < n; i++) {
        s = (s * 1103515245 + 12345) % 2147483648;
        a[i] = s;
    }
    var h: int = 7;
    var odd: int = 0;
    var i: int = 0;
    while (i < n) {
        var t: int = a[i] % 97;
        if (t < 40) { odd = odd + 1; } else if (t < 80) { odd = odd - 1; }
        if (i % 512 == 511) { h = mix(h, odd); }
        i = i + 1;
    }
    print(h, odd);
}`

// TestMachineMatchesWalker is the in-package smoke check; the differential
// suite in package hrt is the real oracle.
func TestMachineMatchesWalker(t *testing.T) {
	prog := ir.MustCompile(machineSrc)
	var want, got strings.Builder
	ref := oracle.New(prog, interp.Options{Out: &want})
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	m := NewMachine(prog, interp.Options{Out: &got})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() || m.Steps() != ref.Steps() {
		t.Fatalf("machine printed %q in %d steps, walker %q in %d", got.String(), m.Steps(), want.String(), ref.Steps())
	}
}

func BenchmarkMachineRun(b *testing.B) {
	prog := ir.MustCompile(machineSrc)
	var steps int64
	for i := 0; i < b.N; i++ {
		m := NewMachine(prog, interp.Options{})
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		steps += m.Steps()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
}
