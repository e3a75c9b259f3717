package core_test

import (
	"strings"
	"testing"

	"slicehide/internal/core"
	"slicehide/internal/hrt"
	"slicehide/internal/interp"
	"slicehide/internal/ir"
	"slicehide/internal/slicer"
	"slicehide/internal/vm"
)

// The §2.2 object-oriented extension: class fields are hidden like globals,
// but each object instance gets its own hidden store, paired with the open
// instance through the instance id assigned at creation.
const accountSrc = `
class Account {
    field balance: int;
    field bonus: int;
    method deposit(amount: int) {
        var t: int = amount * 2;
        balance = balance + t / 2;
        bonus = bonus + t % 3;
    }
    method total(): int {
        return balance + bonus;
    }
}
func audit(a: Account): int {
    return a.balance * 10;
}
func main() {
    var a: Account = new Account();
    var b: Account = new Account();
    a.deposit(100);
    b.deposit(7);
    a.deposit(50);
    print(a.total());
    print(b.total());
    print(audit(a));
    print(audit(b));
    print(a.balance + b.bonus);
}
`

func splitFields(t *testing.T) *core.Result {
	t.Helper()
	prog := ir.MustCompile(accountSrc)
	res, err := core.SplitProgram(prog,
		[]core.Spec{{Func: "Account.deposit", Seed: "t"}},
		slicer.Policy{HideFields: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestHiddenFieldsPerInstance(t *testing.T) {
	res := splitFields(t)
	if len(res.Fields) != 1 || res.Fields["Account"] == nil {
		t.Fatalf("fields info: %+v", res.Fields)
	}
	fi := res.Fields["Account"]
	if len(fi.Component.Vars) != 2 { // balance and bonus both derive from t
		t.Errorf("hidden fields: %v", fi.Component.Vars)
	}
	// total, audit, and main reference the hidden fields and are rewritten.
	joined := strings.Join(fi.Rewritten, " ")
	for _, want := range []string{"Account.total", "audit", "main"} {
		if !strings.Contains(joined, want) {
			t.Errorf("%s not rewritten (got %v)", want, fi.Rewritten)
		}
	}
	if len(fi.ILPs) == 0 {
		t.Error("field fetches must be counted as ILPs")
	}
	same, want, got, err := hrt.Equivalent(res, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatalf("field hiding changed behavior:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

func TestHiddenFieldsGoneFromOpenText(t *testing.T) {
	res := splitFields(t)
	for _, qn := range []string{"Account.deposit", "Account.total", "audit", "main"} {
		text := ir.FormatFunc(res.Open.Funcs[qn])
		if strings.Contains(text, "balance") || strings.Contains(text, "bonus") {
			t.Errorf("%s still references hidden fields:\n%s", qn, text)
		}
	}
}

func TestHiddenFieldsOverTCP(t *testing.T) {
	res := splitFields(t)
	ts := &hrt.TCPServer{Server: hrt.NewServer(hrt.NewRegistry(res))}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	mt, err := hrt.DialMux(hrt.MuxConfig{Addr: addr.String()})
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	tr := mt.Stream(0, nil)
	want, _, err := hrt.RunOriginal(res.Orig, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	out := runOpenWith(t, res, tr)
	if out != want {
		t.Fatalf("TCP field hiding: got %q want %q", out, want)
	}
}

func TestFieldsAndGlobalsCompose(t *testing.T) {
	src := `
var counter: int = 0;
class C {
    field v: int;
    method bump(x: int) {
        var t: int = x + 1;
        v = v + t;
        counter = counter + t;
    }
}
func main() {
    var c: C = new C();
    c.bump(5);
    c.bump(7);
    print(c.v);
    print(counter);
}
`
	prog := ir.MustCompile(src)
	res, err := core.SplitProgram(prog,
		[]core.Spec{{Func: "C.bump", Seed: "t"}},
		slicer.Policy{HideFields: true, HideGlobals: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Globals == nil || res.Fields["C"] == nil {
		t.Fatalf("both extensions must engage: globals=%v fields=%v", res.Globals, res.Fields)
	}
	same, want, got, err := hrt.Equivalent(res, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatalf("composed extensions changed behavior:\n%s\nvs\n%s", want, got)
	}
}

func TestCrossInstanceHiddenFieldInSplitRejected(t *testing.T) {
	src := `
class C {
    field v: int;
    method steal(o: C): int {
        var t: int = v * 2;
        v = t + o.v;
        return t;
    }
}
func main() {
    var a: C = new C();
    var b: C = new C();
    print(a.steal(b));
}
`
	prog := ir.MustCompile(src)
	_, err := core.SplitProgram(prog,
		[]core.Spec{{Func: "C.steal", Seed: "t"}},
		slicer.Policy{HideFields: true})
	if err == nil || !strings.Contains(err.Error(), "cross-instance") {
		t.Fatalf("expected cross-instance rejection, got %v", err)
	}
}

// runOpenWith executes the open program against the given transport.
func runOpenWith(t *testing.T, res *core.Result, tr hrt.Transport) string {
	t.Helper()
	var sb strings.Builder
	in := newMachine(res, &sb, tr)
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func newMachine(res *core.Result, out *strings.Builder, tr hrt.Transport) *vm.Machine {
	return vm.NewMachine(res.Open, interp.Options{
		Out:        out,
		MaxSteps:   10_000_000,
		Hidden:     &hrt.Session{T: tr},
		SplitFuncs: res.SplitSet(),
	})
}

func TestHiddenFieldsManyInstancesInterleaved(t *testing.T) {
	// Ten objects, interleaved updates: every instance's hidden store must
	// stay isolated across arbitrary call orders.
	src := `
class Cell {
    field acc: int;
    method add(x: int) {
        var t: int = x * 3 + 1;
        acc = acc + t;
    }
    method get(): int { return acc; }
}
func main() {
    var cells: Cell[] = new Cell[10];
    for (var i: int = 0; i < 10; i++) {
        cells[i] = new Cell();
    }
    for (var r: int = 0; r < 5; r++) {
        for (var i: int = 0; i < 10; i++) {
            cells[(i * 7 + r) % 10].add(i + r * 2);
        }
    }
    for (var i: int = 0; i < 10; i++) {
        print(cells[i].get());
    }
}
`
	prog := ir.MustCompile(src)
	res, err := core.SplitProgram(prog,
		[]core.Spec{{Func: "Cell.add", Seed: "t"}},
		slicer.Policy{HideFields: true})
	if err != nil {
		t.Fatal(err)
	}
	same, want, got, err := hrt.Equivalent(res, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatalf("instance isolation broken:\nwant:\n%s\ngot:\n%s", want, got)
	}
}
