package interp_test

import (
	"strings"
	"testing"
)

func TestConversions(t *testing.T) {
	out := run(t, `
func main() {
    var i: int = 7;
    var f: float = float(i) / 2.0;
    print(f);
    var back: int = int(f);
    print(back);
    print(int(3.99), int(-3.99));
    print(float(10) * 0.5);
    print(int(true ? 2.5 : 0.5));
}`)
	want := "3.5\n3\n3 -3\n5.0\n2\n"
	if out != want {
		t.Errorf("got %q, want %q", out, want)
	}
}

func TestConversionIdentity(t *testing.T) {
	out := run(t, `
func main() {
    print(int(5), float(2.5));
}`)
	if out != "5 2.5\n" {
		t.Errorf("got %q", out)
	}
}

func TestConversionTypeErrors(t *testing.T) {
	_, err := runErr(`func main() { var s: string = "x"; print(int(s)); }`)
	if err == nil || !strings.Contains(err.Error(), "convert") {
		t.Fatalf("expected conversion type error, got %v", err)
	}
	_, err = runErr(`func main() { var b: bool = true; print(float(b)); }`)
	if err == nil {
		t.Fatal("expected conversion type error for bool")
	}
}

func TestConversionInsideSplitHiddenCode(t *testing.T) {
	// Covered end-to-end elsewhere (jfig kernels); here just the printer.
	out := run(t, `
func f(x: int): float {
    var h: float = float(x) * 1.5;
    h = h + 0.25;
    return h;
}
func main() { print(f(2)); }`)
	if out != "3.25\n" {
		t.Errorf("got %q", out)
	}
}
