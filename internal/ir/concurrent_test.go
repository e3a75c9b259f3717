package ir_test

import (
	"strings"
	"sync"
	"testing"

	"slicehide/internal/ir"
)

// TestCompileConcurrent compiles the corpora and kernels from 8 goroutines
// at once; every goroutine must print every program exactly as a sequential
// compile does. The front end's scratch stacks belong to one pass, so
// under -race (make race) this fails if any of them is shared.
func TestCompileConcurrent(t *testing.T) {
	sources := testSources()
	render := func() (string, error) {
		var b strings.Builder
		for _, s := range sources {
			prog, err := ir.Compile(s.src)
			if err != nil {
				return "", err
			}
			for _, qn := range prog.Order {
				b.WriteString(ir.FormatFunc(prog.Funcs[qn]))
			}
		}
		return b.String(), nil
	}
	want, err := render()
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	got := make([]string, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w], errs[w] = render()
		}()
	}
	wg.Wait()
	for w := range workers {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if got[w] != want {
			t.Errorf("worker %d printed different IR than the sequential compile", w)
		}
	}
}
