package vm_test

import (
	"strings"
	"testing"

	"slicehide/internal/corpus"
	"slicehide/internal/interp"
	"slicehide/internal/ir"
	"slicehide/internal/vm"
)

// tableFiveInputs is the Table 5 row each kernel runs at in the kernel_run
// benchmark workload (by label prefix), whose inputs it divides by 4.
var tableFiveInputs = map[string]string{
	"javac":  "355K",
	"jess":   "fullmab",
	"jasmin": "small",
	"bloat":  "jess.jar",
}

// BenchmarkMachineKernels runs each Table 5 kernel unsplit on the machine,
// compile included, at kernel_run's sizes: the open side's cost per step
// without the benchmark harness around it. Run with
//
//	go test ./internal/vm -run '^$' -bench MachineKernels -count 5
func BenchmarkMachineKernels(b *testing.B) {
	for _, k := range corpus.Kernels() {
		prefix, ok := tableFiveInputs[k.Name]
		if !ok {
			continue
		}
		size := 0
		for _, in := range k.Inputs {
			if strings.HasPrefix(in.Label, prefix) {
				size = in.Size / 4
			}
		}
		prog, err := ir.Compile(k.Source(size))
		if err != nil {
			b.Fatalf("%s: %v", k.Name, err)
		}
		b.Run(k.Name, func(b *testing.B) {
			b.ReportAllocs()
			var steps int64
			for i := 0; i < b.N; i++ {
				m := vm.NewMachine(prog, interp.Options{})
				if err := m.Run(); err != nil {
					b.Fatal(err)
				}
				steps += m.Steps()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
		})
	}
}
