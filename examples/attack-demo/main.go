// Attack demo: the adversary's side of the story (§3). Two functions are
// split; the adversary observes every value crossing the open↔hidden
// boundary and tries to reconstruct the hidden fragments using linear
// regression, polynomial interpolation, and rational fitting.
//
// The linear leak falls immediately; the hidden-control-flow leak mixes
// samples from different paths and resists every hypothesis family —
// exactly the contrast the paper's security analysis predicts.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"slicehide/internal/attack"
	"slicehide/internal/core"
	"slicehide/internal/hrt"
	"slicehide/internal/interp"
	"slicehide/internal/ir"
	"slicehide/internal/slicer"
	"slicehide/internal/vm"
)

const weakSrc = `
// Weak hiding: the hidden slice computes a pure linear form of values the
// adversary can see being sent.
func price(units: int, rate: int): int {
    var total: int = units * 12 + rate * 3 + 250;
    var out: int[] = new int[1];
    out[0] = total;
    return out[0];
}
func main() { }
`

const strongSrc = `
// Strong hiding: the hidden slice iterates a data-dependent number of
// times under a hidden predicate with a mod-guarded branch.
func digest(seed: int, rounds: int): int {
    var h: int = seed * 2 + 1;
    var i: int = 0;
    while (i < rounds) {
        if (h % 3 == 0) { h = h / 3 + seed; } else { h = h * 2 - i; }
        i = i + 1;
    }
    return h;
}
func main() { }
`

func attackFunc(label, src, fn, seedVar string, drive func(in *vm.Machine, rng *rand.Rand) error) {
	prog, err := ir.Compile(src)
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.SplitProgram(prog, []core.Spec{{Func: fn, Seed: seedVar}}, slicer.Policy{})
	if err != nil {
		log.Fatal(err)
	}
	server := hrt.NewServer(hrt.NewRegistry(res))
	obs := attack.NewObserver(&hrt.Local{Server: server}, 4)
	in := vm.NewMachine(res.Open, interp.Options{
		Hidden:     &hrt.Session{T: obs},
		SplitFuncs: res.SplitSet(),
		MaxSteps:   100_000_000,
	})
	rng := rand.New(rand.NewSource(42))
	if err := drive(in, rng); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("=== %s ===\n", label)
	results := obs.AttackAll(attack.RecoveryOptions{})
	for _, k := range obs.Fragments() {
		samples := obs.Samples(k)
		r := results[k]
		fmt.Printf("  %-12s %4d samples: %s\n", k, len(samples), r)
		if r.Recovered && r.Model != nil && r.Class != "constant" {
			fmt.Printf("               recovered model: %s\n", r.Model.Describe())
		}
	}
	fmt.Println()
}

func main() {
	attackFunc("linear pricing formula (weak hiding)", weakSrc, "price", "total",
		func(in *vm.Machine, rng *rand.Rand) error {
			for i := 0; i < 120; i++ {
				_, err := in.Call("price", []interp.Value{
					interp.IntV(int64(rng.Intn(90) + 1)),
					interp.IntV(int64(rng.Intn(40) + 1)),
				})
				if err != nil {
					return err
				}
			}
			return nil
		})

	attackFunc("iterated digest under hidden control flow (strong hiding)", strongSrc, "digest", "h",
		func(in *vm.Machine, rng *rand.Rand) error {
			for i := 0; i < 400; i++ {
				_, err := in.Call("digest", []interp.Value{
					interp.IntV(int64(rng.Intn(500) + 1)),
					interp.IntV(int64(rng.Intn(6) + 3)),
				})
				if err != nil {
					return err
				}
			}
			return nil
		})

	fmt.Println("conclusion: values related by linear/polynomial hidden code are")
	fmt.Println("recoverable from observed traffic; hidden predicates and hidden")
	fmt.Println("loops mix execution paths and defeat the known automatic methods,")
	fmt.Println("which is the paper's §3 argument, measured.")
}
