// Secure calculator: the "untrustworthy user" scenario from the paper's
// introduction, using the §2.2 object-oriented extension. A loan-pricing
// application is installed on client machines; each customer is an object
// whose risk state (hidden class fields) lives on the vendor's secure
// server, one hidden store per customer instance. Clients receive only the
// open component, which is incomplete without the vendor's server.
//
// The example runs the same workload three ways — unsplit, split in-process,
// and split across a simulated LAN — and reports interaction counts and
// overhead (the Table 5 methodology).
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"slicehide/internal/core"
	"slicehide/internal/hrt"
	"slicehide/internal/interp"
	"slicehide/internal/ir"
	"slicehide/internal/slicer"
	"slicehide/internal/vm"
)

const src = `
// Customer carries the proprietary risk model's state. The fields risk and
// tier are the vendor's crown jewels: after splitting, their values and the
// code that maintains them exist only on the secure server, one hidden
// store per customer object.
class Customer {
    field risk: int;
    field tier: int;

    method apply(income: int, debt: int, years: int) {
        var score: int = income * 3 - debt * 7 + years * years;
        var k: int = 0;
        while (k < years) {
            score = score + (income - debt) / (k * k + 1);
            k = k + 1;
        }
        risk = risk + score;
        if (risk > 5000) {
            tier = 1;
        } else {
            tier = 3;
        }
    }

    method rate(): int {
        var base: int = 350 + tier * 100;
        var adj: int = risk / 1000;
        if (adj > 200) { adj = 200; }
        if (adj < -100) { adj = -100; }
        return base + adj;
    }
}

func main() {
    var alice: Customer = new Customer();
    var bob: Customer = new Customer();
    alice.apply(80000, 20000, 5);
    bob.apply(30000, 29000, 1);
    print("alice:", alice.rate());
    print("bob:  ", bob.rate());
    alice.apply(12000, 38000, 2);
    print("alice after refinancing:", alice.rate());
    print("bob unchanged:          ", bob.rate());
}
`

func main() {
	prog, err := ir.Compile(src)
	if err != nil {
		log.Fatal(err)
	}
	// Split the risk-model method; the slice pulls the class fields in,
	// engaging the per-instance hidden-fields extension.
	res, err := core.SplitProgram(prog,
		[]core.Spec{{Func: "Customer.apply", Seed: "score"}},
		slicer.Policy{HideFields: true})
	if err != nil {
		log.Fatal(err)
	}
	sf := res.Splits["Customer.apply"]
	fmt.Printf("split Customer.apply: %d hidden vars (fields: %v), %d fragments, %d ILPs\n",
		len(sf.Hidden.Vars), fieldNames(res), len(sf.Hidden.Frags), len(sf.ILPs))
	if fi := res.Fields["Customer"]; fi != nil {
		fmt.Printf("functions rewritten to fetch hidden fields: %v\n", fi.Rewritten)
	}
	fmt.Println("\nthe client receives only this open component:")
	fmt.Println(ir.FormatFunc(sf.Open))

	// 1. Baseline: the vendor's unsplit build.
	start := time.Now()
	origOut, _, err := hrt.RunOriginal(res.Orig, 10_000_000)
	if err != nil {
		log.Fatal(err)
	}
	baseline := time.Since(start)

	// 2. Split, hidden component in-process: behavior must be identical.
	out := hrt.RunSplit(res, nil, 10_000_000)
	if out.Err != nil {
		log.Fatal(out.Err)
	}
	if out.Output != origOut {
		log.Fatalf("split changed behavior:\n%s\nvs\n%s", out.Output, origOut)
	}

	// 3. Split across a simulated LAN (200µs RTT, the Table 5 setup).
	server := hrt.NewServer(hrt.NewRegistry(res))
	counters := &hrt.Counters{}
	var transport hrt.Transport = &hrt.Latency{Inner: &hrt.Local{Server: server}, RTT: 200 * time.Microsecond}
	transport = &hrt.Counting{Inner: transport, Counters: counters}
	var sb strings.Builder
	in := vm.NewMachine(res.Open, interp.Options{
		Out:        &sb,
		Hidden:     &hrt.Session{T: transport},
		SplitFuncs: res.SplitSet(),
	})
	start = time.Now()
	if err := in.Run(); err != nil {
		log.Fatal(err)
	}
	lan := time.Since(start)
	if sb.String() != origOut {
		log.Fatal("LAN run changed behavior")
	}

	fmt.Print(origOut)
	fmt.Printf("\nbaseline (unsplit):        %v\n", baseline.Round(time.Microsecond))
	fmt.Printf("split over simulated LAN:  %v (%d interactions, %d values shipped)\n",
		lan.Round(time.Microsecond), counters.Interactions(), counters.ValuesSent.Load())
	fmt.Println("\nfor a workload this tiny the round trips dominate; Table 5 in")
	fmt.Println("EXPERIMENTS.md measures realistic workloads, synchronous and")
	fmt.Println("pipelined, against the paper's 3-58% band.")
}

func fieldNames(res *core.Result) []string {
	var names []string
	for _, fi := range res.Fields {
		for _, v := range fi.Component.Vars {
			names = append(names, v.String())
		}
	}
	return names
}
