package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

// TestEveryWorkloadSmoke runs each workload, untraced and traced, at a
// scale of a fraction of a second. It is in tier-1 so that an API change
// that breaks the benchmark breaks `go test ./...`, not the next
// measurement.
func TestEveryWorkloadSmoke(t *testing.T) {
	if got, want := len(workloads), len(workloadSpecs); got != want {
		t.Fatalf("%d workloads implemented, %d declared", got, want)
	}
	for i, w := range workloads {
		if w.name != workloadSpecs[i].Name {
			t.Fatalf("workload %d is %q, declared %q", i, w.name, workloadSpecs[i].Name)
		}
		for _, trace := range []bool{false, true} {
			rc := runConfig{seed: 7, seconds: 0.05, trace: trace, outDir: t.TempDir(), size: smokeSizes}
			rec, err := runWorkload(w, rc)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			for _, c := range rec.Checks {
				if !c.OK {
					t.Errorf("%s trace=%v: check %q failed: %s", w.name, trace, c.Name, c.Detail)
				}
			}
			if !rec.Correct || rec.Attempted < 1 || rec.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, rec.Correct, rec.Attempted, rec.Failed)
			}
			specs := endToEndSpecs
			if trace {
				specs = perLayerSpecs
				if _, err := os.Stat(rc.outDir + "/trace-" + w.name + ".json"); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
			if len(rec.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.name, trace, len(rec.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := rec.Metrics[s.Name]
				if !ok || m.Unit != s.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present=%v)", w.name, trace, s.Name, m, ok)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, s.Name, m.Value)
				}
			}
		}
	}
}

// TestSpecMatchesBenchmarkJSON holds the names, units, directions and
// bounds in spec.go to the BENCHMARK.json the driver reads.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(decl.Command, want) {
		t.Errorf("command = %v, want %v", decl.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(decl.Paths, want) {
		t.Errorf("paths = %v, want %v", decl.Paths, want)
	}
	if decl.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, want %d", decl.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(decl.Workloads, workloadSpecs) {
		t.Errorf("workloads differ:\n json %+v\n code %+v", decl.Workloads, workloadSpecs)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEndSpecs) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", decl.EndToEnd, endToEndSpecs)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayerSpecs) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", decl.PerLayer, perLayerSpecs)
	}
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec{}, decl.EndToEnd...), decl.PerLayer...) {
		if seen[s.Name] {
			t.Errorf("metric name %q used twice", s.Name)
		}
		seen[s.Name] = true
	}
	for _, w := range decl.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
}
