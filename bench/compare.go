package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Comparison of two result sets of the same benchmark, per (workload,
// end-to-end metric): the change in the median against the metric's bound.
//
//	ok          the second median is no worse than the first by more than the bound
//	regressed   it is worse by more than the bound
//	unresolved  either set's own run-to-run spread (interquartile distance over
//	            median) is wider than the bound, so the sets cannot tell
//	            (not applied to setup_s)

func readResultSet(path string) (resultSet, error) {
	var set resultSet
	b, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(b, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResultSet(pathA)
	if err != nil {
		return err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return err
	}
	if !compareSets(w, a, b) {
		return fmt.Errorf("%s does not hold the bounds against %s", pathB, pathA)
	}
	return nil
}

// values collects one metric's untraced values for one workload.
func values(set resultSet, workload, metric string) []float64 {
	var xs []float64
	for _, r := range set.Runs {
		if r.Workload == workload && !r.Trace {
			xs = append(xs, r.Metrics[metric].Value)
		}
	}
	return xs
}

// verdict judges one metric of one workload. worse is how much worse b's
// median is than a's, as a share of a's (negative = better).
func verdict(spec metricSpec, a, b []float64) (worse float64, result string) {
	ma, mb := median(a), median(b)
	worse = (mb - ma) / ma
	if spec.Better == "higher" {
		worse = -worse
	}
	// Set-up time is judged on its medians alone, as the driver does: it is
	// short, so its spread is wide, and its bound is there to show work
	// moved into set-up, not to certify it steady.
	if spec.Name != "setup_s" {
		for _, xs := range [][]float64{a, b} {
			if s, ok := spread(xs); ok && s > spec.Bound {
				return worse, "unresolved"
			}
		}
	}
	if worse > spec.Bound {
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareSets prints the table and reports whether every verdict is ok.
func compareSets(w io.Writer, a, b resultSet) bool {
	fmt.Fprintf(w, "%-14s %-10s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median a", "median b", "worse", "spread a", "spread b", "bound", "verdict")
	allOK := true
	for _, wl := range workloadSpecs {
		for _, spec := range endToEndSpecs {
			va, vb := values(a, wl.Name, spec.Name), values(b, wl.Name, spec.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, result := verdict(spec, va, vb)
			sa, _ := spread(va)
			sb, _ := spread(vb)
			fmt.Fprintf(w, "%-14s %-10s %14.4f %14.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.Name, spec.Name, median(va), median(vb), 100*worse, 100*sa, 100*sb, 100*spec.Bound, result)
			allOK = allOK && result == "ok"
		}
	}
	return allOK
}
