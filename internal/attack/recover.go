package attack

import (
	"fmt"
	"math"
)

// RecoveryOptions tunes the attack harness.
type RecoveryOptions struct {
	// MaxPolyDegree bounds the polynomial hypotheses tried (default 3).
	MaxPolyDegree int
	// MaxRationalDegree bounds the rational hypotheses tried (default 2).
	MaxRationalDegree int
	// HoldoutFraction of samples reserved for verification (default 0.3).
	HoldoutFraction float64
	// Tolerance is the maximum relative holdout error accepted as an exact
	// recovery (default 1e-6).
	Tolerance float64
}

func (o RecoveryOptions) withDefaults() RecoveryOptions {
	if o.MaxPolyDegree == 0 {
		o.MaxPolyDegree = 3
	}
	if o.MaxRationalDegree == 0 {
		o.MaxRationalDegree = 2
	}
	if o.HoldoutFraction == 0 {
		o.HoldoutFraction = 0.3
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-6
	}
	return o
}

// RecoveryResult describes an attack attempt against one hidden fragment.
type RecoveryResult struct {
	// Recovered reports whether some hypothesis explained the holdout set.
	Recovered bool
	// Model is the successful hypothesis (nil when not recovered).
	Model Model
	// Class names the hypothesis family ("constant", "linear", "poly-2",
	// "rational-1/1", ...); empty when not recovered.
	Class string
	// SamplesUsed is the number of observations consumed.
	SamplesUsed int
	// HoldoutError is the best relative holdout error seen.
	HoldoutError float64
}

// String renders the outcome.
func (r RecoveryResult) String() string {
	if !r.Recovered {
		return fmt.Sprintf("NOT RECOVERED (best holdout error %.3g, %d samples)", r.HoldoutError, r.SamplesUsed)
	}
	return fmt.Sprintf("recovered as %s with %d samples", r.Class, r.SamplesUsed)
}

// TryRecover attempts to reconstruct the hidden function behind the given
// samples, exactly as §3 describes an adversary would: try each known
// technique in order of increasing power (constant, linear regression,
// polynomial interpolation of rising degree, rational interpolation) and
// verify each hypothesis against held-out observations. There is no
// automatic technique for the Arbitrary class, so such fragments come back
// unrecovered.
func TryRecover(samples []Sample, opts RecoveryOptions) RecoveryResult {
	opts = opts.withDefaults()
	res := RecoveryResult{SamplesUsed: len(samples), HoldoutError: math.Inf(1)}
	if len(samples) == 0 {
		return res
	}
	// A constant output is recovered immediately, however few observations
	// exist (the adversary needs no regression for it).
	if m, err := FitConstant(samples); err == nil {
		res.Recovered = true
		res.Model = m
		res.Class = "constant"
		res.HoldoutError = 0
		return res
	}
	// Drop features with no variance (e.g. zero padding in the observation
	// window); they make the normal equations singular without carrying
	// information.
	active := informativeFeatures(samples)
	samples = project(samples, active)
	if len(samples) < 3 || len(active) == 0 {
		return res
	}
	nHold := int(float64(len(samples)) * opts.HoldoutFraction)
	if nHold < 1 {
		nHold = 1
	}
	train, hold := samples[:len(samples)-nHold], samples[len(samples)-nHold:]

	type hypothesis struct {
		class string
		fit   func() (Model, error)
	}
	var hyps []hypothesis
	hyps = append(hyps, hypothesis{"linear", func() (Model, error) { return FitLinear(train) }})
	for d := 2; d <= opts.MaxPolyDegree; d++ {
		d := d
		hyps = append(hyps, hypothesis{fmt.Sprintf("poly-%d", d), func() (Model, error) { return FitPolynomial(train, d) }})
	}
	for d := 1; d <= opts.MaxRationalDegree; d++ {
		d := d
		hyps = append(hyps, hypothesis{fmt.Sprintf("rational-%d/%d", d, d), func() (Model, error) { return FitRational(train, d, d) }})
	}

	for _, h := range hyps {
		m, err := h.fit()
		if err != nil {
			continue
		}
		errRel := holdoutError(m, hold)
		if errRel < res.HoldoutError {
			res.HoldoutError = errRel
		}
		if errRel <= opts.Tolerance {
			res.Recovered = true
			res.Model = &projectedModel{active: active, inner: m}
			res.Class = h.class
			return res
		}
	}
	return res
}

// informativeFeatures returns the indices of input features that vary
// across samples.
func informativeFeatures(samples []Sample) []int {
	if len(samples) == 0 {
		return nil
	}
	n := len(samples[0].Inputs)
	var active []int
	for i := 0; i < n; i++ {
		first := samples[0].Inputs[i]
		for _, s := range samples[1:] {
			if i < len(s.Inputs) && s.Inputs[i] != first {
				active = append(active, i)
				break
			}
		}
	}
	return active
}

// project maps samples onto the active feature subset.
func project(samples []Sample, active []int) []Sample {
	out := make([]Sample, len(samples))
	for i, s := range samples {
		in := make([]float64, len(active))
		for j, idx := range active {
			if idx < len(s.Inputs) {
				in[j] = s.Inputs[idx]
			}
		}
		out[i] = Sample{Inputs: in, Output: s.Output}
	}
	return out
}

// projectedModel evaluates an inner model on the active feature subset of
// the full input vector.
type projectedModel struct {
	active []int
	inner  Model
}

// Predict projects then delegates.
func (p *projectedModel) Predict(inputs []float64) float64 {
	in := make([]float64, len(p.active))
	for j, idx := range p.active {
		if idx < len(inputs) {
			in[j] = inputs[idx]
		}
	}
	return p.inner.Predict(in)
}

// Describe names the inner model and the feature projection.
func (p *projectedModel) Describe() string {
	return fmt.Sprintf("%s over features %v", p.inner.Describe(), p.active)
}

// holdoutError returns the maximum relative prediction error on the holdout
// set.
func holdoutError(m Model, hold []Sample) float64 {
	worst := 0.0
	for _, s := range hold {
		p := m.Predict(s.Inputs)
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return math.Inf(1)
		}
		scale := math.Max(1, math.Abs(s.Output))
		e := math.Abs(p-s.Output) / scale
		if e > worst {
			worst = e
		}
	}
	return worst
}

// Dedup removes duplicate input vectors, keeping first occurrences; fitting
// benefits from independent rows.
func Dedup(samples []Sample) []Sample {
	seen := make(map[string]bool, len(samples))
	out := samples[:0:0]
	for _, s := range samples {
		key := fmt.Sprint(s.Inputs)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, s)
	}
	return out
}
