// Package slicehide reproduces "Hiding Program Slices for Software
// Security" (Xiangyu Zhang and Rajiv Gupta, CGO 2003): a toolchain that
// splits programs into an open component, installed on an unsecure machine,
// and a hidden component constructed from forward data slices, installed on
// a secure machine or device. The open component is incomplete without the
// hidden one; recovering the hidden code from the observable interaction is
// the adversary's (hard) problem.
//
// The package is a facade over the implementation packages:
//
//	internal/lang/*     MiniJ front end (lexer, parser, type checker)
//	internal/ir         statement-level IR and lowering
//	internal/cfg        control-flow graphs and dominators
//	internal/dataflow   reaching definitions, def-use and use-def chains
//	internal/callgraph  call graph, recursion/loop-call detection, cuts
//	internal/slicer     forward data slices (§2.2 Step 1 + Step 3 roles)
//	internal/core       the splitting transformation and ILP inventory
//	internal/complexity the §3 security analysis (AC lattice, Fig. 3, CC)
//	internal/interp     runtime values, operator semantics, session contracts
//	internal/vm         the bytecode engine on both sides of the split
//	internal/hrt        the split runtime: hidden server and transports
//	internal/wal        the hidden server's journal and snapshot files
//	internal/obs        tracer, metrics registry, admin HTTP surface
//	internal/cluster    replicating fleets of hidden servers
//	internal/daemon     the hidden-server process behind cmd/hiddend
//	internal/oracle     tree-walking reference executors (tests only)
//	internal/attack     the automated-recovery toolkit (§3, measured)
//	internal/corpus     synthetic benchmark corpora and workload kernels
//	internal/experiments the §4 evaluation drivers (Tables 1–5)
//
// Quick start:
//
//	prog, _ := slicehide.Compile(src)
//	res, _ := slicehide.Split(prog, []slicehide.Spec{{Func: "f", Seed: "a"}})
//	out := slicehide.RunSplit(res, nil, 0)       // behaves like the original
//	reports := slicehide.AnalyzeILPs(res.Splits["f"])
package slicehide

import (
	"time"

	"slicehide/internal/complexity"
	"slicehide/internal/core"
	"slicehide/internal/hrt"
	"slicehide/internal/ir"
	"slicehide/internal/slicer"
)

// Program is a compiled MiniJ program in IR form.
type Program = ir.Program

// Spec names a function to split and optionally its seed variable.
type Spec = core.Spec

// SplitResult is a program-level split: the open program plus the hidden
// components and ILP inventory.
type SplitResult = core.Result

// SplitFunc is the split record of one function.
type SplitFunc = core.SplitFunc

// ILP is an information leak point (§3).
type ILP = core.ILP

// Policy controls which variable classes may be hidden.
type Policy = slicer.Policy

// Options tunes the splitting transformation.
type Options = core.Options

// ComplexityReport characterizes one ILP (arithmetic and control-flow
// complexity).
type ComplexityReport = complexity.Report

// Transport carries open→hidden requests; see hrt for Local, Latency,
// Counting, and MuxStream, the multiplexed TCP stream.
type Transport = hrt.Transport

// RunOutcome summarizes a split execution.
type RunOutcome = hrt.RunOutcome

// Compile parses, type-checks, and lowers MiniJ source.
func Compile(src string) (*Program, error) { return ir.Compile(src) }

// Split applies the splitting transformation to the named functions with
// the default policy (hide scalar locals and parameters).
func Split(prog *Program, specs []Spec) (*SplitResult, error) {
	return core.SplitProgram(prog, specs, slicer.Policy{})
}

// SplitWith is Split with an explicit policy and transformation options.
func SplitWith(prog *Program, specs []Spec, policy Policy, opts Options) (*SplitResult, error) {
	return core.SplitProgramOpts(prog, specs, policy, opts)
}

// AnalyzeILPs runs the §3 security analysis on one split function.
func AnalyzeILPs(sf *SplitFunc) []ComplexityReport { return complexity.Analyze(sf) }

// RunOriginal executes the unsplit program and returns its output and the
// number of interpreter steps (0 maxSteps = unlimited).
func RunOriginal(prog *Program, maxSteps int64) (string, int64, error) {
	return hrt.RunOriginal(prog, maxSteps)
}

// RunSplit executes the open program against a fresh in-process hidden
// server. wrap, when non-nil, decorates the transport (e.g. to add
// latency); see the hrt package for transports.
func RunSplit(res *SplitResult, wrap func(Transport) Transport, maxSteps int64) RunOutcome {
	return hrt.RunSplit(res, wrap, maxSteps)
}

// WithLatency returns a transport wrapper adding a fixed round-trip delay,
// reproducing the paper's LAN deployment. The delay is a real time.Sleep,
// which overshoots sub-millisecond RTTs by the OS timer resolution; Table
// 5 counts the link on a virtual clock instead (hrt.Latency.Sleep).
func WithLatency(rtt time.Duration) func(Transport) Transport {
	return func(t Transport) Transport { return &hrt.Latency{Inner: t, RTT: rtt} }
}
