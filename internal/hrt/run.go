package hrt

import (
	"strings"

	"slicehide/internal/core"
	"slicehide/internal/interp"
	"slicehide/internal/ir"
	"slicehide/internal/vm"
)

// NewRegistry compiles the hidden components of a split: each split
// function's, the shared globals component and each class's hidden-field
// component, told apart by where the split keeps them, not by name.
func NewRegistry(res *core.Result) *Registry {
	comps := make([]vm.Source, 0, len(res.Splits)+len(res.Fields)+1)
	for name, sf := range res.Splits {
		comps = append(comps, source(name, vm.CompFunc, sf.Orig.Class, sf.Hidden))
	}
	var init map[*ir.Var]*ir.Const
	if g := res.Globals; g != nil {
		comps = append(comps, source(g.Component.Func, vm.CompGlobals, "", g.Component))
		init = g.Init
	}
	for class, fi := range res.Fields {
		comps = append(comps, source(fi.Component.Func, vm.CompClass, class, fi.Component))
	}
	return &Registry{Prog: vm.Compile(comps, init)}
}

func source(name string, kind vm.CompKind, class string, h *core.HiddenComponent) vm.Source {
	src := vm.Source{Name: name, Kind: kind, Class: class, Vars: h.Vars}
	for _, fr := range h.Frags {
		src.Frags = append(src.Frags, vm.FragSource{ID: fr.ID, Args: fr.ArgVars, Body: fr.Body})
	}
	return src
}

// RunOutcome summarizes one end-to-end execution of a split program.
type RunOutcome struct {
	Output       string
	Interactions int64
	Enters       int64
	ValuesSent   int64
	// BytesSent/BytesRecv are the logical wire volume of the open↔hidden
	// traffic (encoded request/response sizes, retransmissions excluded).
	BytesSent int64
	BytesRecv int64
	// Retries/Reconnects count fault recoveries on retry-capable
	// transports (zero on the plain local transport).
	Retries    int64
	Reconnects int64
	// Flushes/WindowStalls/Blocking describe the pipelined link: barriers
	// awaited, early flushes forced by a full window, and the total number
	// of operations that blocked for a round trip (reply-bearing requests
	// plus barriers). On a latency-bound link wall-clock communication
	// cost is Blocking × RTT; in synchronous mode Blocking equals the
	// request count.
	Flushes      int64
	WindowStalls int64
	Blocking     int64
	Steps        int64
	Err          error
}

// RunOptions tunes RunSplitOpts.
type RunOptions struct {
	// Pipeline runs the open program over the async contract: reply-free
	// hidden calls go one-way and only barriers/reply-bearing calls block.
	// The outermost wrapped transport must be async-capable.
	Pipeline bool
}

// RunOriginal executes the unsplit program and returns its output.
func RunOriginal(prog *ir.Program, maxSteps int64) (string, int64, error) {
	var b strings.Builder
	in := vm.NewMachine(prog, interp.Options{Out: &b, MaxSteps: maxSteps})
	err := in.Run()
	return b.String(), in.Steps(), err
}

// RunSplit executes the open program of res against a fresh in-process
// hidden server reached through transport wrapper wrap (nil for a direct
// local transport). It returns the program output and interaction counts.
func RunSplit(res *core.Result, wrap func(Transport) Transport, maxSteps int64) RunOutcome {
	return RunSplitOpts(res, wrap, maxSteps, RunOptions{})
}

// RunSplitOpts is RunSplit with pipelining control.
func RunSplitOpts(res *core.Result, wrap func(Transport) Transport, maxSteps int64, opts RunOptions) RunOutcome {
	return runSplitOn(NewServer(NewRegistry(res)), res, wrap, maxSteps, opts)
}

// runSplitOn is RunSplitOpts against a given server.
func runSplitOn(server *Server, res *core.Result, wrap func(Transport) Transport, maxSteps int64, opts RunOptions) RunOutcome {
	var t Transport = &Local{Server: server}
	if wrap != nil {
		t = wrap(t)
	}
	counters := &Counters{}
	t = &Counting{Inner: t, Counters: counters}
	var hidden interp.HiddenSession = &Session{T: t}
	if opts.Pipeline {
		hidden = NewAsyncSession(t)
	}
	var b strings.Builder
	in := vm.NewMachine(res.Open, interp.Options{
		Out:        &b,
		MaxSteps:   maxSteps,
		Hidden:     hidden,
		SplitFuncs: res.SplitSet(),
	})
	err := in.Run()
	return RunOutcome{
		Output:       b.String(),
		Interactions: counters.Interactions(),
		Enters:       counters.Enters.Load(),
		ValuesSent:   counters.ValuesSent.Load(),
		BytesSent:    counters.BytesSent.Load(),
		BytesRecv:    counters.BytesRecv.Load(),
		Retries:      counters.Retries.Load(),
		Reconnects:   counters.Reconnects.Load(),
		Flushes:      counters.Flushes.Load(),
		WindowStalls: counters.WindowStalls.Load(),
		Blocking:     counters.Blocking(),
		Steps:        in.Steps(),
		Err:          err,
	}
}

// Equivalent runs both the original and the split program and reports
// whether their outputs match; it returns both outputs for diagnostics.
func Equivalent(res *core.Result, maxSteps int64) (bool, string, string, error) {
	origOut, _, err1 := RunOriginal(res.Orig, maxSteps)
	out := RunSplit(res, nil, maxSteps)
	if err1 != nil || out.Err != nil {
		// Both failing with the same error class still counts as equivalent
		// behavior for error-preserving transforms; report via error.
		if err1 != nil && out.Err != nil {
			return origOut == out.Output, origOut, out.Output, nil
		}
		if err1 != nil {
			return false, origOut, out.Output, err1
		}
		return false, origOut, out.Output, out.Err
	}
	return origOut == out.Output, origOut, out.Output, nil
}
