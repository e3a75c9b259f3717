package hrt

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"slicehide/internal/core"
	"slicehide/internal/interp"
	"slicehide/internal/ir"
	"slicehide/internal/slicer"
	"slicehide/internal/vm"
)

const testSrc = `
func f(x: int, y: int): int {
    var a: int = x * 3 + y;
    var s: int = 0;
    var i: int = 0;
    while (i < a) {
        s = s + i;
        i = i + 1;
    }
    return s;
}
func main() { print(f(2, 1)); print(f(0, 4)); }
`

func split(t *testing.T, src string, specs ...core.Spec) *core.Result {
	t.Helper()
	prog, err := ir.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := core.SplitProgram(prog, specs, slicer.Policy{})
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	return res
}

func TestRunSplitMatchesOriginal(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	want, _, err := RunOriginal(res.Orig, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	out := RunSplit(res, nil, 1_000_000)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Output != want {
		t.Fatalf("output %q, want %q", out.Output, want)
	}
	if out.Interactions == 0 || out.Enters != 2 {
		t.Errorf("interactions=%d enters=%d", out.Interactions, out.Enters)
	}
}

func TestServerActivationLifecycle(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	server := NewServer(NewRegistry(res))
	inst, err := server.EnterSession(0, "f", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if server.ActiveInstances() != 1 {
		t.Errorf("active: %d", server.ActiveInstances())
	}
	if err := server.ExitSession(0, "f", inst); err != nil {
		t.Fatal(err)
	}
	if server.ActiveInstances() != 0 {
		t.Errorf("active after exit: %d", server.ActiveInstances())
	}
	if _, err := server.EnterSession(0, "nope", 0, 0); err == nil {
		t.Error("expected error entering unknown function")
	}
	if err := server.ExitSession(0, "nope", 1); err == nil {
		t.Error("expected error exiting unknown function")
	}
	if _, err := server.CallSession(0, "f", 999, 0, nil); err == nil {
		t.Error("expected error calling dead activation")
	}
}

func TestActivationsLeftAfterRunAreZero(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	server := NewServer(NewRegistry(res))
	var b strings.Builder
	in := vm.NewMachine(res.Open, interp.Options{
		Out:        &b,
		Hidden:     &Session{T: &Local{Server: server}},
		SplitFuncs: res.SplitSet(),
	})
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if server.ActiveInstances() != 0 {
		t.Errorf("leaked activations: %d", server.ActiveInstances())
	}
}

func TestInstancesIsolated(t *testing.T) {
	// Two concurrent activations of the same split function must not share
	// hidden state.
	res := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	server := NewServer(NewRegistry(res))
	i1, _ := server.EnterSession(0, "f", 0, 0)
	i2, _ := server.EnterSession(0, "f", 0, 0)
	initFrag, fetchFrag := stressFrags(t, res)
	if _, err := server.CallSession(0, "f", i1, initFrag, []interp.Value{interp.IntV(5)}); err != nil {
		t.Fatal(err)
	}
	if _, err := server.CallSession(0, "f", i2, initFrag, []interp.Value{interp.IntV(9)}); err != nil {
		t.Fatal(err)
	}
	v1, err := server.CallSession(0, "f", i1, fetchFrag, nil)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := server.CallSession(0, "f", i2, fetchFrag, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v1.I != 5 || v2.I != 9 {
		t.Errorf("instances share state: %v %v", v1, v2)
	}
}

func TestArgCountValidated(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	server := NewServer(NewRegistry(res))
	inst, _ := server.EnterSession(0, "f", 0, 0)
	comp := res.Splits["f"].Hidden
	for _, id := range comp.FragIDs() {
		fr := comp.Frags[id]
		if len(fr.ArgVars) > 0 {
			if _, err := server.CallSession(0, "f", inst, id, nil); err == nil {
				t.Errorf("fragment %d accepted wrong arg count", id)
			}
			return
		}
	}
}

func TestLatencyTransportDelays(t *testing.T) {
	var total time.Duration
	var mu sync.Mutex
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	server := NewServer(NewRegistry(res))
	lt := &Latency{
		Inner: &Local{Server: server},
		RTT:   3 * time.Millisecond,
		Sleep: func(d time.Duration) { mu.Lock(); total += d; mu.Unlock() },
	}
	counters := &Counters{}
	var b strings.Builder
	in := vm.NewMachine(res.Open, interp.Options{
		Out:        &b,
		Hidden:     &Session{T: &Counting{Inner: lt, Counters: counters}},
		SplitFuncs: res.SplitSet(),
	})
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	rounds := counters.Calls.Load() + counters.Enters.Load() + counters.Exits.Load()
	if got := time.Duration(rounds) * 3 * time.Millisecond; total != got {
		t.Errorf("virtual delay %v, want %v (%d rounds)", total, got, rounds)
	}
}

func TestCountersCountValues(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	out := RunSplit(res, nil, 1_000_000)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.ValuesSent == 0 {
		t.Error("expected argument values to be counted")
	}
}

func TestUnknownFragment(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	server := NewServer(NewRegistry(res))
	inst, _ := server.EnterSession(0, "f", 0, 0)
	if _, err := server.CallSession(0, "f", inst, 9999, nil); err == nil {
		t.Error("expected unknown-fragment error")
	}
}

// TestSessionServerReportedErrors covers the Session error paths: a
// server-reported Response.Err must surface as an error from Enter, Exit,
// and Call, distinct from transport failures.
func TestSessionServerReportedErrors(t *testing.T) {
	boom := roundTripFunc(func(req Request) (Response, error) {
		return Response{Err: "hidden side exploded"}, nil
	})
	sess := &Session{T: boom}
	if _, err := sess.Enter("f", 0); err == nil || !strings.Contains(err.Error(), "exploded") {
		t.Errorf("Enter error: %v", err)
	}
	if err := sess.Exit("f", 1); err == nil || !strings.Contains(err.Error(), "exploded") {
		t.Errorf("Exit error: %v", err)
	}
	if _, err := sess.Call("f", 1, 0, nil); err == nil || !strings.Contains(err.Error(), "exploded") {
		t.Errorf("Call error: %v", err)
	}

	// Transport-level failures propagate unwrapped (the caller may
	// classify them for retry).
	dead := roundTripFunc(func(req Request) (Response, error) {
		return Response{}, errSentinel
	})
	sess = &Session{T: dead}
	if _, err := sess.Enter("f", 0); err != errSentinel {
		t.Errorf("Enter transport error: %v", err)
	}
	if err := sess.Exit("f", 1); err != errSentinel {
		t.Errorf("Exit transport error: %v", err)
	}
	if _, err := sess.Call("f", 1, 0, nil); err != errSentinel {
		t.Errorf("Call transport error: %v", err)
	}
}

var errSentinel = errors.New("link down")

// TestLatencySleepInjection pins the virtual-clock hook: an injected
// Sleep sees exactly one RTT per round trip and the real clock is never
// touched; zero RTT must not call Sleep at all.
func TestLatencySleepInjection(t *testing.T) {
	inner := roundTripFunc(func(req Request) (Response, error) { return Response{}, nil })
	var slept []time.Duration
	lt := &Latency{
		Inner: inner,
		RTT:   5 * time.Millisecond,
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	}
	for i := 0; i < 3; i++ {
		if _, err := lt.RoundTrip(Request{Op: OpCall}); err != nil {
			t.Fatal(err)
		}
	}
	if len(slept) != 3 {
		t.Fatalf("sleep calls: %d", len(slept))
	}
	for _, d := range slept {
		if d != 5*time.Millisecond {
			t.Errorf("slept %v, want 5ms", d)
		}
	}

	lt.RTT = 0
	slept = nil
	if _, err := lt.RoundTrip(Request{Op: OpCall}); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 0 {
		t.Errorf("zero RTT slept: %v", slept)
	}
}

func TestConcurrentServerAccess(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	server := NewServer(NewRegistry(res))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				inst, err := server.EnterSession(0, "f", 0, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if err := server.ExitSession(0, "f", inst); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if server.ActiveInstances() != 0 {
		t.Errorf("leaked activations: %d", server.ActiveInstances())
	}
}
