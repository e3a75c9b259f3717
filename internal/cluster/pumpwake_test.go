package cluster

// A pump wakes for what it may ship. A record this replica applied from a
// peer wakes no pump by itself; the pumps read such records when an
// executed record, a rotation, a commit gate, a lag reading or the
// hrt.MaxUnwoken-th unwoken record wakes them. These tests put the pumps'
// poll out of reach, so every wake they observe is one of those.

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"slicehide/internal/core"
	"slicehide/internal/hrt"
	"slicehide/internal/interp"
	"slicehide/internal/ir"
	"slicehide/internal/obs"
	"slicehide/internal/slicer"
	"slicehide/internal/vm"
)

// farPoll puts the pumps' tail poll out of reach for the rest of the test.
// Call it before the fleet starts: the restore then runs after the fleet
// stopped.
func farPoll(t *testing.T) {
	old := tailPollInterval
	tailPollInterval = time.Hour
	t.Cleanup(func() { tailPollInterval = old })
}

// The bound keeps a pump reading every applied record long before the
// tables that decide what it passes over forget it.
func TestPumpWakeBoundBelowTables(t *testing.T) {
	if hrt.MaxUnwoken*4 > pendingMax || hrt.MaxUnwoken*4 > stampTableSize {
		t.Errorf("up to %d records may go unread by a pump, against %d pending entries and %d stamps",
			hrt.MaxUnwoken, pendingMax, stampTableSize)
	}
}

// (i) A replica that only applies records — every session executes on its
// peer — wakes its pump for none of them until hrt.MaxUnwoken have gone by
// unread, and then once.
func TestPumpWakeAppliedRecordsBelowBound(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replica harness")
	}
	farPoll(t)
	_, initFrag := catchupSplit(t)
	addrs, fleet := startFleet(t, func() *core.Result { r, _ := catchupSplit(t); return r }, 2)
	follower := fleet[1]
	reg := obs.NewRegistry()
	follower.g.RegisterMetrics(reg)
	gauge := func() int64 { return reg.Snapshot().Gauges["repl_pump_wakes"] }
	// The lag gauge sampled beside it wakes nobody yet: nothing is applied.
	before := gauge()

	// One record for the enter, one per call.
	runSession(t, addrs, ownedBy(addrs, addrs[0], 1000), initFrag, hrt.MaxUnwoken-2)
	if _, n := follower.ts.Persist.CurrentPosition(); n != hrt.MaxUnwoken-1 {
		t.Fatalf("the follower holds %d records, want %d", n, hrt.MaxUnwoken-1)
	}
	if got := follower.g.pumpWakes.Load(); got != before {
		t.Errorf("%d applied records woke the follower's pump %d time(s), want none below the bound of %d",
			hrt.MaxUnwoken-1, got-before, hrt.MaxUnwoken)
	}
	runSession(t, addrs, ownedBy(addrs, addrs[0], 2000), initFrag, 0)
	waitUntil(t, 10*time.Second, "the bound to wake the pump", func() bool {
		return follower.g.pumpWakes.Load() > before
	})
	// Read through the gauge: the wake at the bound started the count
	// afresh, so this snapshot's lag reading wakes nobody either.
	if got := gauge(); got != before+1 {
		t.Errorf("repl_pump_wakes moved by %d over %d applied records, want exactly 1", got-before, hrt.MaxUnwoken)
	}
}

// (ii) A commit gate whose position ends in records applied from a peer
// wakes the pumps that pass them over: without the wake the gate would
// hold its reply until the poll (an hour here) or the commit timeout (a
// minute). The gated request is the replay of an executed one, which the
// replica answers from its replay cache without an append of its own, so
// the applied records are the newest in the position its gate reads.
func TestPumpWakeGateCoversAppliedRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replica harness")
	}
	farPoll(t)
	_, initFrag := catchupSplit(t)
	addrs, fleet := startFleetWith(t, func() *core.Result { r, _ := catchupSplit(t); return r }, 2,
		func(_ int, cfg *Config) { cfg.CommitTimeout = time.Minute })
	owner := fleet[0]
	mt, err := hrt.DialMux(hrt.MuxConfig{Addr: addrs[0], Timeout: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	enter := hrt.Request{Op: hrt.OpEnter, Session: ownedBy(addrs, addrs[0], 1000), Seq: 1, Fn: "f"}
	first, err := mt.Exchange(enter)
	if err != nil || first.Err != "" {
		t.Fatalf("enter: %v %s", err, first.Err)
	}
	// The peer executes four records; the owner applies them and wakes
	// none of its pumps.
	runSession(t, addrs, ownedBy(addrs, addrs[1], 2000), initFrag, 3)
	if _, n := owner.ts.Persist.CurrentPosition(); n != 5 {
		t.Fatalf("the owner holds %d records, want 5", n)
	}
	wakes := owner.g.pumpWakes.Load()
	replay, err := mt.Exchange(enter)
	if err != nil || replay != first {
		t.Fatalf("replayed enter answered %+v (%v), want the cached %+v", replay, err, first)
	}
	if got := owner.g.pumpWakes.Load(); got <= wakes {
		t.Error("the gate released without waking the pump that passes the applied records over")
	}
	if stalls := owner.g.syncStalls.Load(); stalls != 0 {
		t.Errorf("%d gated replies waited out the commit timeout", stalls)
	}
}

// (iii) On a replica that owns no session every record is applied, so
// nothing it executes wakes its pumps. Once load stops, its lag still
// drains to 0 within a few readings: each reading wakes the pumps for the
// records they have not read.
func TestPumpWakeLagDrainsOnIdleReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replica harness")
	}
	farPoll(t)
	_, initFrag := catchupSplit(t)
	addrs, fleet := startFleet(t, func() *core.Result { r, _ := catchupSplit(t); return r }, 3)
	const calls = 40
	var wg sync.WaitGroup
	for i, addr := range addrs[:2] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runSession(t, addrs, ownedBy(addrs, addr, uint64(1000*(i+1))), initFrag, calls)
		}()
	}
	wg.Wait()
	idle := fleet[2]
	readings := 0
	waitUntil(t, 10*time.Second, "the idle replica's lag to drain", func() bool {
		readings++
		return idle.g.Lag() == 0
	})
	t.Logf("lag drained after %d reading(s)", readings)
	if _, n := idle.ts.Persist.CurrentPosition(); n != 2*(calls+1) {
		t.Errorf("the idle replica holds %d records, want %d", n, 2*(calls+1))
	}
}

// globalsSrc keeps one hidden global that every call of f increments.
const globalsSrc = `
var g: int = 0;
func f(x: int): int { var a: int = x * 2; g = a + g; return a; }
func main() {
    var i: int = 0;
    while (i < 200) { f(1); i = i + 1; }
    print(g);
}
`

func globalsSplit(t *testing.T) *core.Result {
	t.Helper()
	prog, err := ir.Compile(globalsSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SplitProgram(prog, []core.Spec{{Func: "f", Seed: "a"}}, slicer.Policy{HideGlobals: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// A fleet behaves like one hidden device for a program with hidden
// globals: two sessions homed on different replicas each add 2 to the
// hidden global 200 times, and the one that finishes last reads all 800.
// Run on their own replicas, each under its own globals lock, the
// replicas' records carry post-write values that overwrite each other's
// increments.
func TestGlobalsLinearizableAcrossFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replica harness")
	}
	res := globalsSplit(t)
	if len(hrt.NewRegistry(res).Prog.Globals.Slots) == 0 {
		t.Fatal("the program's global is not hidden")
	}
	addrs, _ := startFleet(t, func() *core.Result { return globalsSplit(t) }, 2)
	pool := NewMuxPool(MuxPoolConfig{
		Peers:   addrs,
		Timeout: 5 * time.Second,
		Policy:  hrt.RetryPolicy{Retries: 40, BackoffBase: 2 * time.Millisecond, BackoffMax: 50 * time.Millisecond},
	})
	defer pool.Close()
	read := make([]int64, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stream := pool.SessionTransport(ownedBy(addrs, addr, 1))
			defer stream.Close()
			var out strings.Builder
			m := vm.NewMachine(res.Open, interp.Options{
				Out: &out, Hidden: hrt.NewAsyncSession(stream), SplitFuncs: res.SplitSet(),
			})
			if err := m.Run(); err != nil {
				t.Error(err)
				return
			}
			v, err := strconv.ParseInt(strings.TrimSpace(out.String()), 10, 64)
			if err != nil {
				t.Error(err)
			}
			read[i] = v
		}()
	}
	wg.Wait()
	if last := max(read[0], read[1]); last != 800 {
		t.Errorf("the sessions read the hidden global as %v, want the last to read 800", read)
	}
}
