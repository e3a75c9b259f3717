package cluster

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"slicehide/internal/core"
	"slicehide/internal/hrt"
	"slicehide/internal/interp"
	"slicehide/internal/ir"
	"slicehide/internal/slicer"
)

const poolTestSrc = `
func work(x: int, y: int): int {
    var k: int = x * 3 + y;
    return k + x - y;
}
func main() { print(work(2, 1)); }
`

// poolTestServer starts a TCPServer hosting the split workload and
// returns its address plus the component/fragment to drive.
func poolTestServer(t *testing.T, router hrt.Router) (string, *hrt.Server, string, int) {
	t.Helper()
	prog, err := ir.Compile(poolTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SplitProgram(prog, []core.Spec{{Func: "work", Seed: "k"}}, slicer.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	fragID := -1
	for id := range res.Splits["work"].Hidden.Frags {
		if fragID < 0 || id < fragID {
			fragID = id
		}
	}
	srv := hrt.NewServer(hrt.NewRegistry(res))
	ts := &hrt.TCPServer{Server: srv, Router: router}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	return addr.String(), srv, "work", fragID
}

// driveSession runs one session's enter/call/exit cycle over tr: every
// request a blocking round trip, or with oneWay every request sent one-way
// and one barrier at the end.
func driveSession(t *testing.T, tr hrt.Transport, comp string, fragID, calls int, oneWay bool) {
	t.Helper()
	args := []interp.Value{interp.IntV(2), interp.IntV(1)}
	if oneWay {
		as := hrt.NewAsyncSession(tr)
		if as == nil {
			t.Fatalf("%T cannot send one-way", tr)
		}
		inst, err := as.EnterAsync(comp, 0)
		if err != nil {
			t.Fatalf("enter: %v", err)
		}
		for i := 0; i < calls; i++ {
			if err := as.CallOneWay(comp, inst, fragID, args); err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
		}
		if err := as.ExitAsync(comp, inst); err != nil {
			t.Fatalf("exit: %v", err)
		}
		if err := as.Barrier(); err != nil {
			t.Fatalf("barrier: %v", err)
		}
		return
	}
	sess := &hrt.Session{T: tr}
	inst, err := sess.Enter(comp, 0)
	if err != nil {
		t.Fatalf("enter: %v", err)
	}
	for i := 0; i < calls; i++ {
		if _, err := sess.Call(comp, inst, fragID, args); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if err := sess.Exit(comp, inst); err != nil {
		t.Fatalf("exit: %v", err)
	}
}

// TestMuxPoolSharesOneConnPerReplica pins the pool's whole point: many
// sessions against one replica ride a single multiplexed connection.
func TestMuxPoolSharesOneConnPerReplica(t *testing.T) {
	addr, srv, comp, fragID := poolTestServer(t, nil)
	pool := NewMuxPool(MuxPoolConfig{Peers: []string{addr}})
	defer pool.Close()

	const sessions = 8
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			driveSession(t, pool.SessionTransport(0), comp, fragID, 10, false)
		}()
	}
	wg.Wait()
	if got := pool.Conns(); got != 1 {
		t.Errorf("pool opened %d connections for %d sessions, want 1", got, sessions)
	}
	if got := srv.Stats().Calls; got != sessions*10 {
		t.Errorf("server executed %d calls, want %d", got, sessions*10)
	}
}

// redirectRouter bounces every unknown session to a fixed owner.
type redirectRouter struct{ owner string }

func (r redirectRouter) Route(session uint64, known bool) (string, bool) {
	if known {
		return "", false
	}
	return r.owner, true
}

// TestMuxPoolFollowsOwnerRedirect pins re-homing: a session whose
// rendezvous rank leads with a replica that redirects must land on the
// named owner without tearing either pooled connection down, whether it
// waits for every reply or sends one-way and meets the redirect only at
// its barrier.
func TestMuxPoolFollowsOwnerRedirect(t *testing.T) {
	t.Run("sync", func(t *testing.T) { testFollowsOwnerRedirect(t, false) })
	t.Run("oneway", func(t *testing.T) { testFollowsOwnerRedirect(t, true) })
}

func testFollowsOwnerRedirect(t *testing.T, oneWay bool) {
	ownerAddr, ownerSrv, comp, fragID := poolTestServer(t, nil)
	bouncerAddr, bouncerSrv, _, _ := poolTestServer(t, redirectRouter{owner: ownerAddr})
	peers := []string{bouncerAddr, ownerAddr}

	// Pick a session the rendezvous rank homes on the bouncer, so the
	// first exchange is guaranteed to be redirected.
	var session uint64
	for s := uint64(1); ; s++ {
		if Rank(s, peers)[0] == bouncerAddr {
			session = s
			break
		}
	}

	pool := NewMuxPool(MuxPoolConfig{Peers: peers})
	defer pool.Close()
	driveSession(t, pool.SessionTransport(session), comp, fragID, 10, oneWay)

	if got := ownerSrv.Stats().Calls; got != 10 {
		t.Errorf("owner executed %d calls, want 10", got)
	}
	if got := bouncerSrv.Stats().Calls; got != 0 {
		t.Errorf("bouncer executed %d calls, want 0 (should only redirect)", got)
	}
	if got := pool.Conns(); got != 2 {
		t.Errorf("pool holds %d connections, want 2 (one per replica)", got)
	}
}

// TestMuxPoolFailsOverDeadReplica pins rank fallback: a session whose
// first-ranked replica refuses connections must complete against the
// next one, sync or one-way, and the dead replica's dial failure must not
// be cached.
func TestMuxPoolFailsOverDeadReplica(t *testing.T) {
	t.Run("sync", func(t *testing.T) { testFailsOverDeadReplica(t, false) })
	t.Run("oneway", func(t *testing.T) { testFailsOverDeadReplica(t, true) })
}

func testFailsOverDeadReplica(t *testing.T, oneWay bool) {
	liveAddr, srv, comp, fragID := poolTestServer(t, nil)
	// Reserve (and immediately release) a port so the address refuses.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()
	peers := []string{deadAddr, liveAddr}

	var session uint64
	for s := uint64(1); ; s++ {
		if Rank(s, peers)[0] == deadAddr {
			session = s
			break
		}
	}

	pool := NewMuxPool(MuxPoolConfig{
		Peers:   peers,
		Timeout: time.Second,
		Policy:  hrt.RetryPolicy{Retries: 4, BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond},
	})
	defer pool.Close()
	driveSession(t, pool.SessionTransport(session), comp, fragID, 10, oneWay)

	if got := srv.Stats().Calls; got != 10 {
		t.Errorf("live replica executed %d calls, want 10", got)
	}
	if got := pool.Conns(); got != 1 {
		t.Errorf("pool holds %d connections, want 1 (dead dial not cached)", got)
	}
}

// Conns reports how many upstream connections the pool holds (for tests
// and gauges).
func (p *MuxPool) Conns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}

// ledgerSrc keeps an order-sensitive accumulator hidden: init and mix
// mutate it, eval reads it. A lost, doubled or reordered mix changes
// every later eval.
const ledgerSrc = `
func work(x: int, y: int): int {
    var acc: int = x * 3 + y;
    var B: int[] = new int[1];
    acc = (acc * 31 + x * y + 7) % 1000003;
    B[0] = (acc + x) % 65521;
    return B[0];
}
func main() { print(work(5, 2)); }
`

// ledgerSplit splits ledgerSrc at acc: fragment 0 is init(x, y), 1 is
// mix(x, y), 2 is eval(x).
func ledgerSplit(t *testing.T) *core.Result {
	t.Helper()
	prog, err := ir.Compile(ledgerSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SplitProgram(prog, []core.Spec{{Func: "work", Seed: "acc"}}, slicer.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	frags := res.Splits["work"].Hidden.Frags
	for id, want := range []struct {
		args int
		kind core.FragKind
	}{{2, core.FragExec}, {2, core.FragExec}, {1, core.FragEval}} {
		if f := frags[id]; f == nil || len(f.ArgVars) != want.args || f.Kind != want.kind {
			t.Fatalf("fragment %d of the ledger split is not what the test drives", id)
		}
	}
	return res
}

// TestMuxPoolPipelinedFailover stops a session's owner while the session
// has one-way calls in flight that no barrier has acknowledged. The
// session's stream must move to a survivor with its window and replay it
// there: every survivor ends with exactly the client's logical calls
// executed, and the hidden accumulator equals the plain-Go model's.
func TestMuxPoolPipelinedFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replica harness")
	}
	addrs, fleet := startFleet(t, func() *core.Result { return ledgerSplit(t) }, 3)
	session := ownedBy(addrs, addrs[0], 1)
	pool := NewMuxPool(MuxPoolConfig{
		Peers:   addrs,
		Timeout: 2 * time.Second,
		Policy:  hrt.RetryPolicy{Retries: 80, BackoffBase: 2 * time.Millisecond, BackoffMax: 50 * time.Millisecond},
	})
	defer pool.Close()
	stream := pool.SessionTransport(session)
	defer stream.Close()
	as := hrt.NewAsyncSession(stream)

	const fn = "work"
	inst, err := as.EnterAsync(fn, 0)
	if err != nil {
		t.Fatal(err)
	}
	calls := int64(1)
	if _, err := as.Call(fn, inst, 0, []interp.Value{interp.IntV(5), interp.IntV(2)}); err != nil {
		t.Fatal(err)
	}
	acc := int64(5*3 + 2)
	mix := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			x, y := calls%7+1, calls%5+2
			if err := as.CallOneWay(fn, inst, 1, []interp.Value{interp.IntV(x), interp.IntV(y)}); err != nil {
				t.Fatal(err)
			}
			acc = (acc*31 + x*y + 7) % 1000003
			calls++
		}
	}
	mix(40)
	if err := as.Barrier(); err != nil {
		t.Fatal(err)
	}
	// Fewer than half a window, so no window update acknowledges them
	// before the owner goes.
	mix(20)
	if got := stream.InFlight(); got == 0 {
		t.Fatal("no one-way call was left unacknowledged before the owner stopped")
	}
	fleet[0].stop()
	mix(20)
	if err := as.Barrier(); err != nil {
		t.Fatalf("barrier across the owner's death: %v", err)
	}
	v, err := as.Call(fn, inst, 2, []interp.Value{interp.IntV(3)})
	if err != nil {
		t.Fatal(err)
	}
	calls++
	if want := (acc + 3) % 65521; v.I != want {
		t.Errorf("hidden accumulator reads %d after failover, the model %d", v.I, want)
	}
	waitUntil(t, 20*time.Second, fmt.Sprintf("every survivor to execute the client's %d calls", calls), func() bool {
		for _, r := range fleet[1:] {
			if r.ts.Server.Stats().Calls != calls || r.g.Lag() != 0 {
				return false
			}
		}
		return true
	})
}
