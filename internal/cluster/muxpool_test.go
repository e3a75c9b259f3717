package cluster

import (
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
    var t: int = k + x;
    return t - y;
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

// driveSession runs one session's enter/call/exit cycle over tr.
func driveSession(t *testing.T, tr hrt.Transport, comp string, fragID, calls int) {
	t.Helper()
	sess := &hrt.Session{T: tr}
	inst, err := sess.Enter(comp, 0)
	if err != nil {
		t.Fatalf("enter: %v", err)
	}
	args := []interp.Value{interp.IntV(2), interp.IntV(1)}
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
			driveSession(t, pool.SessionTransport(0), comp, fragID, 10)
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
// named owner without tearing either pooled connection down.
func TestMuxPoolFollowsOwnerRedirect(t *testing.T) {
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
	driveSession(t, pool.SessionTransport(session), comp, fragID, 10)

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
// next one, and the dead replica's dial failure must not be cached.
func TestMuxPoolFailsOverDeadReplica(t *testing.T) {
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
	driveSession(t, pool.SessionTransport(session), comp, fragID, 10)

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
