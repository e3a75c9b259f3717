package daemon

// The fleet chaos harness: three hiddend replicas run as real subprocesses
// in replicating fleet mode, a client drives the open program at the
// session's rendezvous owner, and the owner is SIGKILLed mid-corpus and
// never restarted. The client's resolver re-resolves the session onto the
// promoted follower, which must continue the run from the streamed journal
// — byte-identical output, and every surviving replica ending with the
// exact execution tallies of an unkilled single-server control (each
// logical record observed exactly once per replica: executed locally or
// applied from the stream, never both).

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"slicehide/internal/cluster"
	"slicehide/internal/core"
	"slicehide/internal/hrt"
	"slicehide/internal/interp"
	"slicehide/internal/vm"
)

// clusterChaosClient is chaosClient against the fleet: the session rides
// the pooled multiplexed upstreams of a cluster.MuxPool, which follows
// owner redirects and falls down the rendezvous rank when the primary
// dies.
func clusterChaosClient(t *testing.T, res *core.Result, peers []string, session uint64, kills []int64, fire func(int)) (string, error) {
	t.Helper()
	policy := hrt.RetryPolicy{
		Retries:     80,
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  100 * time.Millisecond,
	}
	pool := cluster.NewMuxPool(cluster.MuxPoolConfig{
		Peers:   peers,
		Timeout: 2 * time.Second,
		Policy:  policy,
	})
	defer pool.Close()
	killer := &killerTransport{inner: pool.SessionTransport(session), kills: kills, fire: fire}
	var b strings.Builder
	in := vm.NewMachine(res.Open, interp.Options{
		Out:        &b,
		Hidden:     &hrt.Session{T: killer},
		SplitFuncs: res.SplitSet(),
	})
	runErr := in.Run()
	if len(killer.kills) > 0 {
		t.Fatalf("corpus too short: %d seeded kills never fired", len(killer.kills))
	}
	return b.String(), runErr
}

// pickSessionOwnedBy scans upward from start for a session id the fleet
// places on owner, so the test controls which replica each run homes on.
func pickSessionOwnedBy(t *testing.T, peers []string, owner string, start uint64) uint64 {
	t.Helper()
	for s := start; s < start+100000; s++ {
		if cluster.Owner(s, peers) == owner {
			return s
		}
	}
	t.Fatalf("no session near %d owned by %s", start, owner)
	return 0
}

// waitReady polls the child's /readyz until it reports 200.
func waitReady(t *testing.T, admin string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + admin + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("replica %s never became ready", admin)
}

// TestClusterFailoverChaos is the fleet chaos run: SIGKILL the primary of
// a live session on a 3-replica replicating fleet, never restart it, and
// require the run to finish byte-identical on the promoted follower with
// both survivors holding the exact tallies of an unkilled control.
func TestClusterFailoverChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos harness")
	}
	res := chaosResult(t)
	want, _, err := hrt.RunOriginal(res.Orig, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}

	// Control: the same two corpus runs against one unkilled in-process
	// server fix the exact tallies every surviving replica must end with —
	// full-mesh streaming means each replica observes each logical record
	// exactly once, whether it executed it or applied it.
	control := &hrt.TCPServer{Server: hrt.NewServer(hrt.NewRegistry(res))}
	caddr, err := control.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for _, session := range []uint64{1, 2} {
		out, err := chaosClient(t, res, caddr.String(), session, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out != want {
			t.Fatalf("control output %q, want %q", out, want)
		}
	}
	wantStats := control.Server.Stats()
	control.Close()

	prog := writeProgram(t)
	peers := []string{pickPort(t), pickPort(t), pickPort(t)}
	peersArg := strings.Join(peers, ",")
	children := make([]*child, len(peers))
	for i, listen := range peers {
		children[i] = startChild(t,
			"-listen", listen, "-split", chaosSplit,
			"-peers", peersArg,
			"-data-dir", t.TempDir(), "-snapshot-every", "16",
			"-admin", "127.0.0.1:0",
			prog,
		)
		defer children[i].kill()
	}
	for _, c := range children {
		waitReady(t, c.adminAddr())
	}

	// Session A homes on replica 0 — the victim. Session B homes on
	// replica 1 and runs after the kill, proving the shrunken fleet still
	// places and serves fresh traffic.
	sessA := pickSessionOwnedBy(t, peers, peers[0], 1000)
	sessB := pickSessionOwnedBy(t, peers, peers[1], 2000)

	outA, err := clusterChaosClient(t, res, peers, sessA, []int64{30}, func(int) {
		t.Logf("SIGKILL primary %s mid-run (session %d)", peers[0], sessA)
		children[0].kill()
	})
	if err != nil {
		for i := 1; i < len(children); i++ {
			t.Logf("survivor %d gauges: %v", i, scrapeGauges(t, children[i].adminAddr()))
		}
		t.Fatalf("failover run failed: %v\nsurvivor stderr:\n%s\n%s",
			err, children[1].stderr.String(), children[2].stderr.String())
	}
	if outA != want {
		t.Errorf("failover output %q, want byte-identical %q", outA, want)
	}

	outB, err := clusterChaosClient(t, res, peers, sessB, nil, nil)
	if err != nil {
		t.Fatalf("post-failover run failed: %v", err)
	}
	if outB != want {
		t.Errorf("post-failover output %q, want %q", outB, want)
	}

	var sawFailover bool
	for i := 1; i < len(children); i++ {
		gauges := scrapeGauges(t, children[i].adminAddr())
		for name, wantN := range map[string]int64{
			"hrt_executed_enters": wantStats.Enters,
			"hrt_executed_exits":  wantStats.Exits,
			"hrt_executed_calls":  wantStats.Calls,
		} {
			if got := gauges[name]; got != wantN {
				t.Errorf("survivor %d: %s = %d, want exactly %d", i, name, got, wantN)
			}
		}
		if gauges["hrt_executed_enters"] == 0 {
			t.Errorf("survivor %d: suspicious zero enter count", i)
		}
		if gauges["failover_ns"] > 0 {
			sawFailover = true
		}
		// The skip counter and the boot ids on the stream events are counts
		// and identifiers of process incarnations: nothing here carries a
		// hidden value or a record payload, so the obs.Secret rule has
		// nothing to redact.
		if _, ok := gauges["repl_skipped_records"]; !ok {
			t.Errorf("survivor %d: /metrics has no repl_skipped_records gauge beside repl_bytes", i)
		}
		if trace := dumpClusterTrace(t, children[i].adminAddr()); !strings.Contains(trace, "peer_boot") {
			t.Errorf("survivor %d: no stream event names the peer's boot id:\n%s", i, trace)
		}
		// A replica that served no client this run appends its replicated
		// records asynchronously (nothing commit-gates them), so its lag is
		// legitimately nonzero for the instant after the last response.
		// What must hold is convergence: the lag drains to zero and stays
		// there, rather than sticking (a stuck follower registration or a
		// rotation-boundary phantom would hold it at a nonzero floor).
		if lag := waitGaugeZero(t, children[i].adminAddr(), "repl_lag_records"); lag != 0 {
			t.Errorf("survivor %d: repl_lag_records = %d after quiescence, want 0", i, lag)
			for j := 1; j < len(children); j++ {
				t.Logf("survivor %d gauges: %v", j, scrapeGauges(t, children[j].adminAddr()))
				t.Logf("survivor %d trace:\n%s", j, dumpClusterTrace(t, children[j].adminAddr()))
			}
		}
	}
	if !sawFailover {
		t.Error("no survivor recorded a failover_ns after the primary's death")
	}

	// The survivors must still be ready — and the readiness endpoint must
	// be distinct from liveness (both served, both 200 on a healthy node).
	for i := 1; i < len(children); i++ {
		waitReady(t, children[i].adminAddr())
		resp, err := http.Get(fmt.Sprintf("http://%s/healthz", children[i].adminAddr()))
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("survivor %d healthz: %v %v", i, err, resp)
		}
		if resp != nil {
			resp.Body.Close()
		}
	}
}
