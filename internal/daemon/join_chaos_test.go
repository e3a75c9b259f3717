package daemon

// The elastic-fleet chaos harness: a two-replica replicating fleet serves
// enough corpus traffic to rotate both journals past generation 0 (so the
// joiner's catch-up cannot be served by journal streaming alone), then a
// cold third replica joins mid-corpus with -join, catches up via chunked
// snapshot transfer, and the old primary is SIGKILLed once the joiner
// reports ready. The run must finish byte-identical, and both survivors —
// including the replica that never saw the early records except through
// the transferred snapshot — must end with the exact execution tallies of
// an unkilled single-server control.

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"slicehide/internal/hrt"
)

// joinEnv turns on the harsher join variant: the joiner is SIGKILLed
// mid-catch-up (while /readyz is still 503) and restarted against the
// same data dir, so CI proves an interrupted snapshot transfer leaves
// the joiner able to restart the transfer rather than serving stale
// state. The dedicated CI leg runs this under the race detector.
const joinEnv = "SLICEHIDE_CHAOS_JOIN"

func chaosJoin() bool {
	switch os.Getenv(joinEnv) {
	case "1", "true", "on":
		return true
	}
	return false
}

// requireNotReady asserts the replica is still reporting 503: a joiner
// must never claim readiness before its catch-up completes.
func requireNotReady(t *testing.T, admin string) {
	t.Helper()
	resp, err := http.Get("http://" + admin + "/readyz")
	if err != nil {
		t.Fatalf("readyz during catch-up: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Errorf("joiner reported ready before catch-up completed")
	}
}

// waitJoinerReady is waitReady with a failure dump: the readyz reason,
// gauges, trace ring, and stderr of the joiner that never converged.
func waitJoinerReady(t *testing.T, c *child) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + c.adminAddr() + "/readyz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
			if time.Until(deadline) < time.Second {
				t.Logf("joiner readyz: %s", body)
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Logf("joiner gauges: %v", scrapeGauges(t, c.adminAddr()))
	t.Logf("joiner trace:\n%s", dumpClusterTrace(t, c.adminAddr()))
	// Reap before reading stderr: the exec pipe goroutine writes the buffer
	// until the child is gone.
	c.kill()
	t.Fatalf("joiner never became ready; stderr:\n%s", c.stderr.String())
}

// TestClusterJoinCatchupChaos grows a live two-replica fleet to three
// mid-corpus, after both founders have pruned generation 0, and then
// kills the session's original owner. The joiner can only have the early
// history through the snapshot transfer, so exact final gauges on it are
// the proof the transfer carried complete state.
func TestClusterJoinCatchupChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos harness")
	}
	res := chaosResult(t)
	want, _, err := hrt.RunOriginal(res.Orig, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}

	prog := writeProgram(t)
	founders := []string{pickPort(t), pickPort(t)}
	joinerListen := pickPort(t)
	all := []string{founders[0], founders[1], joinerListen}
	peersArg := strings.Join(founders, ",")
	children := make([]*child, len(founders))
	for i, listen := range founders {
		children[i] = startChild(t,
			"-listen", listen, "-split", chaosSplit,
			"-peers", peersArg, "-replicate",
			"-data-dir", t.TempDir(), "-snapshot-every", "4",
			"-admin", "127.0.0.1:0",
			prog,
		)
		defer children[i].kill()
	}
	for _, c := range children {
		waitReady(t, c.adminAddr())
	}

	// Warm the fleet until both founders have rotated to generation >= 3:
	// by then every prune sweep has removed generation 0 on both, so
	// whichever founder the joiner's catch-up lands on must answer with a
	// snapshot transfer, never a from-genesis journal stream.
	warm := 0
	for ; warm < 12; warm++ {
		rotated := true
		for _, c := range children {
			if scrapeGauges(t, c.adminAddr())["wal_generation"] < 3 {
				rotated = false
			}
		}
		if rotated {
			break
		}
		out, err := clusterChaosClient(t, res, founders, uint64(5000+warm), nil, nil)
		if err != nil {
			t.Fatalf("warm run %d: %v", warm, err)
		}
		if out != want {
			t.Fatalf("warm run %d output %q, want %q", warm, out, want)
		}
	}
	for i, c := range children {
		if gen := scrapeGauges(t, c.adminAddr())["wal_generation"]; gen < 3 {
			t.Fatalf("founder %d still at generation %d after %d warm runs; generation 0 never pruned", i, gen, warm)
		}
	}

	// Control: the same number of corpus runs against one unkilled
	// in-process server fixes the exact tallies every survivor must end
	// with — full-mesh streaming plus the snapshot transfer mean each
	// replica observes each logical record exactly once.
	control := &hrt.TCPServer{Server: hrt.NewServer(hrt.NewRegistry(res))}
	caddr, err := control.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < warm+2; s++ {
		out, err := chaosClient(t, res, caddr.String(), uint64(1+s), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out != want {
			t.Fatalf("control output %q, want %q", out, want)
		}
	}
	wantStats := control.Server.Stats()
	control.Close()

	// Session A homes on founder 0 — the victim. Session B homes on the
	// joiner and runs after the kill, proving the grown fleet places and
	// serves fresh traffic on its newest member.
	sessA := pickSessionOwnedBy(t, all, founders[0], 1000)
	sessB := pickSessionOwnedBy(t, all, joinerListen, 2000)

	joinerDir := t.TempDir()
	var joiner *child
	// firstLifeImported records whether the joiner's first life (harsh
	// variant) adopted a transferred snapshot before the SIGKILL: its data
	// dir then holds a snap-*.snap, and the second life recovers from it
	// instead of transferring again.
	firstLifeImported := false
	defer func() {
		if joiner != nil {
			joiner.kill()
		}
	}()
	startJoiner := func() *child {
		return startChild(t,
			"-listen", joinerListen, "-split", chaosSplit,
			"-join", founders[0], "-replicate",
			"-data-dir", joinerDir, "-snapshot-every", "4",
			"-admin", "127.0.0.1:0",
			prog,
		)
	}

	outA, err := clusterChaosClient(t, res, all, sessA, []int64{30}, func(int) {
		t.Logf("cold replica %s joining mid-run (session %d)", joinerListen, sessA)
		joiner = startJoiner()
		// The moment the listener is up the joiner holds no state and no
		// sender has announced its journal position: readiness must say so.
		requireNotReady(t, joiner.adminAddr())
		if chaosJoin() {
			// Harsh variant: SIGKILL the joiner mid-catch-up and restart it
			// on the same data dir. Whatever landed — nothing, a partial
			// staged transfer, or a full import — the restart must converge
			// without ever reporting ready early.
			t.Logf("SIGKILL joiner mid-catch-up, restarting on %s", joinerDir)
			joiner.kill()
			snaps, err := filepath.Glob(filepath.Join(joinerDir, "snap-*.snap"))
			if err != nil {
				t.Fatal(err)
			}
			firstLifeImported = len(snaps) > 0
			t.Logf("first life left %d snapshot(s) in %s", len(snaps), joinerDir)
			joiner = startJoiner()
			requireNotReady(t, joiner.adminAddr())
		}
		waitJoinerReady(t, joiner)
		t.Logf("joiner ready; SIGKILL old primary %s", founders[0])
		children[0].kill()
	})
	if err != nil {
		t.Logf("survivor gauges: %v", scrapeGauges(t, children[1].adminAddr()))
		if joiner != nil {
			t.Logf("joiner gauges: %v", scrapeGauges(t, joiner.adminAddr()))
			joiner.kill()
			t.Logf("joiner stderr:\n%s", joiner.stderr.String())
		}
		children[1].kill()
		t.Fatalf("join-mid-run failed: %v\nsurvivor stderr:\n%s", err, children[1].stderr.String())
	}
	if outA != want {
		t.Errorf("join-mid-run output %q, want byte-identical %q", outA, want)
	}

	outB, err := clusterChaosClient(t, res, all, sessB, nil, nil)
	if err != nil {
		joiner.kill()
		t.Fatalf("joiner-owned run failed: %v\njoiner stderr:\n%s", err, joiner.stderr.String())
	}
	if outB != want {
		t.Errorf("joiner-owned output %q, want %q", outB, want)
	}

	survivors := map[string]*child{"founder-1": children[1], "joiner": joiner}
	for name, c := range survivors {
		if lag := waitGaugeZero(t, c.adminAddr(), "repl_lag_records"); lag != 0 {
			t.Errorf("%s: repl_lag_records = %d after quiescence, want 0", name, lag)
			t.Logf("%s trace:\n%s", name, dumpClusterTrace(t, c.adminAddr()))
		}
		gauges := scrapeGauges(t, c.adminAddr())
		for metric, wantN := range map[string]int64{
			"hrt_executed_enters": wantStats.Enters,
			"hrt_executed_exits":  wantStats.Exits,
			"hrt_executed_calls":  wantStats.Calls,
		} {
			if got := gauges[metric]; got != wantN {
				t.Errorf("%s: %s = %d, want exactly %d", name, metric, got, wantN)
			}
		}
		if epoch := gauges["cluster_membership_epoch"]; epoch < 2 {
			t.Errorf("%s: cluster_membership_epoch = %d, want >= 2 after the join", name, epoch)
		}
		waitReady(t, c.adminAddr())
	}
	// The transfer may have completed in either life of the joiner: the
	// second life's gauges only see a transfer of its own.
	joinerGauges := scrapeGauges(t, joiner.adminAddr())
	switch {
	case joinerGauges["snap_xfer_bytes"] > 0:
		if time.Duration(joinerGauges["snap_xfer_ns"]) <= 0 {
			t.Errorf("joiner recorded no snap_xfer_ns despite completing a transfer")
		}
	case !firstLifeImported:
		t.Errorf("joiner caught up without a snapshot transfer (snap_xfer_bytes = 0, no snapshot from a first life); gauges: %v", joinerGauges)
	}
}
