package experiments

import "testing"

// TestClusterSmoke exercises the fleet harness end to end at small scale:
// a replicating 3-backend fleet, sessions spread by rendezvous placement,
// and — in the kill case — a primary dropped mid-run with every session
// still completing all its ops against the promoted survivors.
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster smoke is socket-heavy")
	}
	for _, tc := range []struct {
		name     string
		backends int
		kill     bool
		join     bool
		ops      int
	}{
		{"single", 1, false, false, 40},
		{"fleet3", 3, false, false, 40},
		{"fleet3-kill", 3, true, false, 40},
		// Enough ops that the two founders rotate past (and prune)
		// generation 0 before the halfway join, so the cold replica's
		// catch-up must cross a snapshot transfer.
		{"fleet2-join", 2, false, true, 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunClusterLoad(ClusterLoadConfig{
				Backends:    tc.backends,
				Sessions:    6,
				Ops:         tc.ops,
				KillPrimary: tc.kill,
				JoinMidRun:  tc.join,
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(6 * tc.ops); res.TotalOps != want {
				t.Fatalf("TotalOps = %d, want %d", res.TotalOps, want)
			}
			if res.OpsPerSec <= 0 {
				t.Fatalf("OpsPerSec = %v, want > 0", res.OpsPerSec)
			}
			if res.Blocking.Count != res.TotalOps {
				t.Fatalf("Blocking.Count = %d, want %d", res.Blocking.Count, res.TotalOps)
			}
			if res.Killed != tc.kill {
				t.Fatalf("Killed = %v, want %v", res.Killed, tc.kill)
			}
			if tc.kill && res.FailoverNs <= 0 {
				t.Fatalf("FailoverNs = %d, want > 0 after a kill", res.FailoverNs)
			}
			if res.Joined != tc.join {
				t.Fatalf("Joined = %v, want %v", res.Joined, tc.join)
			}
			if tc.join {
				if res.Backends != tc.backends+1 {
					t.Fatalf("Backends = %d after a join, want %d", res.Backends, tc.backends+1)
				}
				if res.MembershipEpoch < 2 {
					t.Fatalf("MembershipEpoch = %d after a join, want >= 2", res.MembershipEpoch)
				}
				if res.SnapXferBytes <= 0 || res.SnapXferNs <= 0 {
					t.Fatalf("snapshot transfer not observed: bytes=%d ns=%d", res.SnapXferBytes, res.SnapXferNs)
				}
			}
		})
	}
}
