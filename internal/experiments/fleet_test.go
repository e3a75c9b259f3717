package experiments

import (
	"net"
	"runtime"
	"testing"
	"time"

	"slicehide/internal/cluster"
	"slicehide/internal/hrt"
)

// startFleet boots n replicating replicas serving the default load workload
// on loopback, each with its own journal, and waits until every one is
// ready, so the whole run is covered by replication. Every member needs the
// full membership before it starts, so the ports are reserved by binding
// and releasing listeners.
func startFleet(t *testing.T, n int) []string {
	t.Helper()
	res, _, _, _, err := splitLoadProgram((&LoadConfig{}).withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	groups := make([]*cluster.Group, n)
	for i, addr := range addrs {
		srv := &hrt.TCPServer{
			Server:  hrt.NewServer(hrt.NewRegistry(res)),
			Shards:  runtime.GOMAXPROCS(0),
			Persist: hrt.NewDurability(hrt.DurabilityOptions{Dir: t.TempDir()}),
		}
		// Wire the group before the listener: a peer's pump may connect the
		// instant the port opens, and the server's fleet hooks must already
		// be installed when it does.
		g, err := cluster.New(cluster.Config{Self: addr, Peers: addrs}, srv)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.ListenAndServe(addr); err != nil {
			t.Fatal(err)
		}
		g.Start()
		t.Cleanup(func() {
			g.Close()
			srv.Close()
		})
		groups[i] = g
	}
	deadline := time.Now().Add(10 * time.Second)
	for i, g := range groups {
		for ok, reason := g.Ready(); !ok; ok, reason = g.Ready() {
			if time.Now().After(deadline) {
				t.Fatalf("replica %s never became ready: %s", addrs[i], reason)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return addrs
}

// TestClusterSmoke drives loadtest's fleet path (RunLoad with Cluster) end
// to end at small scale against a running 1- and 3-replica fleet: sessions
// spread by rendezvous placement over one pooled connection per replica,
// pipelined like a -server run: at Window 64 calls go one-way and only
// the flush barriers block. Failover,
// cold joins and re-homing are covered where they live: daemon's
// TestClusterFailoverChaos and TestClusterJoinCatchupChaos, cluster's
// catch-up tests and TestMuxPool*.
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster smoke is socket-heavy")
	}
	for _, tc := range []struct {
		name     string
		replicas int
	}{
		{"single", 1},
		{"fleet3", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const sessions, ops = 6, 40
			res, err := RunLoad(LoadConfig{
				Cluster:  startFleet(t, tc.replicas),
				Sessions: sessions,
				Ops:      ops,
				Window:   64,
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(sessions * ops); res.TotalOps != want {
				t.Fatalf("TotalOps = %d, want %d", res.TotalOps, want)
			}
			// A barrier every 16 ops and one after the exit, per session.
			if want := int64(sessions * (ops/16 + 1)); res.Blocking.Count != want {
				t.Fatalf("Blocking.Count = %d, want %d (the barriers)", res.Blocking.Count, want)
			}
			if res.Mode != "pipelined" {
				t.Fatalf("Mode = %q, want pipelined", res.Mode)
			}
			if res.MuxConns != tc.replicas {
				t.Fatalf("MuxConns = %d, want %d", res.MuxConns, tc.replicas)
			}
			if res.OpsPerSec <= 0 {
				t.Fatalf("OpsPerSec = %v, want > 0", res.OpsPerSec)
			}
		})
	}
}
