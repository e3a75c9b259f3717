package experiments

import (
	"runtime"
	"strings"
	"testing"

	"slicehide/internal/hrt"
)

// startLoadServer serves the default load workload on a loopback
// TCPServer, as a running hiddend would.
func startLoadServer(t *testing.T) string {
	t.Helper()
	res, _, _, _, err := splitLoadProgram((&LoadConfig{}).withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	srv := &hrt.TCPServer{
		Server: hrt.NewServer(hrt.NewRegistry(res)),
		Shards: runtime.GOMAXPROCS(0),
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr.String()
}

// The load harness drives one fragment of one split function, so a -split
// list naming more than one is refused rather than cut down to its first.
func TestLoadRefusesSplitList(t *testing.T) {
	cfg := (&LoadConfig{Split: "work:k, work:k"}).withDefaults()
	if _, _, _, _, err := splitLoadProgram(cfg); err == nil || !strings.Contains(err.Error(), "want one") {
		t.Fatalf("two-spec split list: err %v, want a refusal", err)
	}
}

// TestLoadSmoke runs the load harness through its real socket path at
// small scale against a running server: synchronous and pipelined
// sessions, each over one connection and over connections shared by many
// sessions. Every session must complete every op.
func TestLoadSmoke(t *testing.T) {
	addr := startLoadServer(t)
	for _, tc := range []struct {
		name string
		cfg  LoadConfig
	}{
		{"sync/oneConn", LoadConfig{Sessions: 4, Ops: 50}},
		{"sync/sharedConns", LoadConfig{Sessions: 32, Ops: 20, MuxConns: 2}},
		{"pipelined/oneConn", LoadConfig{Sessions: 4, Ops: 50, Window: 64, BarrierEvery: 8}},
		{"pipelined/sharedConns", LoadConfig{Sessions: 32, Ops: 20, Window: 64, MuxConns: 2, BarrierEvery: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Addr = addr
			r, err := RunLoad(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(tc.cfg.Sessions) * int64(tc.cfg.Ops); r.TotalOps != want {
				t.Errorf("TotalOps = %d, want %d", r.TotalOps, want)
			}
			if want, _, _ := strings.Cut(tc.name, "/"); r.Mode != want {
				t.Errorf("Mode = %q, want %q", r.Mode, want)
			}
			wantConns := 1
			if tc.cfg.MuxConns > 0 {
				wantConns = tc.cfg.MuxConns
			}
			if r.MuxConns != wantConns {
				t.Errorf("MuxConns = %d, want %d", r.MuxConns, wantConns)
			}
			if r.OpsPerSec <= 0 {
				t.Errorf("OpsPerSec = %v, want > 0", r.OpsPerSec)
			}
			if r.Blocking.Count == 0 {
				t.Error("no blocking operations recorded")
			}
			t.Logf("%s: %.0f ops/sec, blocking p99 %dns", tc.name, r.OpsPerSec, r.Blocking.P99Ns)
		})
	}
}

// TestLoadNeedsTarget: loadtest only drives a running hidden tier, so a
// run with neither Addr nor Cluster is refused rather than served
// in-process.
func TestLoadNeedsTarget(t *testing.T) {
	if _, err := RunLoad(LoadConfig{Sessions: 1, Ops: 1}); err == nil || !strings.Contains(err.Error(), "no target") {
		t.Fatalf("RunLoad with no target: err = %v, want a no-target error", err)
	}
}
