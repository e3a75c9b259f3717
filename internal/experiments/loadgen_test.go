package experiments

import (
	"strings"
	"testing"
)

// TestLoadSmoke runs the load harness through its real socket path at
// small scale: synchronous and pipelined sessions, each over one
// connection and over connections shared by many sessions, plus one
// durable fsync run. Every session must complete every op.
func TestLoadSmoke(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  LoadConfig
	}{
		{"sync/oneConn", LoadConfig{Sessions: 4, Ops: 50}},
		{"sync/sharedConns", LoadConfig{Sessions: 32, Ops: 20, MuxConns: 2}},
		{"pipelined/oneConn", LoadConfig{Sessions: 4, Ops: 50, Window: 64, BarrierEvery: 8}},
		{"pipelined/sharedConns", LoadConfig{Sessions: 32, Ops: 20, Window: 64, MuxConns: 2, BarrierEvery: 8}},
		// The durable row gets its DataDir from t.TempDir below.
		{"sync/durable", LoadConfig{Sessions: 4, Ops: 50, Fsync: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.cfg.Fsync {
				tc.cfg.DataDir = t.TempDir()
			}
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
			if tc.cfg.Fsync {
				if r.Durability != "wal+fsync" {
					t.Errorf("Durability = %q, want wal+fsync", r.Durability)
				}
				if r.CommitBatchMean < 1 {
					t.Errorf("CommitBatchMean = %v, want >= 1 (group commit on)", r.CommitBatchMean)
				}
			} else if r.Durability != "" {
				t.Errorf("Durability = %q on an in-memory run", r.Durability)
			}
			t.Logf("%s: %.0f ops/sec, blocking p99 %dns", tc.name, r.OpsPerSec, r.Blocking.P99Ns)
		})
	}
}
