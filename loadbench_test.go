package slicehide

// Concurrent-load benchmarks for the sharded hidden server. The
// BenchmarkLoadDirect* pair measures shard contention in isolation —
// b.RunParallel goroutines each own a session and hammer CallSession with
// no sockets in the way — while TestWriteLoadBenchJSON drives the full
// socket harness (internal/experiments.RunLoad) to regenerate the
// committed BENCH_load.json. Run with:
//
//	make bench-load

import (
	"flag"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"slicehide/internal/experiments"
	"slicehide/internal/hrt"
	"slicehide/internal/interp"
)

// loadBenchSrc mirrors the load harness's default workload: fragments of
// a few arithmetic statements, so server-side locking rather than
// fragment execution dominates.
const loadBenchSrc = `
func work(x: int, y: int): int {
    var k: int = x * 3 + y;
    var t: int = k + x;
    return t - y;
}
func main() { print(work(2, 1)); }
`

// loadBenchSplit compiles and splits the workload, returning the split
// plus the lowest-numbered fragment and a matching argument vector.
func loadBenchSplit(tb testing.TB) (*SplitResult, int, []interp.Value) {
	prog, err := Compile(loadBenchSrc)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := Split(prog, []Spec{{Func: "work", Seed: "k"}})
	if err != nil {
		tb.Fatal(err)
	}
	sf, ok := res.Splits["work"]
	if !ok {
		tb.Fatal("no split for work")
	}
	fragID := -1
	for id := range sf.Hidden.Frags {
		if fragID < 0 || id < fragID {
			fragID = id
		}
	}
	if fragID < 0 {
		tb.Fatal("split produced no fragments")
	}
	args := make([]interp.Value, len(sf.Hidden.Frags[fragID].ArgVars))
	for i := range args {
		args[i] = interp.IntV(int64(i%5 + 1))
	}
	return res, fragID, args
}

// benchLoadDirect runs GOMAXPROCS goroutines, each owning one session,
// against a server with the given stripe count. Serial (1 stripe) vs
// sharded (GOMAXPROCS stripes) isolates what the striping buys once the
// codec and sockets are out of the picture.
func benchLoadDirect(b *testing.B, shards int) {
	res, fragID, args := loadBenchSplit(b)
	server := hrt.NewServerShards(hrt.NewRegistry(res), shards)
	var sessions atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		session := sessions.Add(1)
		inst, err := server.EnterSession(session, "work", 0, 0)
		if err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			if _, err := server.CallSession(session, "work", inst, fragID, args); err != nil {
				b.Error(err)
				return
			}
		}
		if err := server.ExitSession(session, "work", inst); err != nil {
			b.Error(err)
		}
	})
}

func BenchmarkLoadDirectSerial(b *testing.B)  { benchLoadDirect(b, 1) }
func BenchmarkLoadDirectSharded(b *testing.B) { benchLoadDirect(b, runtime.GOMAXPROCS(0)) }

// BenchmarkFragmentCall is the single-session direct-dispatch loop: no
// contention, no sockets — just the cost of one hidden fragment call end
// to end through CallSession.
func BenchmarkFragmentCall(b *testing.B) {
	res, fragID, args := loadBenchSplit(b)
	server := hrt.NewServer(hrt.NewRegistry(res))
	inst, err := server.EnterSession(1, "work", 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := server.CallSession(1, "work", inst, fragID, args); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLoadJSONPath makes `make bench-load` emit the machine-readable
// throughput report:
//
//	go test -run TestWriteLoadBenchJSON -bench-load-json BENCH_load.json .
var benchLoadJSONPath = flag.String("bench-load-json", "", "write BENCH_load.json-style report to this path")

// TestWriteLoadBenchJSON regenerates the committed BENCH_load.json when
// invoked with -bench-load-json (skipped otherwise, so plain `go test`
// stays fast): the pipelined socket workload at {1, 4} GOMAXPROCS ×
// {1 shard, 8 shards}, the 10k-sessions-over-shared-connections point,
// and the durability tiers driven synchronously and one-way.
func TestWriteLoadBenchJSON(t *testing.T) {
	if *benchLoadJSONPath == "" {
		t.Skip("pass -bench-load-json <path> to write the load report")
	}
	cfg := experiments.LoadConfig{
		Sessions:     8,
		Ops:          4000,
		Window:       128,
		BarrierEvery: 64,
	}
	if err := experiments.WriteLoadBenchJSONFile(*benchLoadJSONPath, cfg, 8); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", *benchLoadJSONPath)
}

// TestLoadSmoke is the `make bench-load-quick` gate: a small concurrent
// run through the real socket harness, synchronous and pipelined, in both
// stripe configurations, checking every session completed every op.
func TestLoadSmoke(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  experiments.LoadConfig
	}{
		{"sync/serial", experiments.LoadConfig{Sessions: 4, Ops: 50, Shards: 1}},
		{"sync/sharded", experiments.LoadConfig{Sessions: 4, Ops: 50, Shards: 4}},
		{"pipelined/serial", experiments.LoadConfig{Sessions: 4, Ops: 50, Shards: 1, Window: 64, BarrierEvery: 8}},
		{"pipelined/sharded", experiments.LoadConfig{Sessions: 4, Ops: 50, Shards: 4, Window: 64, BarrierEvery: 8}},
		{"pipelined/sharedConns", experiments.LoadConfig{Sessions: 32, Ops: 20, Shards: 4, Window: 64, MuxConns: 2, BarrierEvery: 8}},
		{"sync/sharedConns", experiments.LoadConfig{Sessions: 32, Ops: 20, Shards: 4, MuxConns: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := experiments.RunLoad(tc.cfg)
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
