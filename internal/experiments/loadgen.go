package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"slicehide/internal/cluster"
	"slicehide/internal/core"
	"slicehide/internal/hrt"
	"slicehide/internal/interp"
	"slicehide/internal/ir"
	"slicehide/internal/obs"
	"slicehide/internal/slicer"
)

// Concurrent load harness: M client sessions hammer one hidden server with
// K fragment calls each, measuring aggregate throughput and blocking-op
// latency. This is the multi-core counterpart of the Table 5 experiments —
// Table 5 measures one client's latency over a slow link, the load harness
// measures how many independent clients one server sustains. `slicehide
// loadtest` drives it, against one running server or a running replicating
// fleet; in-process load is measured by the benchmark's serve_* workloads.

// loadSource is the default workload: a small split function whose
// fragments are a few arithmetic statements — cheap enough that server-side
// locking, not fragment execution, is the bottleneck under load.
const loadSource = `
func work(x: int, y: int): int {
    var k: int = x * 3 + y;
    var t: int = k + x;
    return t - y;
}
func main() { print(work(2, 1)); }
`

// LoadConfig configures one concurrent load run.
type LoadConfig struct {
	// Addr is the running hidden server to target. RunLoad needs it or
	// Cluster.
	Addr string
	// Cluster targets a running replicating fleet instead (every member's
	// address). Sessions ride a cluster.MuxPool, one multiplexed connection
	// per replica, each homed on its rendezvous owner. Cluster takes
	// precedence over Addr.
	Cluster []string
	// Sessions is the number of concurrent client sessions. Default 8.
	Sessions int
	// Ops is the number of hidden fragment calls per session. Default 1000.
	Ops int
	// MuxConns is how many multiplexed connections the sessions share,
	// round-robin (0 = ceil(Sessions/256), capped at 64). A Cluster run
	// uses one per replica instead.
	MuxConns int
	// Window selects how each session drives its stream: 0 makes every
	// call a blocking round trip (the synchronous model); N>0 sends calls
	// one-way with a flush barrier every BarrierEvery ops and at most N
	// in flight (a Cluster run's pooled connections ask for the default
	// window, 64).
	Window int
	// BarrierEvery is how many one-way ops ride between flush barriers.
	// Default 16.
	BarrierEvery int
	// Source and Split override the workload program and split spec
	// (defaults: loadSource, "work:k"). The program is always compiled
	// and split locally to discover the fragment to drive, so it must be
	// the same program the target hosts, and Split a component it serves.
	Source string
	Split  string
}

// LoadResult is one load run's measurement, the schema-versioned document
// `slicehide loadtest -json` prints.
type LoadResult struct {
	Schema   int    `json:"schema"`
	Mode     string `json:"mode"` // "sync" (Window 0) or "pipelined"
	Sessions int    `json:"sessions"`
	// MuxConns is the number of TCP connections the sessions shared.
	MuxConns      int     `json:"mux_conns"`
	OpsPerSession int     `json:"ops_per_session"`
	TotalOps      int64   `json:"total_ops"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	ElapsedNs     int64   `json:"elapsed_ns"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	// Blocking is the latency distribution of the operations that waited
	// for the server: every call in sync mode, flush barriers in
	// pipelined mode.
	Blocking obs.HistSnapshot `json:"blocking_latency"`
}

// LoadSchemaVersion is bumped when LoadResult's shape changes. Version 2
// added exec_mode when fragment execution moved to compiled bytecode;
// version 3 added the "mux" mode and its mux_conns count; version 4 added
// p99.9 to latency snapshots and the group-commit fields (commit_bytes,
// commit_batch_mean) alongside dedicated durability rows in the report;
// version 5 dropped the per-connection transports: mode is "sync" or
// "pipelined", every row rides mux connections and mux_conns is always set;
// version 6 dropped shards, commit_bytes and exec_mode, which every run
// now fixes (GOMAXPROCS stripes, the default commit batch, the VM);
// version 7 dropped durability and commit_batch_mean with the self-hosted
// server they described.
const LoadSchemaVersion = 7

func (c *LoadConfig) withDefaults() LoadConfig {
	cfg := *c
	if cfg.Sessions <= 0 {
		cfg.Sessions = 8
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 1000
	}
	if cfg.BarrierEvery <= 0 {
		cfg.BarrierEvery = 16
	}
	if cfg.Source == "" {
		cfg.Source = loadSource
	}
	if cfg.Split == "" {
		cfg.Split = "work:k"
	}
	return cfg
}

// splitLoadProgram compiles and splits the workload, returning the split
// result and the component/fragment the workers will call.
func splitLoadProgram(cfg LoadConfig) (*core.Result, string, int, int, error) {
	prog, err := ir.Compile(cfg.Source)
	if err != nil {
		return nil, "", 0, 0, fmt.Errorf("loadgen: compile workload: %w", err)
	}
	specs := core.ParseSpecs(cfg.Split)
	if len(specs) != 1 {
		return nil, "", 0, 0, fmt.Errorf("loadgen: split spec %q names %d functions, want one", cfg.Split, len(specs))
	}
	fn := specs[0].Func
	res, err := core.SplitProgram(prog, specs, slicer.Policy{})
	if err != nil {
		return nil, "", 0, 0, fmt.Errorf("loadgen: split workload: %w", err)
	}
	sf, ok := res.Splits[fn]
	if !ok {
		return nil, "", 0, 0, fmt.Errorf("loadgen: no split for %s", fn)
	}
	// Pick the lowest-numbered fragment so every run drives the same code.
	fragID := -1
	for id := range sf.Hidden.Frags {
		if fragID < 0 || id < fragID {
			fragID = id
		}
	}
	if fragID < 0 {
		return nil, "", 0, 0, fmt.Errorf("loadgen: split of %s produced no fragments", fn)
	}
	return res, fn, fragID, len(sf.Hidden.Frags[fragID].ArgVars), nil
}

// RunLoad executes one concurrent load run and reports its measurement.
func RunLoad(c LoadConfig) (LoadResult, error) {
	cfg := c.withDefaults()
	if cfg.Addr == "" && len(cfg.Cluster) == 0 {
		return LoadResult{}, fmt.Errorf("loadgen: no target: set Addr or Cluster")
	}
	_, comp, fragID, argc, err := splitLoadProgram(cfg)
	if err != nil {
		return LoadResult{}, err
	}

	hist := &obs.Histogram{}
	args := make([]interp.Value, argc)
	for i := range args {
		args[i] = interp.IntV(int64(i%5 + 1))
	}

	// All sessions share a small pool of multiplexed connections: on one
	// server they are dialed up front, so a dial failure surfaces before any
	// load is generated, and sessions map onto them round-robin; on a fleet
	// the pool dials each replica on first use and retries long enough to
	// ride out a member's death (probe detection plus promotion).
	var conns []*hrt.MuxTransport
	var pool *cluster.MuxPool
	connCount := len(cfg.Cluster)
	if connCount > 0 {
		pool = cluster.NewMuxPool(cluster.MuxPoolConfig{
			Peers:  cfg.Cluster,
			Policy: hrt.RetryPolicy{Retries: 60, BackoffBase: 5 * time.Millisecond, BackoffMax: 100 * time.Millisecond},
		})
		defer pool.Close()
	} else {
		connCount = cfg.MuxConns
		if connCount <= 0 {
			connCount = (cfg.Sessions + 255) / 256
			if connCount > 64 {
				connCount = 64
			}
		}
		if connCount > cfg.Sessions {
			connCount = cfg.Sessions
		}
		conns = make([]*hrt.MuxTransport, connCount)
		for i := range conns {
			mt, err := hrt.DialMux(hrt.MuxConfig{Addr: cfg.Addr, Window: cfg.Window})
			if err != nil {
				return LoadResult{}, fmt.Errorf("loadgen: dial mux connection %d: %w", i, err)
			}
			defer mt.Close()
			conns[i] = mt
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, cfg.Sessions)
	start := time.Now()
	for w := 0; w < cfg.Sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var stream *hrt.MuxStream
			if pool != nil {
				stream = pool.SessionTransport(0)
			} else {
				stream = conns[w%len(conns)].Stream(0, nil)
			}
			defer stream.Close()
			errs[w] = loadWorker(stream, comp, fragID, args, cfg, hist)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return LoadResult{}, err
		}
	}

	mode := "sync"
	if cfg.Window > 0 {
		mode = "pipelined"
	}
	total := int64(cfg.Sessions) * int64(cfg.Ops)
	return LoadResult{
		Schema:        LoadSchemaVersion,
		Mode:          mode,
		Sessions:      cfg.Sessions,
		MuxConns:      connCount,
		OpsPerSession: cfg.Ops,
		TotalOps:      total,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		ElapsedNs:     elapsed.Nanoseconds(),
		OpsPerSec:     float64(total) / elapsed.Seconds(),
		Blocking:      hist.Snapshot(),
	}, nil
}

// loadWorker is one session over t, its stream on a shared multiplexed
// connection. With Window 0 every call blocks for its reply. Otherwise
// calls go one-way down the stream and only the periodic flush barrier
// blocks, while the connection's writer coalesces this session's frames
// with every other session riding the same socket.
func loadWorker(t hrt.Transport, comp string, fragID int, args []interp.Value, cfg LoadConfig, hist *obs.Histogram) error {
	if cfg.Window <= 0 {
		sess := &hrt.Session{T: t}
		inst, err := sess.Enter(comp, 0)
		if err != nil {
			return err
		}
		for op := 0; op < cfg.Ops; op++ {
			start := time.Now()
			if _, err := sess.Call(comp, inst, fragID, args); err != nil {
				return err
			}
			hist.Observe(time.Since(start))
		}
		return sess.Exit(comp, inst)
	}
	as := hrt.NewAsyncSession(t)
	inst, err := as.EnterAsync(comp, 0)
	if err != nil {
		return err
	}
	for op := 0; op < cfg.Ops; op++ {
		if err := as.CallOneWay(comp, inst, fragID, args); err != nil {
			return err
		}
		if (op+1)%cfg.BarrierEvery == 0 {
			start := time.Now()
			if err := as.Barrier(); err != nil {
				return err
			}
			hist.Observe(time.Since(start))
		}
	}
	if err := as.ExitAsync(comp, inst); err != nil {
		return err
	}
	start := time.Now()
	if err := as.Barrier(); err != nil {
		return err
	}
	hist.Observe(time.Since(start))
	return nil
}
