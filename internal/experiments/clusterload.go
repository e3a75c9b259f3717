package experiments

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"slicehide/internal/cluster"
	"slicehide/internal/hrt"
	"slicehide/internal/interp"
	"slicehide/internal/obs"
)

// Fleet load harness: the cluster counterpart of RunLoad. It self-hosts N
// replicating hiddend backends (or targets a running fleet), spreads M
// sessions across them by rendezvous placement, and hammers each with K
// synchronous fragment calls. With KillPrimary it also SIGKILL-equivalently
// drops the busiest backend mid-run and measures how long the displaced
// sessions stall before the promoted follower serves them — the failover
// latency the fleet design exists to bound. `slicehide loadtest -cluster`
// drives it.

// ClusterLoadConfig configures one fleet load run.
type ClusterLoadConfig struct {
	// Addrs targets a running fleet (every member). Empty self-hosts
	// Backends in-process replicas on loopback ports.
	Addrs []string
	// Backends is the self-hosted replica count (default 3; ignored with
	// Addrs).
	Backends int
	// Sessions is the number of concurrent client sessions. Default 8.
	Sessions int
	// Ops is the number of hidden fragment calls per session. Default 500.
	Ops int
	// KillPrimary closes the backend owning the most sessions once half
	// the total ops have completed (self-hosted only): the surviving
	// replicas promote, and displaced sessions resume against them.
	KillPrimary bool
	// JoinMidRun boots one extra cold replica once half the total ops have
	// completed (self-hosted only): it joins via the first founder, catches
	// up through snapshot transfer + journal streaming, and the load keeps
	// running while the fleet re-ranks — the elastic-growth counterpart of
	// KillPrimary. Sessions are placed over the post-join fleet, so the
	// joiner inherits live traffic the moment it is ready.
	JoinMidRun bool
	// Source and Split override the workload (defaults: the RunLoad
	// workload). Every replica must host the same program.
	Source string
	Split  string
	// DataDir is the base directory for the self-hosted replicas' WALs
	// (default: a fresh temp dir, removed after the run).
	DataDir string
}

// ClusterLoadResult is one fleet run's measurement, the document
// `slicehide loadtest -cluster -json` prints.
type ClusterLoadResult struct {
	Schema        int     `json:"schema"`
	Backends      int     `json:"backends"`
	Sessions      int     `json:"sessions"`
	OpsPerSession int     `json:"ops_per_session"`
	TotalOps      int64   `json:"total_ops"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	ElapsedNs     int64   `json:"elapsed_ns"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	// Blocking is the latency distribution of every synchronous call —
	// including, in a kill run, the stalled calls that rode out the
	// failover, which dominate its tail.
	Blocking obs.HistSnapshot `json:"blocking_latency"`
	// Killed reports whether a backend was dropped mid-run.
	Killed bool `json:"killed"`
	// FailoverNs is the surviving fleet's observed failover latency (peer
	// death to first promoted serve), 0 when nothing was killed.
	FailoverNs int64 `json:"failover_ns"`
	// Redirects counts owner redirects served across the fleet.
	Redirects int64 `json:"redirects"`
	// Joined reports whether a cold replica was added mid-run.
	Joined bool `json:"joined"`
	// MembershipEpoch is the fleet's final membership epoch (1 for a fleet
	// that never grew or shrank; each join or leave bumps it by one).
	MembershipEpoch int64 `json:"cluster_membership_epoch"`
	// SnapXferBytes / SnapXferNs measure the joiner's snapshot catch-up
	// transfer (frame bytes received, transfer wall time); 0 when no join
	// happened or the joiner caught up by journal streaming alone.
	SnapXferBytes int64 `json:"snap_xfer_bytes"`
	SnapXferNs    int64 `json:"snap_xfer_ns"`
}

// ClusterSchemaVersion is bumped when ClusterLoadResult's shape changes.
// 2: added joined, cluster_membership_epoch, snap_xfer_bytes, snap_xfer_ns.
const ClusterSchemaVersion = 2

func (c *ClusterLoadConfig) withDefaults() ClusterLoadConfig {
	cfg := *c
	if cfg.Backends <= 0 {
		cfg.Backends = 3
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 8
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 500
	}
	if cfg.Source == "" {
		cfg.Source = loadSource
	}
	if cfg.Split == "" {
		cfg.Split = "work:k"
	}
	return cfg
}

// clusterBackend is one self-hosted replica.
type clusterBackend struct {
	addr  string
	srv   *hrt.TCPServer
	group *cluster.Group
}

// reserveAddrs picks n distinct loopback host:port addresses by binding
// and immediately releasing listeners. The fleet membership must be known
// before any replica starts (every member needs the full list), so ":0"
// self-assignment cannot be used.
func reserveAddrs(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// RunClusterLoad executes one fleet load run and reports its measurement.
func RunClusterLoad(c ClusterLoadConfig) (ClusterLoadResult, error) {
	cfg := c.withDefaults()
	res, comp, fragID, argc, err := splitLoadProgram(LoadConfig{Source: cfg.Source, Split: cfg.Split})
	if err != nil {
		return ClusterLoadResult{}, err
	}

	addrs := cfg.Addrs
	var backends []*clusterBackend
	var joinerAddr string
	var base string
	var startJoiner func(seed string) (*clusterBackend, error)
	if len(addrs) == 0 {
		base = cfg.DataDir
		if base == "" {
			base, err = os.MkdirTemp("", "slicehide-cluster-*")
			if err != nil {
				return ClusterLoadResult{}, err
			}
			defer os.RemoveAll(base)
		}
		reserve := cfg.Backends
		if cfg.JoinMidRun {
			reserve++
		}
		addrs, err = reserveAddrs(reserve)
		if err != nil {
			return ClusterLoadResult{}, err
		}
		founders := addrs[:cfg.Backends]
		if cfg.JoinMidRun {
			// The last reserved address is the cold replica that joins at the
			// halfway mark. Sessions are placed (and routed) over the full
			// post-join fleet; until the joiner is up, rendezvous fall-down
			// serves its sessions from the founders.
			joinerAddr = addrs[cfg.Backends]
		}
		// A join run rotates aggressively so the founders prune generation 0
		// before the joiner appears — the catch-up must cross a snapshot
		// transfer, not just re-stream a fully retained journal.
		snapEvery := 0
		if cfg.JoinMidRun {
			snapEvery = 128
		}
		startReplica := func(i int, addr string, peers []string, seed string) (*clusterBackend, error) {
			srv := &hrt.TCPServer{
				Server: hrt.NewServer(hrt.NewRegistry(res)),
				Shards: runtime.GOMAXPROCS(0),
				Persist: hrt.NewDurability(hrt.DurabilityOptions{
					Dir:           filepath.Join(base, fmt.Sprintf("replica-%d", i)),
					SnapshotEvery: snapEvery,
				}),
			}
			// Wire the group before the listener: a peer's pump may connect
			// the instant the port opens, and the server's fleet hooks must
			// already be installed when it does.
			g, err := cluster.New(cluster.Config{Self: addr, Peers: peers, Replicate: true, JoinSeed: seed}, srv)
			if err != nil {
				return nil, err
			}
			if _, err := srv.ListenAndServe(addr); err != nil {
				return nil, fmt.Errorf("clusterload: start replica %s: %w", addr, err)
			}
			g.Start()
			return &clusterBackend{addr: addr, srv: srv, group: g}, nil
		}
		for i, addr := range founders {
			b, err := startReplica(i, addr, founders, "")
			if err != nil {
				return ClusterLoadResult{}, err
			}
			backends = append(backends, b)
			defer func() {
				b.group.Close()
				b.srv.Close()
			}()
		}
		// The commit gate only holds responses for connected followers;
		// wait for every replica's streams before generating load, so the
		// whole run (and any failover in it) is covered by replication.
		deadline := time.Now().Add(10 * time.Second)
		for _, b := range backends {
			for {
				if ok, _ := b.group.Ready(); ok {
					break
				}
				if time.Now().After(deadline) {
					reason := ""
					_, reason = b.group.Ready()
					return ClusterLoadResult{}, fmt.Errorf("clusterload: replica %s never became ready: %s", b.addr, reason)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
		if cfg.JoinMidRun {
			startJoiner = func(seed string) (*clusterBackend, error) {
				return startReplica(cfg.Backends, joinerAddr, nil, seed)
			}
		}
	} else if cfg.KillPrimary || cfg.JoinMidRun {
		return ClusterLoadResult{}, fmt.Errorf("clusterload: KillPrimary and JoinMidRun require self-hosted backends")
	}

	// Stamp sessions deterministically so placement (and the kill victim)
	// is reproducible, and pre-compute each session's owner.
	ids := make([]uint64, cfg.Sessions)
	owned := make(map[string]int, len(addrs))
	for w := range ids {
		ids[w] = uint64(w)*0x9e3779b97f4a7c15 + 1
		owned[cluster.Owner(ids[w], addrs)]++
	}
	victim := -1
	if cfg.KillPrimary {
		for i, b := range backends {
			if victim < 0 || owned[b.addr] > owned[backends[victim].addr] {
				victim = i
			}
		}
	}

	hist := &obs.Histogram{}
	args := make([]interp.Value, argc)
	for i := range args {
		args[i] = interp.IntV(int64(i%5 + 1))
	}

	var done atomic.Int64
	total := int64(cfg.Sessions) * int64(cfg.Ops)
	killAt := total / 2
	killed := make(chan struct{})
	if victim >= 0 {
		go func() {
			defer close(killed)
			for done.Load() < killAt {
				time.Sleep(2 * time.Millisecond)
			}
			// Abrupt close: no drain, in-flight connections severed — the
			// in-process equivalent of SIGKILLing the primary.
			backends[victim].group.Close()
			backends[victim].srv.Close()
		}()
	}

	// Every session's exchanges ride the pool's one shared multiplexed
	// connection per replica; the retry budget is generous enough to ride
	// out a primary's death (probe detection plus promotion).
	pool := cluster.NewMuxPool(cluster.MuxPoolConfig{
		Peers:  addrs,
		Policy: hrt.RetryPolicy{Retries: 60, BackoffBase: 5 * time.Millisecond, BackoffMax: 100 * time.Millisecond},
	})
	defer pool.Close()

	// Mid-run join: boot the cold replica once enough of the corpus has
	// landed, wait out its catch-up (snapshot transfer + stream), then hand
	// the pool the grown fleet so live sessions re-rank onto it.
	joined := make(chan struct{})
	var joinBackend *clusterBackend
	var joinErr error
	if startJoiner != nil {
		joinAt := total / 2
		if victim >= 0 {
			// With a kill at total/2, join earlier: the fleet grows, then
			// shrinks, and the joiner must be ready before the victim dies.
			joinAt = total / 3
		}
		go func() {
			defer close(joined)
			for done.Load() < joinAt {
				time.Sleep(2 * time.Millisecond)
			}
			// Hold the join until every founder has pruned generation 0, so
			// the catch-up demonstrably crosses a snapshot transfer (bounded
			// wait: a workload too small to ever rotate falls back to plain
			// journal streaming rather than wedging the run).
			pruneDeadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(pruneDeadline) {
				pruned := true
				for _, b := range backends {
					gens, gerr := b.srv.Persist.Generations()
					if gerr != nil || len(gens) == 0 || gens[0] == 0 {
						pruned = false
						break
					}
				}
				if pruned {
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
			seed := backends[0].addr
			if victim == 0 && len(backends) > 1 {
				seed = backends[1].addr
			}
			b, err := startJoiner(seed)
			if err != nil {
				joinErr = err
				return
			}
			joinBackend = b
			deadline := time.Now().Add(20 * time.Second)
			for {
				if ok, _ := b.group.Ready(); ok {
					break
				}
				if time.Now().After(deadline) {
					_, reason := b.group.Ready()
					joinErr = fmt.Errorf("clusterload: joiner %s never became ready: %s", b.addr, reason)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
			pool.UpdatePeers(addrs)
		}()
	} else {
		close(joined)
	}

	var wg sync.WaitGroup
	errs := make([]error, cfg.Sessions)
	start := time.Now()
	for w := 0; w < cfg.Sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// The victim's own sessions pause at their halfway mark until it
			// is down: tearing a backend down is not instantaneous, and
			// sessions that finished on it meanwhile would leave the run with
			// no failover to measure.
			var hold <-chan struct{}
			if victim >= 0 && cluster.Owner(ids[w], addrs) == backends[victim].addr {
				hold = killed
			}
			errs[w] = clusterWorker(pool.SessionTransport(ids[w]), ids[w], comp, fragID, args, cfg, hold, hist, &done)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if victim >= 0 {
		<-killed
	}
	<-joined
	if joinBackend != nil {
		defer func() {
			joinBackend.group.Close()
			joinBackend.srv.Close()
		}()
	}
	if joinErr != nil {
		return ClusterLoadResult{}, joinErr
	}
	for _, err := range errs {
		if err != nil {
			return ClusterLoadResult{}, err
		}
	}

	var failoverNS, redirects, epoch int64
	survivors := backends
	if joinBackend != nil {
		survivors = append(append([]*clusterBackend{}, backends...), joinBackend)
	}
	for i, b := range survivors {
		if i == victim {
			continue
		}
		if ns := b.group.FailoverNS(); ns > failoverNS {
			failoverNS = ns
		}
		if e := int64(b.group.Epoch()); e > epoch {
			epoch = e
		}
		redirects += b.group.Redirects()
	}

	result := ClusterLoadResult{
		Schema:          ClusterSchemaVersion,
		Backends:        len(addrs),
		Sessions:        cfg.Sessions,
		OpsPerSession:   cfg.Ops,
		TotalOps:        total,
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		ElapsedNs:       elapsed.Nanoseconds(),
		OpsPerSec:       float64(total) / elapsed.Seconds(),
		Blocking:        hist.Snapshot(),
		Killed:          victim >= 0,
		FailoverNs:      failoverNS,
		Redirects:       redirects,
		Joined:          joinBackend != nil,
		MembershipEpoch: epoch,
	}
	if joinBackend != nil {
		result.SnapXferBytes = joinBackend.group.SnapXferBytes()
		result.SnapXferNs = joinBackend.group.SnapXferNS()
	}
	return result, nil
}

// clusterWorker is one session against the fleet, driving synchronous
// calls over its slice of the pool's shared multiplexed upstreams. A
// non-nil hold parks the session halfway through until it is closed.
func clusterWorker(t hrt.Transport, session uint64, comp string, fragID int, args []interp.Value, cfg ClusterLoadConfig, hold <-chan struct{}, hist *obs.Histogram, done *atomic.Int64) error {
	sess := &hrt.Session{T: t}
	inst, err := sess.Enter(comp, 0)
	if err != nil {
		return err
	}
	for op := 0; op < cfg.Ops; op++ {
		// Halfway rounds up, so even a fleet whose every session is held
		// reaches the kill threshold (half of all ops, rounded down).
		if hold != nil && op == (cfg.Ops+1)/2 {
			<-hold
		}
		start := time.Now()
		if _, err := sess.Call(comp, inst, fragID, args); err != nil {
			return fmt.Errorf("clusterload: session %d op %d: %w", session, op, err)
		}
		hist.Observe(time.Since(start))
		done.Add(1)
	}
	return sess.Exit(comp, inst)
}
