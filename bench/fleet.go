package main

import (
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"time"

	"slicehide/internal/cluster"
	"slicehide/internal/hrt"
)

// serve_fleet: three in-process replicas, every one journaling (no fsync)
// and streaming its journal to the other two, with the semi-synchronous
// commit gate holding each reply until the followers acknowledged. Clients
// reach it through cluster.MuxPool — one multiplexed upstream per replica.
// Against serve_durable it separates "journal" from "follower ack".

const fleetReplicas = 3

type replica struct {
	srv   *hiddenServer
	group *cluster.Group
}

// close stops serving first and replicating second. The other order lets a
// replica whose group is already closed acknowledge calls no follower ever
// sees, which a killed process cannot do.
func (r *replica) close() {
	r.srv.tcp.Close()
	r.group.Close()
}

type fleetDeployment struct {
	replicas []*replica
	addrs    []string
	pool     *cluster.MuxPool
	link     hrt.Counters
	// lagAtStop is the worst follower lag seen the moment load stopped,
	// before the followers were given time to drain.
	lagAtStop int64
}

// reserveAddrs picks n free loopback addresses: every member needs the full
// list before any of them starts, so ":0" cannot be used.
func reserveAddrs(n int) ([]string, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

func startFleet(lg *ledger, dir string, n int) (*fleetDeployment, error) {
	addrs, err := reserveAddrs(n)
	if err != nil {
		return nil, err
	}
	d := &fleetDeployment{addrs: addrs}
	for i, addr := range addrs {
		srv := newHiddenServer(lg, hrt.NewDurability(hrt.DurabilityOptions{Dir: filepath.Join(dir, fmt.Sprintf("replica-%d", i))}))
		// The group is wired before the listener opens: a peer's pump may
		// connect the instant the port does.
		g, err := cluster.New(cluster.Config{Self: addr, Peers: addrs, Replicate: true}, srv.tcp)
		if err == nil {
			err = srv.listen(addr)
		}
		if err != nil {
			d.close()
			return nil, fmt.Errorf("replica %s: %w", addr, err)
		}
		g.RegisterMetrics(srv.reg)
		g.Start()
		d.replicas = append(d.replicas, &replica{srv: srv, group: g})
	}
	// The commit gate only holds replies for connected followers, so load
	// must not start before every replication stream is up.
	deadline := time.Now().Add(15 * time.Second)
	for _, r := range d.replicas {
		for {
			ok, reason := r.group.Ready()
			if ok {
				break
			}
			if time.Now().After(deadline) {
				d.close()
				return nil, fmt.Errorf("replica %s never became ready: %s", r.srv.addr, reason)
			}
			time.Sleep(time.Millisecond)
		}
	}
	d.pool = cluster.NewMuxPool(cluster.MuxPoolConfig{
		Peers:    addrs,
		Policy:   hrt.RetryPolicy{Retries: 60, BackoffBase: 5 * time.Millisecond, BackoffMax: 100 * time.Millisecond},
		Counters: &d.link,
	})
	return d, nil
}

func (d *fleetDeployment) transport(session uint64, _ *hrt.Counters) hrt.Transport {
	return d.pool.SessionTransport(session)
}

func (d *fleetDeployment) detach(hrt.Transport) {} // pooled upstreams hold nothing per session

func (d *fleetDeployment) counters() *hrt.Counters { return &d.link }

// executed waits (untimed) for the followers to apply what the primaries
// acknowledged, then reports every replica's tally.
func (d *fleetDeployment) executed() []int64 {
	d.lagAtStop = d.lag()
	counts := make([]int64, len(d.replicas))
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		same := true
		for i, r := range d.replicas {
			counts[i] = r.srv.tcp.Server.Stats().Calls
			same = same && counts[i] == counts[0]
		}
		if (same && d.lag() == 0) || time.Now().After(deadline) {
			return counts
		}
	}
}

func (d *fleetDeployment) lag() (worst int64) {
	for _, r := range d.replicas {
		worst = max(worst, r.group.Lag())
	}
	return worst
}

func (d *fleetDeployment) close() error {
	if d.pool != nil {
		d.pool.Close()
	}
	for _, r := range d.replicas {
		r.close()
	}
	return nil
}

// fleetIDs draws seeded session ids and keeps those that spread the
// sessions round-robin over the replicas. Placement is by rendezvous hash
// of (session, address) and the addresses are fresh ports every run; left
// to chance, two sessions land on one replica in some runs and on two in
// others, and the throughput is bimodal.
func fleetIDs(dep deployment, rng *rand.Rand, n int) []uint64 {
	addrs := dep.(*fleetDeployment).addrs
	var ids []uint64
	for len(ids) < n {
		if id := rng.Uint64(); id != 0 && cluster.Owner(id, addrs) == addrs[len(ids)%len(addrs)] {
			ids = append(ids, id)
		}
	}
	return ids
}

func runServeFleet(rc runConfig, tr *tracer) (*outcome, error) {
	return runServe(rc, tr, "serve_fleet", serveSpec{
		sessions: runtime.GOMAXPROCS(0),
		ops:      rc.size.fleetOps,
		start: func(lg *ledger, dir string) (deployment, error) {
			return startFleet(lg, dir, fleetReplicas)
		},
		ids:   fleetIDs,
		after: fleetAfter,
	})
}

func fleetAfter(sv *served) error {
	dep := sv.run.dep.(*fleetDeployment)
	sv.out.check("no follower lag left once load stopped", dep.lag() == 0, "residual lag %d records", dep.lag())
	if sv.tr == nil {
		return nil
	}
	m := sv.out.metrics
	var replBytes, redirects int64
	for _, r := range dep.replicas {
		replBytes += r.srv.reg.Snapshot().Gauges["repl_bytes"]
		redirects += r.group.Redirects()
	}
	// Every replicated record is counted by its sender and its receiver.
	m["cluster.repl_bytes_per_op"] = float64(replBytes) / 2 / float64(sv.run.calls)
	m["cluster.owner_redirects"] = float64(redirects)
	m["cluster.residual_lag_records"] = float64(dep.lagAtStop)

	// The same sessions against a fleet of one: journal, no followers.
	// What the three-replica median adds to it is the wait for follower
	// acknowledgements.
	id := sv.tr.begin("single-replica baseline", sv.tr.rootID())
	single, err := startFleet(sv.run.lg, filepath.Join(sv.dir, "single"), 1)
	if err != nil {
		return err
	}
	defer single.close()
	baseP50, err := sv.baselineP50(single)
	if err != nil {
		return err
	}
	sv.tr.end(id)
	m["cluster.single_wal_rpc_ns"] = baseP50 * 1e3
	m["cluster.repl_ack_wait_ns"] = sv.p50us*1e3 - m["cluster.single_wal_rpc_ns"]

	// Kill-primary phase: session 0 keeps calling while its owner is shut
	// down without a drain. Failover is what its caller sees: the longest
	// gap between two consecutive replies while the owner dies.
	id = sv.tr.begin("kill-primary", sv.tr.rootID())
	defer sv.tr.end(id)
	c := sv.run.last[0]
	victim := dep.replicas[0] // fleetIDs homed session 0 on replica 0
	dead := make(chan struct{})
	go func() {
		time.Sleep(50 * time.Millisecond)
		victim.close()
		close(dead)
	}()
	var gap time.Duration
	prev := time.Now()
	for after := 0; after < 64; {
		if err := c.mix(sv.run.lg); err != nil {
			return fmt.Errorf("call across failover: %w", err)
		}
		now := time.Now()
		gap = max(gap, now.Sub(prev))
		prev = now
		select {
		case <-dead:
			after++
		default:
		}
	}
	m["cluster.failover_ms"] = ms(gap)
	err = c.verify(sv.run.lg)
	sv.out.check("hidden state survives the primary's death exactly once", err == nil, "%v", err)
	return nil
}
