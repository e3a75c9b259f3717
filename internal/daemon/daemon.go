// Package daemon is the hidden-server process behind cmd/hiddend,
// extracted so its full lifecycle — flag parsing, program splitting,
// serving, graceful drain on SIGTERM/SIGINT, durable shutdown — can be
// driven and asserted from tests (including the process-kill chaos
// harness, which re-executes the test binary as a real hiddend).
package daemon

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"slicehide/internal/cluster"
	"slicehide/internal/core"
	"slicehide/internal/hrt"
	"slicehide/internal/ir"
	"slicehide/internal/obs"
	"slicehide/internal/slicer"
)

// Config is hiddend's full configuration (one field per flag).
type Config struct {
	// Listen is the address to serve hidden components on.
	Listen string
	// Split is the comma-separated f[:seed] list of functions whose
	// hidden components to host.
	Split string
	// Program is the MiniJ source file path.
	Program string

	Timeout     time.Duration
	MaxConns    int
	MaxSessions int
	EvictGrace  time.Duration
	Admin       string
	TraceFile   string

	// DataDir, when set, makes the server crash-recoverable: hidden
	// session state is journaled to and snapshotted in this directory,
	// and recovered from it on startup.
	DataDir string
	// Fsync fsyncs every journal append for durability against power
	// loss, group-committing concurrent sessions' appends under one
	// fsync. Without it each append is its own write, which still
	// survives process death.
	Fsync bool
	// SnapshotEvery rotates the journal into a fresh snapshot generation
	// after this many records (0 = default, negative disables periodic
	// snapshots).
	SnapshotEvery int
	// DrainTimeout bounds the graceful drain on SIGTERM/SIGINT: how long
	// to wait for in-flight connections to finish before severing them.
	DrainTimeout time.Duration

	// Peers is the comma-separated full fleet membership (including this
	// replica's own -listen address). Non-empty makes this replica a fleet
	// member (requires -data-dir): sessions are rendezvous-placed across
	// the members, requests for sessions owned elsewhere are redirected,
	// and the journal streams to every peer, with responses gated on
	// follower acknowledgement, so a peer can take over a session when
	// this replica dies.
	Peers string
	// Join makes this replica ask the fleet member at this address to
	// admit it: membership is adopted from the fleet's epoch-versioned
	// table rather than -peers, and the replica catches up — via snapshot
	// transfer if the fleet has pruned the history it needs — before
	// reporting ready (requires -data-dir).
	Join string
	// ReplAckTimeout bounds how long a response waits for follower
	// acknowledgement before degrading to asynchronous replication
	// (0 = the cluster default, 5s).
	ReplAckTimeout time.Duration

	// Stdout receives the human-readable startup/shutdown lines (defaults
	// to os.Stdout).
	Stdout io.Writer
}

// ParseFlags parses a hiddend command line (without the program name)
// into a Config. The returned error carries the usage text.
func ParseFlags(args []string) (Config, error) {
	fs := flag.NewFlagSet("hiddend", flag.ContinueOnError)
	cfg := Config{}
	fs.StringVar(&cfg.Listen, "listen", "127.0.0.1:7070", "address to serve hidden components on")
	fs.StringVar(&cfg.Split, "split", "", "comma-separated f[:seed] functions whose hidden components to host (required)")
	fs.DurationVar(&cfg.Timeout, "timeout", 0, "per-connection read/write deadline (0 disables; retry-capable clients reconnect after an idle disconnect)")
	fs.IntVar(&cfg.MaxConns, "max-conns", 0, "maximum concurrently served connections (0 = unlimited)")
	fs.IntVar(&cfg.MaxSessions, "max-sessions", 0, "maximum cached replay sessions (0 = default 1024)")
	fs.DurationVar(&cfg.EvictGrace, "evict-grace", 0, "protect sessions seen within this window from replay-cache eviction (0 disables)")
	fs.StringVar(&cfg.Admin, "admin", "", "serve the admin endpoint (/healthz, /metrics, /trace, /debug/pprof/) on this address (empty disables)")
	fs.StringVar(&cfg.TraceFile, "trace", "", "write redacted runtime trace events (JSON lines) to this file")
	fs.StringVar(&cfg.DataDir, "data-dir", "", "journal and snapshot hidden session state in this directory, and recover from it on startup (empty = in-memory only)")
	fs.BoolVar(&cfg.Fsync, "fsync", false, "fsync every journal append, group-committing concurrent sessions' appends under one flush: durable against power loss, not just process death (requires -data-dir)")
	fs.IntVar(&cfg.SnapshotEvery, "snapshot-every", 0, "rotate to a fresh snapshot after this many journal records (0 = default 4096, negative = only at shutdown; requires -data-dir)")
	fs.DurationVar(&cfg.DrainTimeout, "drain-timeout", 5*time.Second, "on SIGTERM/SIGINT, wait this long for in-flight connections to finish before severing them")
	fs.StringVar(&cfg.Peers, "peers", "", "comma-separated fleet membership, including this replica's own -listen address; sessions are rendezvous-placed across the members, and the journal streams to every peer with responses gated on follower acknowledgement, so sessions survive this replica's death (requires -data-dir)")
	fs.StringVar(&cfg.Join, "join", "", "join the running fleet via the member at this address: adopt its membership table and catch up (snapshot transfer + WAL streaming) before reporting ready (requires -data-dir)")
	fs.DurationVar(&cfg.ReplAckTimeout, "repl-ack-timeout", 0, "how long a response may wait for follower acknowledgement before degrading to asynchronous replication (0 = default 5s; requires -peers or -join)")
	if err := fs.Parse(args); err != nil {
		return Config{}, err
	}
	if len(core.ParseSpecs(cfg.Split)) == 0 || fs.NArg() != 1 {
		return Config{}, fmt.Errorf("usage: hiddend -listen addr -split f[:seed],... [-data-dir dir [-peers addr,... | -join addr]] program.mj")
	}
	fleet := len(cluster.ParsePeers(cfg.Peers)) > 0 || cfg.Join != ""
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	// Outside a fleet no response waits for a follower, and without
	// -data-dir there is no journal to stream, flush or rotate: refuse
	// their flags rather than ignore them silently.
	if set["repl-ack-timeout"] && !fleet {
		return Config{}, fmt.Errorf("-repl-ack-timeout requires -peers or -join")
	}
	if cfg.DataDir == "" {
		if fleet {
			return Config{}, fmt.Errorf("-peers and -join require -data-dir (a fleet replica streams its journal to every peer)")
		}
		if cfg.Fsync {
			return Config{}, fmt.Errorf("-fsync requires -data-dir")
		}
		if set["snapshot-every"] {
			return Config{}, fmt.Errorf("-snapshot-every requires -data-dir")
		}
	}
	cfg.Program = fs.Arg(0)
	return cfg, nil
}

// Daemon is a started hiddend instance.
type Daemon struct {
	cfg     Config
	server  *hrt.TCPServer
	persist *hrt.Durability
	tracer  *obs.Tracer
	admin   *obs.AdminServer
	trace   io.Closer
	addr    net.Addr
	out     io.Writer
	group   atomic.Pointer[cluster.Group]
	ready   atomic.Bool
}

// readiness backs /readyz: not ready while recovery is still replaying the
// journal, and — in a replicating fleet — while this replica's followers
// lag behind its journal.
func (d *Daemon) readiness() (bool, string) {
	if !d.ready.Load() {
		return false, "starting: journal recovery in progress"
	}
	if g := d.group.Load(); g != nil {
		return g.Ready()
	}
	return true, ""
}

// Start compiles and splits the program, recovers durable state when
// DataDir is set, and begins serving. It returns once the listener is
// ready.
func Start(cfg Config) (*Daemon, error) {
	out := cfg.Stdout
	if out == nil {
		out = os.Stdout
	}
	src, err := os.ReadFile(cfg.Program)
	if err != nil {
		return nil, err
	}
	prog, err := ir.Compile(string(src))
	if err != nil {
		return nil, err
	}
	res, err := core.SplitProgram(prog, core.ParseSpecs(cfg.Split), slicer.Policy{})
	if err != nil {
		return nil, err
	}

	d := &Daemon{cfg: cfg, out: out}
	if cfg.TraceFile != "" {
		f, err := os.Create(cfg.TraceFile)
		if err != nil {
			return nil, fmt.Errorf("create trace file: %w", err)
		}
		d.trace = f
		d.tracer = obs.NewTracer(obs.TracerConfig{Level: obs.LevelDebug, Output: f})
	} else if cfg.Admin != "" {
		// No sink, but keep the ring so /trace has recent events to show.
		d.tracer = obs.NewTracer(obs.TracerConfig{Level: obs.LevelInfo})
	}

	if cfg.DataDir != "" {
		d.persist = hrt.NewDurability(hrt.DurabilityOptions{
			Dir:           cfg.DataDir,
			Fsync:         cfg.Fsync,
			SnapshotEvery: cfg.SnapshotEvery,
			Tracer:        d.tracer,
		})
	}
	d.server = &hrt.TCPServer{
		Server:       hrt.NewServer(hrt.NewRegistry(res)),
		ReadTimeout:  cfg.Timeout,
		WriteTimeout: cfg.Timeout,
		MaxConns:     cfg.MaxConns,
		MaxSessions:  cfg.MaxSessions,
		EvictGrace:   cfg.EvictGrace,
		Shards:       runtime.GOMAXPROCS(0),
		Tracer:       d.tracer,
		Persist:      d.persist,
	}
	reg := obs.NewRegistry()
	d.server.RegisterMetrics(reg)
	if d.persist != nil {
		d.persist.RegisterMetrics(reg)
	}

	peers := cluster.ParsePeers(cfg.Peers)
	if cfg.Admin != "" {
		// The admin endpoint comes up before the listener so /readyz is
		// observable (and honestly "not ready") while journal recovery and
		// replication catch-up are still running.
		info := map[string]string{
			"component": "hiddend",
			"listen":    cfg.Listen,
			"split":     cfg.Split,
		}
		if len(peers) > 0 || cfg.Join != "" {
			info["cluster_peers"] = cfg.Peers
			if cfg.Join != "" {
				info["cluster_join"] = cfg.Join
			}
		}
		mux := obs.AdminMux(obs.AdminConfig{
			Registry: reg,
			Tracer:   d.tracer,
			Info:     info,
			Ready:    d.readiness,
		})
		// Membership administration: grow or shrink the live fleet without
		// restarting anything. The epoch bump propagates to every replica
		// over the liveness-probe gossip.
		mux.HandleFunc("/join", d.membershipHandler((*cluster.Group).Join, false))
		mux.HandleFunc("/leave", d.membershipHandler((*cluster.Group).Leave, true))
		d.admin, err = obs.ServeAdmin(cfg.Admin, mux)
		if err != nil {
			d.closeTrace()
			return nil, fmt.Errorf("admin endpoint: %w", err)
		}
		fmt.Fprintf(out, "admin endpoint on http://%s (healthz, readyz, metrics, trace, debug/pprof)\n", d.admin.Addr())
	}

	// The fleet group is wired before the listener comes up: a peer's
	// replication pump may connect the instant the port opens, and the
	// server's Router/ReplHandler hooks must already be installed when it
	// does. This is also why -listen must literally match this replica's
	// entry in -peers — the fleet identity is needed before the bound
	// address exists.
	var group *cluster.Group
	if len(peers) > 0 || cfg.Join != "" {
		// The group persists the membership table beside the journal: a
		// restarted replica rejoins the fleet it last knew, not the one its
		// flags described at first boot.
		group, err = cluster.New(cluster.Config{
			Self:          cfg.Listen,
			Peers:         peers,
			JoinSeed:      cfg.Join,
			CommitTimeout: cfg.ReplAckTimeout,
			Tracer:        d.tracer,
		}, d.server)
		if err != nil {
			if d.admin != nil {
				d.admin.Close()
			}
			d.closeTrace()
			return nil, fmt.Errorf("%w (-listen must match this replica's entry in -peers)", err)
		}
		group.RegisterMetrics(reg)
	}
	d.addr, err = d.server.ListenAndServe(cfg.Listen)
	if err != nil {
		if d.admin != nil {
			d.admin.Close()
		}
		d.closeTrace()
		return nil, err
	}
	if group != nil {
		group.Start()
		d.group.Store(group)
		m := group.Membership()
		fmt.Fprintf(out, "fleet member %s of %d replicas (epoch=%d)\n",
			cfg.Listen, len(m.Members), m.Epoch)
	}
	d.ready.Store(true)
	for _, name := range res.SplitNames() {
		sf := res.Splits[name]
		fmt.Fprintf(out, "hosting hidden component of %s (seed %s, %d fragments, %d hidden vars)\n",
			name, sf.Seed, len(sf.Hidden.Frags), len(sf.Hidden.Vars))
	}
	if d.persist != nil {
		rec := d.persist.Recovered()
		fmt.Fprintf(out, "durable state in %s: recovered generation %d (%d journal records, %d sessions, snapshot=%v) in %s\n",
			cfg.DataDir, rec.Generation, rec.Records, rec.Sessions, rec.SnapshotUsed, rec.Took)
		if rec.CutBytes != 0 || len(rec.Pruned) != 0 {
			fmt.Fprintf(out, "recovery discarded %d non-zero bytes past the tip journal's valid prefix; pruned: [%s]\n",
				rec.CutBytes, strings.Join(rec.Pruned, ", "))
		}
	}
	fmt.Fprintf(out, "hiddend listening on %s (%d session shards)\n", d.addr, d.server.Server.Shards())
	return d, nil
}

// membershipHandler backs the admin POST /join and /leave endpoints with
// one of the group's membership mutations. defaultSelf makes a missing
// addr parameter mean this replica (the natural way to drain a node:
// POST its own /leave).
func (d *Daemon) membershipHandler(mutate func(*cluster.Group, string) (cluster.Membership, error), defaultSelf bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		g := d.group.Load()
		if g == nil {
			http.Error(w, "fleet group not running", http.StatusServiceUnavailable)
			return
		}
		addr := r.URL.Query().Get("addr")
		if addr == "" {
			if !defaultSelf {
				http.Error(w, "addr query parameter required", http.StatusBadRequest)
				return
			}
			addr = d.cfg.Listen
		}
		m, err := mutate(g, addr)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"epoch": m.Epoch, "members": m.Members})
	}
}

func (d *Daemon) closeTrace() {
	if d.trace != nil {
		d.trace.Close()
	}
}

// Shutdown drains in-flight connections (bounded by DrainTimeout), then
// closes the server — which, with -data-dir, flushes the journal and
// writes the final snapshot — and reports the drain outcome. The fleet
// group goes down first: dropping the replication pumps releases any
// request still blocked in the commit gate, so the drain can finish.
func (d *Daemon) Shutdown() error {
	if g := d.group.Load(); g != nil {
		g.Close()
	}
	stats := d.server.Drain(d.cfg.DrainTimeout)
	d.tracer.Emit(obs.LevelInfo, "drain",
		obs.Int("drained", int64(stats.Drained)), obs.Int("aborted", int64(stats.Aborted)))
	fmt.Fprintf(d.out, "drained %d connection(s), severed %d still in flight\n", stats.Drained, stats.Aborted)
	err := d.Close()
	if err == nil {
		fmt.Fprintln(d.out, "shutdown complete")
	}
	return err
}

// Close stops the daemon immediately (no drain).
func (d *Daemon) Close() error {
	if g := d.group.Load(); g != nil {
		g.Close()
	}
	err := d.server.Close()
	if d.admin != nil {
		d.admin.Close()
	}
	d.closeTrace()
	return err
}

// Main is the hiddend entry point: parse args, start, serve until
// SIGTERM/SIGINT, drain gracefully, shut down. It returns the process
// exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	cfg, err := ParseFlags(args)
	if err != nil {
		fmt.Fprintln(stderr, "hiddend:", err)
		return 1
	}
	cfg.Stdout = stdout
	// Trap signals before the listener comes up, so a SIGTERM racing
	// startup still shuts down gracefully instead of killing the process.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	d, err := Start(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "hiddend:", err)
		return 1
	}
	s := <-sig
	fmt.Fprintf(stdout, "received %s, shutting down\n", s)
	if err := d.Shutdown(); err != nil {
		fmt.Fprintln(stderr, "hiddend:", err)
		return 1
	}
	return 0
}
