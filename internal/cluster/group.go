package cluster

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slicehide/internal/hrt"
	"slicehide/internal/obs"
	"slicehide/internal/wal"
)

// Config describes one replica's view of the fleet.
type Config struct {
	// Self is this replica's serving address; it must appear in Peers
	// unless JoinSeed is set (a joiner boots as a fleet of one and asks
	// the seed to admit it).
	Self string
	// Peers is the initial fleet membership. The live membership is the
	// epoch-versioned table gossiped over the liveness probes; Peers only
	// seeds epoch 1 (a newer table persisted in MembershipPath wins at
	// boot).
	Peers []string
	// Replicate enables WAL streaming to peers and semi-synchronous commit
	// gating. It requires the server to have a durability layer.
	Replicate bool
	// JoinSeed, when set, makes Start ask the fleet member at this address
	// to admit Self; the adopted membership then propagates everywhere via
	// gossip. The replica reports not-ready until it has joined and caught
	// up.
	JoinSeed string
	// MembershipPath, when set, persists the membership table (epoch and
	// member list) so a restarted replica rejoins the fleet it last knew,
	// not the one its flags describe.
	MembershipPath string
	// SnapChunk bounds a snapshot-transfer chunk (default 256 KiB). Small
	// chunks keep any single write short so a transfer never stalls live
	// streams behind a multi-megabyte frame.
	SnapChunk int
	// ProbeInterval is how often peer liveness is re-checked (default
	// 150ms). Detection latency bounds failover latency. Probes are OpPing
	// exchanges that double as membership gossip.
	ProbeInterval time.Duration
	// DialTimeout bounds liveness probes and pump dials (default 500ms).
	DialTimeout time.Duration
	// Dial opens the pumps' and the prober's connections (default
	// net.DialTimeout); tests inject stalls and partitions through it.
	Dial func(network, addr string, timeout time.Duration) (net.Conn, error)
	// CommitTimeout bounds how long a response may wait for follower
	// acknowledgement before degrading to asynchronous replication
	// (default 5s). A wedged follower slows the fleet; it must not stop it.
	CommitTimeout time.Duration
	// Tracer, when set, receives fleet events (peer death, promotion,
	// pump reconnects, membership changes, snapshot transfers).
	Tracer *obs.Tracer
}

// defaultSnapChunk bounds snapshot-transfer chunks at 256 KiB.
const defaultSnapChunk = 256 << 10

func (c *Config) fill() error {
	if c.Self == "" {
		return errors.New("cluster: Self address is required")
	}
	found := false
	seen := make(map[string]bool, len(c.Peers))
	for _, p := range c.Peers {
		if p == "" {
			return errors.New("cluster: empty peer address")
		}
		if seen[p] {
			return fmt.Errorf("cluster: duplicate peer address %s", p)
		}
		seen[p] = true
		if p == c.Self {
			found = true
		}
	}
	if !found {
		if c.JoinSeed == "" {
			return fmt.Errorf("cluster: Self %s is not in the peer list", c.Self)
		}
		c.Peers = append(append([]string(nil), c.Peers...), c.Self)
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 150 * time.Millisecond
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 500 * time.Millisecond
	}
	if c.Dial == nil {
		c.Dial = net.DialTimeout
	}
	if c.CommitTimeout <= 0 {
		c.CommitTimeout = 5 * time.Second
	}
	if c.SnapChunk <= 0 {
		c.SnapChunk = defaultSnapChunk
	}
	return nil
}

// Group runs one replica's fleet machinery: the liveness prober (which
// doubles as the membership gossip), the session router, and — when
// replication is on — one streaming pump per peer plus the semi-
// synchronous commit gate. It installs itself into the server's
// Router/ReplHandler/ReplResume/Gossip hooks at construction and starts
// its background loops on Start.
type Group struct {
	cfg     Config
	ts      *hrt.TCPServer
	tracker *wal.OffsetTracker
	// boot identifies this process incarnation in replication handshakes,
	// both the ones we dial and the ones we answer; stamps remembers which
	// peer incarnation showed us each record (see cover.go).
	boot   uint64
	stamps *stampTable
	// pin, when non-zero, is the key every session is placed by instead
	// of its own id: the program has hidden globals (see Route).
	pin uint64

	// Origin cover state (cover.go): each sender's live covers, each
	// outbound peer's pending lists, and tracker-change wakeups.
	coverMu      sync.Mutex
	origins      map[string]*originStream
	pumpCovers   map[string]*pumpCover
	coverWake    chan struct{}
	trackerEpoch atomic.Uint64

	mu      sync.Mutex
	members Membership
	leaving bool                     // Self asked to leave; do not auto-rejoin
	closed  bool                     // Close started; no new pumps may spawn
	peers   map[string]*peerLiveness // one per member, Self's always alive
	pumps   map[string]chan struct{} // per-peer pump stop channels

	// changeMu serializes local membership mutations (Join/Leave), so two
	// concurrent admin calls cannot race to the same epoch and drop one
	// change on the tiebreak.
	changeMu sync.Mutex

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	pumpMu    sync.Mutex
	pumpConns map[string]net.Conn

	// Inbound-stream bookkeeping (recvMu): one record per sender, and the
	// single active snapshot-transfer stage.
	recvMu sync.Mutex
	recv   map[string]*inbound
	stage  *snapStage

	redirects atomic.Int64
	replBytes atomic.Int64
	// replSkipped counts records the pumps passed over because the peer had
	// itself shown them to us or their origin covered the peer; rewinds
	// counts pumps sent back over records an origin stopped covering.
	replSkipped atomic.Int64
	rewinds     atomic.Int64
	// pumpWakes counts caught-up pumps woken by a journal notification.
	pumpWakes  atomic.Int64
	failoverNS atomic.Int64
	syncWaits  atomic.Int64
	syncStalls atomic.Int64
	// replReceived/replApplied tally the incoming replication stream:
	// records read off the wire vs. records applied to local state. Their
	// difference is this follower's own apply lag, the receiving-side
	// counterpart of the sender's repl_lag_records.
	replReceived atomic.Int64
	replApplied  atomic.Int64
	// Snapshot catch-up transfer accounting, both directions.
	snapXferBytes atomic.Int64
	snapXferNS    atomic.Int64
	snapResumes   atomic.Int64
}

// New builds the group and wires it into ts: the Router hook (owner
// redirects), the ReplHandler/ReplResume/ReplBoot hooks (inbound streams,
// their resume positions, and the boot id the handshake answers with), the Gossip hook (membership exchange over liveness
// pings), and — with Replicate — the durability layer's commit gate. Call
// Start once the server is listening.
func New(cfg Config, ts *hrt.TCPServer) (*Group, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if ts == nil {
		return nil, errors.New("cluster: nil server")
	}
	if cfg.Replicate && ts.Persist == nil {
		return nil, errors.New("cluster: replication requires a durable server (-wal)")
	}
	boot, err := newBootID()
	if err != nil {
		return nil, err
	}
	members := NewMembership(cfg.Peers)
	if cfg.MembershipPath != "" {
		if persisted, ok := LoadMembership(cfg.MembershipPath); ok && persisted.Supersedes(members) {
			members = persisted
		}
	}
	g := newGroup(cfg, ts, members, boot)
	if ts.Server != nil && len(ts.Server.Program().Globals.Slots) > 0 {
		g.pin = ts.Server.Program().Hash | 1
	}
	ts.Router = g
	ts.ReplHandler = g.handleRepl
	ts.ReplBoot = g.boot
	ts.ReplResume = g.replResume
	ts.Gossip = g
	if cfg.Replicate {
		ts.Persist.SetCommitter(g)
	}
	return g, nil
}

// newGroup builds the group's state over members with no server hook
// installed and no loop started.
func newGroup(cfg Config, ts *hrt.TCPServer, members Membership, boot uint64) *Group {
	g := &Group{
		cfg:        cfg,
		ts:         ts,
		tracker:    wal.NewOffsetTracker(),
		boot:       boot,
		stamps:     newStampTable(stampTableSize),
		origins:    make(map[string]*originStream),
		pumpCovers: make(map[string]*pumpCover),
		members:    members,
		peers:      make(map[string]*peerLiveness, len(members.Members)),
		pumps:      make(map[string]chan struct{}),
		stop:       make(chan struct{}),
		pumpConns:  make(map[string]net.Conn),
		recv:       make(map[string]*inbound),
	}
	// Boot optimistic: a fleet starting together must not redirect-flail
	// while the first probe round is still in flight.
	for _, p := range members.Members {
		g.peers[p] = &peerLiveness{alive: true}
	}
	return g
}

// newBootID draws the random non-zero id that tells this process
// incarnation from every other, its own earlier lives included.
func newBootID() (uint64, error) {
	var b [8]byte
	for {
		if _, err := crand.Read(b[:]); err != nil {
			return 0, fmt.Errorf("cluster: boot id: %w", err)
		}
		if id := binary.LittleEndian.Uint64(b[:]); id != 0 {
			return id, nil
		}
	}
}

// Start launches the prober, the join loop (with JoinSeed), and — with
// replication on — one pump per current member.
func (g *Group) Start() {
	// Our journal's records so far came from an earlier life or before the
	// group ran: who showed them to us is unknown, so none is ours to flag.
	g.stamps.forgetThrough(g.journalPos())
	g.wg.Add(1)
	go g.probeLoop()
	g.syncPumps()
	if g.cfg.JoinSeed != "" {
		g.wg.Add(1)
		go g.joinLoop()
	}
}

// Close stops the background loops and tears down pump connections,
// releasing any requests blocked in the commit gate (each dropped pump
// wakes the tracker's waiters). The server's hooks stay installed — a
// closed group routes everything locally and refuses nothing — because
// swapping them mid-serve would race the accept loop.
func (g *Group) Close() {
	g.stopOnce.Do(func() { close(g.stop) })
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.pumpMu.Lock()
	for _, c := range g.pumpConns {
		c.Close()
	}
	g.pumpMu.Unlock()
	g.wg.Wait()
	if g.cfg.Replicate {
		g.ts.Persist.SetCommitter(nil)
	}
}

// journalPos reports this replica's journal position (zero without one).
func (g *Group) journalPos() wal.Position {
	if g.ts.Persist == nil {
		return wal.Position{}
	}
	gen, n := g.ts.Persist.CurrentPosition()
	return wal.Position{Gen: gen, Records: n}
}

// ---------------------------------------------------------------------------
// Membership

// Membership returns a copy of the current member table.
func (g *Group) Membership() Membership {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.members.Clone()
}

// adopt installs m if it supersedes the current table, persists it,
// reconciles the pump set, and reports whether it was installed.
func (g *Group) adopt(m Membership, source string) bool {
	g.mu.Lock()
	if !m.Supersedes(g.members) {
		g.mu.Unlock()
		return false
	}
	g.members = m.Clone()
	for _, p := range m.Members {
		if g.peers[p] == nil {
			// New members start optimistically alive, like at boot.
			g.peers[p] = &peerLiveness{alive: true}
		}
	}
	// Forget liveness state for ex-members so gauges and the router stop
	// seeing them.
	for p := range g.peers {
		if !m.Has(p) {
			delete(g.peers, p)
		}
	}
	excluded := !m.Has(g.cfg.Self) && !g.leaving
	g.mu.Unlock()
	g.recvMu.Lock()
	// An ex-member's target and announcement no longer count; what it had
	// applied stays, as the resume point should it rejoin.
	for sender, in := range g.recv {
		if !m.Has(sender) {
			in.target, in.announced = wal.Position{}, 0
		}
	}
	if g.stage != nil && !m.Has(g.stage.sender) {
		g.stage = nil
	}
	g.recvMu.Unlock()
	g.cfg.Tracer.Emit(obs.LevelInfo, "cluster_membership",
		obs.Uint("epoch", m.Epoch), obs.Str("members", m.Encode()), obs.Str("source", source))
	if g.cfg.MembershipPath != "" {
		if err := m.Save(g.cfg.MembershipPath); err != nil {
			g.cfg.Tracer.Emit(obs.LevelWarn, "cluster_membership_persist_error", obs.Err(err))
		}
	}
	if excluded {
		// Evicted without asking to leave (an operator removed a replica
		// they believed dead, or we lost a concurrent-join tiebreak). The
		// prober re-requests admission; until then we are not ready.
		g.cfg.Tracer.Emit(obs.LevelWarn, "cluster_evicted", obs.Uint("epoch", m.Epoch))
	}
	g.syncPumps()
	return true
}

// Join adds addr to the membership (idempotent) and returns the resulting
// table. The bump propagates to the rest of the fleet via gossip.
func (g *Group) Join(addr string) (Membership, error) {
	g.changeMu.Lock()
	defer g.changeMu.Unlock()
	cur := g.Membership()
	next, changed := cur.WithJoined(addr)
	if !changed {
		if cur.Has(addr) {
			return cur, nil
		}
		return cur, fmt.Errorf("cluster: invalid member address %q", addr)
	}
	g.adopt(next, "join")
	return g.Membership(), nil
}

// Leave removes addr from the membership (idempotent) and returns the
// resulting table. Leaving Self marks this replica as draining: it will
// not auto-rejoin, and its router redirects sessions to the survivors.
func (g *Group) Leave(addr string) (Membership, error) {
	g.changeMu.Lock()
	defer g.changeMu.Unlock()
	if addr == g.cfg.Self {
		g.mu.Lock()
		g.leaving = true
		g.mu.Unlock()
	}
	cur := g.Membership()
	next, changed := cur.WithLeft(addr)
	if !changed {
		return cur, nil
	}
	g.adopt(next, "leave")
	return g.Membership(), nil
}

// GossipSync implements hrt.GossipHandler: merge the prober's table,
// answer with ours.
func (g *Group) GossipSync(from, remote string) string {
	if remote != "" {
		if m, err := ParseMembership(remote); err == nil {
			g.adopt(m, "gossip:"+from)
		}
	}
	return g.Membership().Encode()
}

// GossipJoin implements hrt.GossipHandler for the join verb.
func (g *Group) GossipJoin(addr string) (string, error) {
	if addr == "" {
		return "", errors.New("cluster: join requires an address")
	}
	m, err := g.Join(addr)
	return m.Encode(), err
}

// GossipLeave implements hrt.GossipHandler for the leave verb.
func (g *Group) GossipLeave(addr string) (string, error) {
	if addr == "" {
		return "", errors.New("cluster: leave requires an address")
	}
	m, err := g.Leave(addr)
	return m.Encode(), err
}

// syncPumps reconciles the running pump set with the current membership:
// a pump per member other than Self (replication on and Self a member),
// none otherwise. Removed members' pumps are stopped, their connections
// severed, and their tracker entries dropped so the commit gate never
// waits on an ex-member.
func (g *Group) syncPumps() {
	if !g.cfg.Replicate {
		return
	}
	var started, stopped []string
	g.mu.Lock()
	want := make(map[string]bool)
	if g.members.Has(g.cfg.Self) && !g.closed {
		for _, p := range g.members.Others(g.cfg.Self) {
			want[p] = true
		}
	}
	for peer, stopCh := range g.pumps {
		if !want[peer] {
			close(stopCh)
			delete(g.pumps, peer)
			stopped = append(stopped, peer)
		}
	}
	for peer := range want {
		if _, ok := g.pumps[peer]; !ok {
			stopCh := make(chan struct{})
			g.pumps[peer] = stopCh
			g.wg.Add(1)
			go g.pumpLoop(peer, stopCh)
			started = append(started, peer)
		}
	}
	g.mu.Unlock()
	for _, peer := range stopped {
		g.releaseDeadPeer(peer) // drop tracker entry + sever the pump conn
		g.cfg.Tracer.Emit(obs.LevelInfo, "cluster_pump_stop", obs.Str("peer", peer))
	}
	for _, peer := range started {
		g.cfg.Tracer.Emit(obs.LevelInfo, "cluster_pump_start", obs.Str("peer", peer))
	}
}

// joinLoop asks the seed to admit Self until the fleet's table says so.
func (g *Group) joinLoop() {
	defer g.wg.Done()
	backoff := pumpBackoffMin
	for {
		g.mu.Lock()
		joined := g.members.Has(g.cfg.Self) && (g.members.Epoch > 1 || len(g.members.Members) > 1)
		g.mu.Unlock()
		if joined {
			return
		}
		reply, err := hrt.GossipExchange(g.cfg.Dial, g.cfg.JoinSeed, g.cfg.Self, hrt.PingJoin, g.cfg.Self, g.cfg.DialTimeout)
		if err == nil {
			if m, perr := ParseMembership(reply); perr == nil {
				g.adopt(m, "join-seed")
			} else {
				err = perr
			}
		}
		if err != nil {
			g.cfg.Tracer.Emit(obs.LevelWarn, "cluster_join_retry",
				obs.Str("seed", g.cfg.JoinSeed), obs.Err(err))
		}
		if !g.sleepCh(backoff, nil) {
			return
		}
		backoff = min(backoff*2, pumpBackoffMax)
	}
}

// ---------------------------------------------------------------------------
// Liveness

// probeFailThreshold is how many consecutive probe failures it takes to
// declare a live peer dead. Detection latency (and so failover latency)
// is bounded by probeFailThreshold × ProbeInterval.
const probeFailThreshold = 3

// peerLiveness is the prober's record of one member.
type peerLiveness struct {
	alive     bool
	fails     int       // consecutive failed probes
	deadSince time.Time // when the prober declared it dead
	promoted  bool      // failover_ns recorded for this death
}

func (g *Group) probeLoop() {
	defer g.wg.Done()
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		g.probeOnce()
		select {
		case <-g.stop:
			return
		case <-t.C:
		}
	}
}

func (g *Group) probeOnce() {
	members := g.Membership()
	enc := members.Encode()
	for _, peer := range members.Others(g.cfg.Self) {
		reply, err := hrt.GossipExchange(g.cfg.Dial, peer, g.cfg.Self, hrt.PingSync, enc, g.cfg.DialTimeout)
		up := err == nil
		if up && reply != "" {
			if m, perr := ParseMembership(reply); perr == nil {
				g.adopt(m, "probe:"+peer)
			}
		}
		g.mu.Lock()
		l := g.peers[peer]
		if l == nil {
			// The peer left the fleet while we probed it.
			g.mu.Unlock()
			continue
		}
		died := false
		if up {
			l.fails = 0
			if !l.alive {
				l.alive = true
				g.cfg.Tracer.Emit(obs.LevelInfo, "cluster_peer_up", obs.Str("peer", peer))
			}
		} else {
			// Flap damping: a peer is declared dead only after
			// probeFailThreshold consecutive failed probes. One refused dial
			// is routinely a fleet member still binding its listener at boot;
			// clobbering boot optimism on it would zero the live-peer count,
			// letting readiness and the commit gate pass with no replication
			// streams established.
			l.fails++
			if l.alive && l.fails >= probeFailThreshold {
				l.alive, l.deadSince, l.promoted = false, time.Now(), false
				died = true
				g.cfg.Tracer.Emit(obs.LevelWarn, "cluster_peer_down", obs.Str("peer", peer))
			}
		}
		g.mu.Unlock()
		if died {
			g.releaseDeadPeer(peer)
		}
	}
	g.rejoinIfEvicted()
}

// rejoinIfEvicted re-requests admission when a table excluding Self was
// adopted without Self asking to leave — the flip side of letting any
// member evict an address it believes dead: a live evictee simply joins
// back, so only genuinely dead replicas stay removed.
func (g *Group) rejoinIfEvicted() {
	g.mu.Lock()
	excluded := !g.members.Has(g.cfg.Self) && !g.leaving
	g.mu.Unlock()
	if !excluded {
		return
	}
	via := g.livePeers()
	if len(via) == 0 {
		return
	}
	if reply, err := hrt.GossipExchange(g.cfg.Dial, via[0], g.cfg.Self, hrt.PingJoin, g.cfg.Self, g.cfg.DialTimeout); err == nil {
		if m, perr := ParseMembership(reply); perr == nil {
			g.adopt(m, "rejoin")
		}
	}
}

// releaseDeadPeer severs a prober-declared-dead peer from the commit path
// immediately. Its pump connection may look healthy — a partitioned or
// wedged follower keeps the socket open while acknowledging nothing — so
// without this, every response gated on that follower waits out the full
// ack-degrade timeout even though the prober already knows the peer is
// gone. Dropping the peer from the offset tracker wakes those waiters now
// (with the last connected follower dead, the gate releases instead of
// timing out), and closing the pump connection moves the pump into its
// reconnect backoff, whose normal disconnect path would otherwise be the
// only place the tracker entry dies. Nothing the peer originated is left
// to its covers any more: pumps rewind over what was pending on it.
func (g *Group) releaseDeadPeer(peer string) {
	g.drop(peer)
	g.originLost(peer, nil)
	g.pumpMu.Lock()
	if c, ok := g.pumpConns[peer]; ok {
		c.Close()
	}
	g.pumpMu.Unlock()
}

// livePeers returns the members currently believed alive (Self always is,
// while a member).
func (g *Group) livePeers() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.members.Members))
	for _, p := range g.members.Members {
		if g.peers[p].alive {
			out = append(out, p)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Routing

// Route implements hrt.Router. A session whose rendezvous owner over the
// live member set is this replica is served here; when the owner is
// another live replica the client is redirected — with replication every
// replica holds the session's state, so the redirect costs nothing but a
// redial, and keeping a single writer per session keeps the fleet's
// journals append-consistent. Without replication a session's state exists
// only where it executed, so known sessions are always served locally and
// only unknown ones redirect. Membership epochs re-rank placement: a
// session whose owner moved is handed off by the same typed redirect a
// failover uses, and HRW hashing guarantees survivor-owned sessions never
// move when the fleet grows or shrinks by one. A program with hidden
// globals places every session by one key derived from its hash, so the
// whole program lives on one owner and fragment runs that touch the
// globals stay linearizable fleet-wide; the other replicas are standbys.
func (g *Group) Route(session uint64, known bool) (string, bool) {
	select {
	case <-g.stop:
		return "", false
	default:
	}
	owner := Owner(g.place(session), g.livePeers())
	if owner == "" || owner == g.cfg.Self {
		g.observePromotion(session)
		return "", false
	}
	if known && !g.cfg.Replicate {
		return "", false
	}
	g.redirects.Add(1)
	g.cfg.Tracer.Emit(obs.LevelInfo, "cluster_redirect",
		obs.Uint("session", session), obs.Str("owner", owner))
	return owner, true
}

// observePromotion records failover latency: the first time this replica
// serves a session whose full-membership owner is a currently dead peer,
// the gap since that peer's death is the fleet's observed failover time —
// detection plus re-resolution, the window the session's client was
// stalled.
func (g *Group) observePromotion(session uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	staticOwner := Owner(g.place(session), g.members.Members)
	l := g.peers[staticOwner]
	if l == nil || l.alive || l.promoted {
		return
	}
	l.promoted = true
	ns := time.Since(l.deadSince).Nanoseconds()
	g.failoverNS.Store(ns)
	g.cfg.Tracer.Emit(obs.LevelWarn, "cluster_promotion",
		obs.Uint("session", session), obs.Str("dead_peer", staticOwner),
		obs.Dur("failover", time.Duration(ns)))
}

// place returns the key session is placed by.
func (g *Group) place(session uint64) uint64 {
	if g.pin != 0 {
		return g.pin
	}
	return session
}

// ---------------------------------------------------------------------------
// Semi-synchronous commit gate

// WaitCommitted implements hrt.ReplCommitter: block until every connected
// follower has acknowledged the journal position, or the commit timeout
// passes (degrading that response to asynchronous replication). With no
// followers connected — a fleet of one, or all peers down — it returns
// immediately: the fleet cannot demand acknowledgement from nobody. A
// joining replica mid-catch-up is not yet registered in the tracker (the
// pump registers it only once its snapshot transfer completes), so a join
// never stalls the fleet's commit path.
func (g *Group) WaitCommitted(gen uint64, records int64) {
	g.syncWaits.Add(1)
	_, ok := g.tracker.WaitForTimeout(wal.Position{Gen: gen, Records: records}, g.cfg.CommitTimeout)
	if !ok {
		g.syncStalls.Add(1)
		g.cfg.Tracer.Emit(obs.LevelWarn, "cluster_commit_timeout",
			obs.Uint("gen", gen), obs.Int("records", records))
	}
}

// Lag reports how many journal records the slowest connected follower is
// behind this replica (0 with no followers connected). Positions across a
// generation boundary cannot be subtracted exactly; "current records + 1"
// is the conservative floor. Lag wakes the pumps for records applied from
// peers, so their pass-over lifts count by the next reading.
func (g *Group) Lag() int64 {
	if !g.cfg.Replicate {
		return 0
	}
	g.ts.Persist.WakeFollowers()
	gen, records := g.ts.Persist.CurrentPosition()
	min, n := g.tracker.Min()
	if n == 0 {
		return 0
	}
	if min.Gen == gen {
		return max(records-min.Records, 0)
	}
	if min.Gen > gen {
		return 0
	}
	return records + 1
}

// Ready reports whether this replica should receive traffic (see verdict);
// the daemon layer gates on recovery before the group even exists.
func (g *Group) Ready() (bool, string) { return g.readiness().verdict() }

// readiness is the state Ready decides over, read under the group's locks.
type readiness struct {
	replicate, member, leaving, joining bool
	joinSeed, stageFrom                 string
	staged                              int                // bytes of stageFrom's snapshot transfer
	live                                []string           // live peers other than Self
	recv                                map[string]inbound // every other member's inbound record
	registered                          map[string]bool    // peers the tracker holds a stream to
	lag                                 int64
}

// readiness takes the snapshot under g.mu, recvMu and the tracker's lock
// in turn, never two at once.
func (g *Group) readiness() readiness {
	r := readiness{replicate: g.cfg.Replicate, joinSeed: g.cfg.JoinSeed}
	if !r.replicate {
		return r
	}
	r.recv, r.registered = make(map[string]inbound), make(map[string]bool)
	g.mu.Lock()
	r.member, r.leaving = g.members.Has(g.cfg.Self), g.leaving
	r.joining = g.cfg.JoinSeed != "" && g.members.Epoch == 1 && len(g.members.Members) == 1
	others := g.members.Others(g.cfg.Self)
	for _, p := range others {
		if g.peers[p].alive {
			r.live = append(r.live, p)
		}
	}
	g.mu.Unlock()
	g.recvMu.Lock()
	if st := g.stage; st != nil {
		r.stageFrom, r.staged = st.sender, len(st.buf)
	}
	for _, p := range others {
		if in := g.recv[p]; in != nil {
			r.recv[p] = *in
		}
	}
	g.recvMu.Unlock()
	g.tracker.Each(func(peer string, _ wal.Position) { r.registered[peer] = true })
	r.lag = g.Lag()
	return r
}

// verdict decides readiness: a fleet member (joined, not evicted, not
// leaving), no snapshot transfer or record catch-up in progress inbound,
// an announced inbound stream from every live peer and an outbound one to
// each, and outbound lag zero. Without the announcements a restarted
// joiner with an empty journal would report ready out of ignorance;
// without the pumps the commit gate, which holds responses only for
// connected followers, would acknowledge what nothing replicates.
func (r readiness) verdict() (bool, string) {
	switch {
	case !r.replicate:
		return true, ""
	case r.leaving:
		return false, "leaving the fleet"
	case !r.member:
		return false, "not a fleet member (evicted; rejoin pending)"
	case r.joining:
		return false, fmt.Sprintf("joining the fleet via %s", r.joinSeed)
	case r.stageFrom != "":
		return false, fmt.Sprintf("snapshot transfer from %s in progress (%d bytes staged)", r.stageFrom, r.staged)
	}
	// A dead member's unmet target holds too. The first lagging sender in
	// order is named, so the reason holds from call to call.
	lagging := ""
	for p, in := range r.recv {
		if in.applied.Before(in.target) && (lagging == "" || p < lagging) {
			lagging = p
		}
	}
	if in, ok := r.recv[lagging]; ok {
		return false, fmt.Sprintf("catching up on %s: applied (%d,%d), stream target (%d,%d)",
			lagging, in.applied.Gen, in.applied.Records, in.target.Gen, in.target.Records)
	}
	var connecting []string
	for _, p := range r.live {
		if r.recv[p].announced == 0 {
			return false, fmt.Sprintf("awaiting inbound replication stream from %s", p)
		}
		if !r.registered[p] {
			connecting = append(connecting, p)
		}
	}
	if len(connecting) > 0 {
		return false, fmt.Sprintf("replication streams connecting (%d/%d): awaiting %s",
			len(r.live)-len(connecting), len(r.live), strings.Join(connecting, ", "))
	}
	if r.lag > 0 {
		return false, fmt.Sprintf("replication catching up: %d records behind", r.lag)
	}
	return true, ""
}

// Redirects reports how many requests were redirected to their owner.
func (g *Group) Redirects() int64 { return g.redirects.Load() }

// RegisterMetrics exports the fleet gauges.
func (g *Group) RegisterMetrics(reg *obs.Registry) {
	reg.Gauge("repl_lag_records", g.Lag)
	reg.Gauge("repl_apply_lag_records", func() int64 { return g.replReceived.Load() - g.replApplied.Load() })
	reg.Gauge("repl_bytes", g.replBytes.Load)
	reg.Gauge("repl_skipped_records", g.replSkipped.Load)
	reg.Gauge("repl_rewinds", g.rewinds.Load)
	reg.Gauge("repl_pump_wakes", g.pumpWakes.Load)
	reg.Gauge("owner_redirects", g.redirects.Load)
	reg.Gauge("failover_ns", g.failoverNS.Load)
	reg.Gauge("repl_sync_waits", g.syncWaits.Load)
	reg.Gauge("repl_sync_stalls", g.syncStalls.Load)
	reg.Gauge("cluster_peers_alive", func() int64 { return int64(len(g.livePeers())) })
	reg.Gauge("cluster_membership_epoch", func() int64 { return int64(g.Membership().Epoch) })
	reg.Gauge("snap_xfer_bytes", g.snapXferBytes.Load)
	reg.Gauge("snap_xfer_ns", g.snapXferNS.Load)
	reg.Gauge("snap_xfer_resumes", g.snapResumes.Load)
}
