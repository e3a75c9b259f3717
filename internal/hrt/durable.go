package hrt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"slicehide/internal/interp"
	"slicehide/internal/obs"
	"slicehide/internal/wal"
)

// Durability makes a TCPServer crash-recoverable. Every request the dedup
// layer executes is journaled — op, (session, seq), the hidden-store
// deltas it produced, and the response the client was given — before the
// response leaves the server, and the full state (sharded activation and
// instance stores, hidden globals, execution tallies, and the dedup replay
// cache) is snapshotted every SnapshotEvery records. On startup the newest
// valid snapshot is loaded and the journal tail replayed, so a hiddend
// killed mid-run resumes every live session with exactly-once semantics
// intact: a retried seq after the restart deduplicates against the
// recovered replay cache instead of bouncing or re-executing.
//
// Crash consistency argument. A record is appended after its request
// executed in memory but before the response is released and before the
// session's next request may run: the request holds its session's dedup
// in-flight slot — and no dedup stripe lock — from execution until the
// record is durable, so a session's records reach the journal in seq
// order while other sessions' records queue behind the same fsync. A crash
// between execute and append loses the in-memory mutation with the
// process, so the un-acknowledged request replays cleanly after recovery;
// a crash after append is replayed from the journal. Either way the
// client's retry observes exactly-once effects. With Fsync off the append
// is still a single write(2), which survives process death (SIGKILL) —
// fsync buys durability against machine death only.
//
// Recovery replays recorded deltas, not fragment bodies: each record
// carries the post-write values of the variables the fragment mutated,
// keyed by stable names and resolved against the recompiled Registry, so
// replay is cheap, deterministic, and independent of fragment control
// flow. Global-store writes additionally carry a version stamped under the
// globals lock, and a replayed write older than the newest one its slot
// took is skipped (Server.globalSeen), because journal append order across
// sessions can invert lock order.
type Durability struct {
	opts   DurabilityOptions
	server *Server
	dedup  *Dedup

	// quiesce freezes landings for generation switches: every landing
	// holds it for read (see land), every switch takes it for write (see
	// switchGeneration), so a snapshot cut or an adoption never observes a
	// half-landed request or record.
	quiesce sync.RWMutex

	// mu guards the journal handle and rotation bookkeeping. sinceSnap is
	// base (the records the open journal held when opened) plus what the
	// handle has appended.
	mu        sync.Mutex
	wlog      *wal.Journal
	gen       uint64
	sinceSnap int
	base      int
	failed    error
	// committer, when set, gates reply-bearing responses on replication
	// acknowledgement (see ReplCommitter); notify wakes journal tail
	// followers (see advance), unwoken counts records since it last did.
	committer ReplCommitter
	notify    chan struct{}
	unwoken   int

	// Group commit (Fsync set): workers enqueue encoded records on
	// commitq and block on their walCommit.done; the committer goroutine
	// drains the queue, writes the batch in one coalesced write, fsyncs
	// once, and releases every waiter. While a waiter blocks it holds the
	// quiesce read lock, so under the quiesce write lock the queue is
	// empty and the committer idle — rotation never races a batch, and
	// every record of a batch saw the same journal handle.
	commitq       chan *walCommit
	commitStop    chan struct{}
	commitDone    chan struct{}
	commitBatches atomic.Int64
	commitRecords atomic.Int64
	// released counts records the committer released whose worker has not
	// finished: a live request's until its reply is queued (or it has none),
	// a replicated apply's until its append returns. See muxWriteLoop.
	released atomic.Int64

	// Background snapshot writing: snapshotting claims the single
	// in-flight slot, snapWG tracks the writer goroutine so Close can
	// wait for a landing snapshot before taking its final one.
	snapshotting atomic.Bool
	snapWG       sync.WaitGroup
	// testHookSnapshotWrite, when set by tests, runs on the background
	// writer goroutine before serialization begins; testHookAppended runs
	// between a direct append's write and its count.
	testHookSnapshotWrite func()
	testHookAppended      func()

	recovered RecoveryStats

	// pins holds per-generation refcounts taken by replication streams
	// and snapshot transfers; pruneBelow skips pinned generations, so a
	// snapshot landing mid-stream can never delete the journal a tail
	// scanner (or a catch-up read) is following. A released generation is
	// removed by the next prune pass.
	pinMu sync.Mutex
	pins  map[uint64]int

	appends         obs.CounterHandle
	appendErrors    obs.CounterHandle
	snapshots       obs.CounterHandle
	snapErrors      obs.CounterHandle
	snapCorrupt     obs.CounterHandle
	appendBytes     obs.CounterHandle
	preallocExtends obs.CounterHandle
	appendNS        *obs.Histogram
	syncNS          *obs.Histogram
	snapshotNS      *obs.Histogram
	commitBatchRecs *obs.Histogram
	commitWaitNS    *obs.Histogram
	snapPauseNS     *obs.Histogram
}

// walCommit is one encoded record waiting in the group-commit queue:
// the payload, the journal the enqueuing worker found open, advance's
// wake, and done (buffered), which receives the batch's outcome once the
// committer has made the record durable — nil, or the write/fsync error
// that poisoned the batch. Entries are recycled through walCommitPool; the
// committer must not touch one after sending on its done.
type walCommit struct {
	payload []byte
	j       *wal.Journal
	wake    bool
	done    chan error
}

var walCommitPool = sync.Pool{New: func() any { return &walCommit{done: make(chan error, 1)} }}

// recBufPool recycles record encode buffers. Journal.Append and
// AppendBatch copy the payload into their own scratch, so a buffer is
// free again as soon as the append returns.
var recBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// DurabilityOptions configures a Durability layer.
type DurabilityOptions struct {
	// Dir is the data directory holding journal and snapshot generations
	// (created if absent). It lives on the secure device: journal records
	// and snapshots contain hidden values.
	Dir string
	// Fsync flushes every journal append (fdatasync into a zero-filled
	// region, see package wal), making acknowledged state durable against
	// machine death (power loss), and turns on group commit: appends queue
	// to a dedicated committer goroutine that coalesces concurrent
	// sessions' records into one write + one flush. Off, there is no flush
	// for a batch to share, so each append is its own write(2), durable
	// against process death.
	Fsync bool
	// SnapshotEvery rotates to a fresh snapshot + journal generation after
	// this many journaled records. 0 means the default (4096); negative
	// disables periodic snapshots (one is still taken at Close).
	SnapshotEvery int
	// CommitBytes bounds the payload of one group-commit batch (Fsync
	// only). 0 means defaultCommitBytes.
	CommitBytes int
	// Tracer, when set, receives recovery, snapshot, and append-failure
	// events.
	Tracer *obs.Tracer
}

const (
	defaultSnapshotEvery = 4096
	defaultCommitBytes   = 1 << 20
)

// RecoveryStats describes what startup recovery found.
type RecoveryStats struct {
	// Generation is the snapshot/journal generation recovery resumed.
	Generation uint64
	// SnapshotUsed reports whether a snapshot seeded the state (false on
	// first boot or when only generation-0 journal existed).
	SnapshotUsed bool
	// Records is the number of journal records replayed.
	Records int64
	// Sessions is the number of dedup replay-cache sessions restored.
	Sessions int
	// Took is the wall-clock recovery time.
	Took time.Duration
}

// NewDurability creates a durability layer over the data directory in
// opts. It does nothing until TCPServer.ListenAndServe runs recovery and
// starts journaling through it.
func NewDurability(opts DurabilityOptions) *Durability {
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = defaultSnapshotEvery
	}
	if opts.CommitBytes <= 0 {
		opts.CommitBytes = defaultCommitBytes
	}
	return &Durability{opts: opts}
}

// Recovered reports what startup recovery found (valid after the owning
// TCPServer's ListenAndServe returned).
func (p *Durability) Recovered() RecoveryStats { return p.recovered }

// RegisterMetrics exports journal/snapshot/recovery counters, gauges, and
// latency histograms into reg.
func (p *Durability) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	p.appends = reg.Counter("wal_appends_total")
	p.appendErrors = reg.Counter("wal_append_errors_total")
	p.appendBytes = reg.Counter("wal_append_bytes_total")
	p.snapshots = reg.Counter("wal_snapshots_total")
	p.snapErrors = reg.Counter("wal_snapshot_errors_total")
	p.snapCorrupt = reg.Counter("wal_snapshot_corrupt_total")
	p.appendNS = reg.Histogram("wal_append_ns")
	// wal_sync_ns is the time inside the journal's flush alone (wal_append_ns
	// adds the encode, the commit-queue wait and the write); a moving
	// wal_prealloc_extends_total means commits are growing the file again.
	p.syncNS = reg.Histogram("wal_sync_ns")
	p.preallocExtends = reg.Counter("wal_prealloc_extends_total")
	p.snapshotNS = reg.Histogram("wal_snapshot_ns")
	// wal_commit_batch_records counts records per durable batch (stored
	// in the histogram's ns field, so mean = sum/count = records/batch).
	p.commitBatchRecs = reg.Histogram("wal_commit_batch_records")
	p.commitWaitNS = reg.Histogram("wal_commit_wait_ns")
	p.snapPauseNS = reg.Histogram("wal_snapshot_pause_ns")
	reg.Gauge("wal_commit_batches_total", p.commitBatches.Load)
	reg.Gauge("wal_commit_records_total", p.commitRecords.Load)
	reg.Gauge("wal_dir_sync_unsupported", func() int64 {
		if wal.DirSyncUnsupported() {
			return 1
		}
		return 0
	})
	reg.Gauge("wal_generation", func() int64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return int64(p.gen)
	})
	reg.Gauge("wal_journal_bytes", func() int64 {
		p.mu.Lock()
		j := p.wlog
		p.mu.Unlock()
		if j == nil {
			return 0
		}
		return j.Size()
	})
	reg.Gauge("wal_records_since_snapshot", func() int64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return int64(p.sinceSnap)
	})
	reg.Gauge("wal_recovered_records", func() int64 { return p.recovered.Records })
	reg.Gauge("wal_recovered_sessions", func() int64 { return int64(p.recovered.Sessions) })
	reg.Gauge("wal_recovery_ns", func() int64 { return int64(p.recovered.Took) })
}

func (p *Durability) snapPath(gen uint64) string {
	return filepath.Join(p.opts.Dir, fmt.Sprintf("snap-%08d.snap", gen))
}

func (p *Durability) journalPath(gen uint64) string {
	return filepath.Join(p.opts.Dir, fmt.Sprintf("journal-%08d.wal", gen))
}

// openJournal opens generation gen's journal for appending after its first
// validLen bytes, under the configured flush policy, with the flush
// metrics attached.
func (p *Durability) openJournal(gen uint64, validLen int64) (*wal.Journal, error) {
	j, err := wal.Open(p.journalPath(gen), validLen, p.opts.Fsync)
	if err != nil {
		return nil, err
	}
	j.Observe(func(took time.Duration) { p.syncNS.Observe(took) }, func() { p.preallocExtends.Add(1) })
	return j, nil
}

// start runs recovery against server and dedup, then opens the journal for
// appending. Called by TCPServer.ListenAndServe before the accept loop, so
// no request traffic races it.
func (p *Durability) start(server *Server, dedup *Dedup) error {
	p.server = server
	p.dedup = dedup
	begin := time.Now()
	if err := os.MkdirAll(p.opts.Dir, 0o755); err != nil {
		return fmt.Errorf("hrt: create data dir: %w", err)
	}
	gen, snapUsed, err := p.loadBase()
	if err != nil {
		return err
	}
	// Background snapshot writing means a crash can leave a journal chain:
	// journal-(g+1) rotated into service before snap-(g+1) landed (or with
	// the snapshot write failed outright). Replay therefore continues
	// across contiguous generations above the snapshot base — each journal
	// was sealed exactly where the next one took over, so the chain
	// reproduces the same state the missing snapshots would have. A
	// non-tip journal whose scan stopped short of the file's end is
	// corrupt history the later generations were built on; the chain is
	// cut there and everything above discarded.
	_, journalGens, err := p.listGenerations()
	if err != nil {
		return err
	}
	onDisk := make(map[uint64]bool, len(journalGens))
	for _, g := range journalGens {
		onDisk[g] = true
	}
	tip := gen
	validLen, tipRecords, err := p.replayJournal(p.journalPath(tip))
	if err != nil {
		return err
	}
	records := tipRecords
	for onDisk[tip+1] {
		// A non-tip journal holding anything but zero fill past its valid
		// prefix is corrupt history the later generations were built on.
		// (Zero fill alone is a generation whose seal was cut short by the
		// crash: rotation swaps the journal under the quiesce, the sealed
		// file is truncated to its log end only later, on the snapshot
		// writer.)
		if clean, err := wal.ZeroFrom(p.journalPath(tip), validLen); err != nil {
			return err
		} else if !clean {
			p.opts.Tracer.Emit(obs.LevelWarn, "wal_chain_cut", obs.Uint("generation", tip))
			break
		}
		tip++
		if validLen, tipRecords, err = p.replayJournal(p.journalPath(tip)); err != nil {
			return err
		}
		records += tipRecords
	}
	j, err := p.openJournal(tip, validLen)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.wlog = j
	p.gen = tip
	p.sinceSnap, p.base = int(tipRecords), int(tipRecords)
	p.mu.Unlock()
	// Newer generations are leftovers of a rotation whose snapshot turned
	// out corrupt: their journals build on a base that no longer exists.
	p.prune(func(g uint64) bool { return g > tip })
	if p.opts.Fsync {
		p.commitq = make(chan *walCommit, 1024)
		p.commitStop = make(chan struct{})
		p.commitDone = make(chan struct{})
		go p.commitLoop(p.commitq, p.commitStop, p.commitDone)
	}
	wal.OnDirSyncUnsupported(func(dir string, err error) {
		p.opts.Tracer.Emit(obs.LevelWarn, "wal_dir_sync_unsupported",
			obs.Str("dir", dir), obs.Err(err))
	})
	p.recovered = RecoveryStats{
		Generation:   tip,
		SnapshotUsed: snapUsed,
		Records:      records,
		Sessions:     dedup.Sessions(),
		Took:         time.Since(begin),
	}
	p.opts.Tracer.Emit(obs.LevelInfo, "wal_recover",
		obs.Uint("generation", tip),
		obs.Int("records", records),
		obs.Int("sessions", int64(p.recovered.Sessions)),
		obs.Dur("took", p.recovered.Took))
	return nil
}

// loadBase imports the newest readable snapshot — the one the catch-up
// sender would ship, found by the same search past corrupt files — into
// the server and the replay cache, and returns its generation. A
// directory with no readable snapshot starts empty at generation 0: a
// later generation's journal builds on a snapshot, only generation 0
// starts from nothing.
func (p *Durability) loadBase() (uint64, bool, error) {
	gen, payload, release, err := p.NewestSnapshot()
	if errors.Is(err, ErrNoSnapshot) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	defer release()
	if err := importSnapshot(p.server, p.dedup, payload); err != nil {
		return 0, false, fmt.Errorf("hrt: snapshot %s: %w", filepath.Base(p.snapPath(gen)), err)
	}
	return gen, true, nil
}

// listGenerations scans the data directory for snapshot and journal files:
// a file is generation g's if snapPath or journalPath names it for g.
func (p *Durability) listGenerations() (snaps, journals []uint64, err error) {
	entries, err := os.ReadDir(p.opts.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("hrt: read data dir: %w", err)
	}
	for _, e := range entries {
		path := filepath.Join(p.opts.Dir, e.Name())
		var g uint64
		if _, err := fmt.Sscanf(e.Name(), "snap-%d.snap", &g); err == nil && path == p.snapPath(g) {
			snaps = append(snaps, g)
		} else if _, err := fmt.Sscanf(e.Name(), "journal-%d.wal", &g); err == nil && path == p.journalPath(g) {
			journals = append(journals, g)
		}
	}
	return snaps, journals, nil
}

// prune removes the snapshot and journal files of every generation drop
// picks. Best-effort.
func (p *Durability) prune(drop func(gen uint64) bool) {
	snaps, journals, err := p.listGenerations()
	if err != nil {
		return
	}
	for _, g := range snaps {
		if drop(g) {
			os.Remove(p.snapPath(g))
		}
	}
	for _, g := range journals {
		if drop(g) {
			os.Remove(p.journalPath(g))
		}
	}
}

// pruneBelow removes generations older than keep (the previous generation
// is retained as the corruption fallback). Generations pinned by an active
// replication stream or snapshot transfer are skipped and reaped by a later
// prune pass.
func (p *Durability) pruneBelow(keep uint64) {
	p.prune(func(g uint64) bool { return g < keep && !p.pinnedGen(g) })
}

// PinGeneration protects generation gen's snapshot and journal files from
// pruneBelow until the returned release function runs. Pins stack; calling
// the release more than once is safe.
func (p *Durability) PinGeneration(gen uint64) (release func()) {
	p.pinMu.Lock()
	if p.pins == nil {
		p.pins = make(map[uint64]int)
	}
	p.pins[gen]++
	p.pinMu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			p.pinMu.Lock()
			if p.pins[gen]--; p.pins[gen] <= 0 {
				delete(p.pins, gen)
			}
			p.pinMu.Unlock()
		})
	}
}

func (p *Durability) pinnedGen(gen uint64) bool {
	p.pinMu.Lock()
	defer p.pinMu.Unlock()
	return p.pins[gen] > 0
}

// replayJournal applies the journal's valid prefix to the server and the
// replay cache, record by record through the code a replica applies
// streamed records with (Server.applyRecord, dedupEntry.settle), and
// returns the prefix length for Open to truncate to. A record that fails
// to decode ends the prefix before it, like a torn tail (the same
// stop-at-first-corruption contract the CRC layer has); a record that
// references program structure the Registry no longer has aborts startup,
// because resuming sessions against a different program would corrupt
// hidden state.
func (p *Durability) replayJournal(path string) (int64, int64, error) {
	validLen, records, err := wal.ScanFile(path, func(payload []byte) error {
		rec, err := decodeRecord(payload)
		if err != nil {
			return errUndecodable
		}
		if err := p.server.applyRecord(rec); err != nil {
			return err
		}
		p.dedup.recoverRecord(rec)
		return nil
	})
	if err == errUndecodable {
		p.opts.Tracer.Emit(obs.LevelWarn, "wal_record_undecodable",
			obs.Str("journal", filepath.Base(path)), obs.Int("kept_records", records))
		err = nil
	}
	if err != nil {
		return 0, 0, err
	}
	return validLen, records, nil
}

// errUndecodable stops a journal replay at a CRC-clean record that does
// not decode.
var errUndecodable = errors.New("hrt: undecodable journal record")

// ---------------------------------------------------------------------------
// Request journaling (called from the dedup execute branch)

// recEffects captures the durable side effects of one executed request:
// whether it counted in the execution tallies, and the post-write values
// of every hidden variable it mutated.
type recEffects struct {
	counted        bool
	globalsVersion uint64
	deltas         []stateDelta
}

type deltaScope byte

const (
	// scopeAct: a variable of the activation store (or of the globals
	// component's implicit activation), resolved by (component, name).
	scopeAct deltaScope = iota + 1
	// scopeGlobal: a shared hidden global, resolved by name, re-applied
	// through the globals version guard.
	scopeGlobal
	// scopeField: a hidden object field, resolved by (class, name) and
	// addressed to (session, class, obj).
	scopeField
)

// stateDelta is one post-write variable value, keyed by names that stay
// stable across a process restart (pointers do not).
type stateDelta struct {
	scope deltaScope
	name  string
	class string
	obj   int64
	val   interp.Value
}

// journal encodes the executed request's record and appends it, returning
// once the record is durable. A failure is framed as a response error and
// poisons the layer: the in-memory state is then ahead of the durable
// state, so the server refuses to acknowledge — better a loud client
// error than an acknowledgement a restart would take back.
func (p *Durability) journal(req Request, resp Response, eff *recEffects) (held bool, err error) {
	rec := journalRecord{
		op: req.Op, noReply: req.NoReply(),
		session: req.Session, seq: req.Seq,
		fn: req.Fn, inst: req.Inst, obj: req.Obj, frag: req.Frag,
		resp: resp,
	}
	if req.Op == OpEnter && resp.Inst != 0 {
		// Replay must recreate the activation under the id the client was
		// told (server-assigned on the synchronous path).
		rec.inst = resp.Inst
	}
	if eff != nil {
		rec.counted = eff.counted
		rec.globalsVersion = eff.globalsVersion
		rec.deltas = eff.deltas
	}
	buf := recBufPool.Get().(*[]byte)
	defer recBufPool.Put(buf)
	payload, err := appendRecord((*buf)[:0], &rec)
	if err != nil {
		return false, p.appendFailed(err)
	}
	*buf = payload[:0]
	return p.appendHeld(payload, true)
}

// appendFailed counts a failed append, poisons the layer with the first
// one, and returns the error every later journal call reports.
func (p *Durability) appendFailed(err error) error {
	p.mu.Lock()
	if err == p.failed {
		// append refused up front with the recorded failure itself.
		p.mu.Unlock()
		return err
	}
	if p.failed == nil {
		p.failed = fmt.Errorf("hrt: journal append failed: %w", err)
	}
	failed := p.failed
	p.mu.Unlock()
	p.appendErrors.Add(1)
	p.opts.Tracer.Emit(obs.LevelError, "wal_append_error", obs.Err(err))
	return failed
}

// appendHeld lands one encoded record in the journal — a request this
// server executed or a record a fleet peer streamed, verbatim — and returns
// once it is durable: through the group-commit queue when the committer is
// running (the calling worker blocks until the batch carrying its record
// is durable), or as a direct per-record append otherwise. Position
// bookkeeping (sinceSnap, follower wakeups) advances only after the record
// is durable, so replication acks and snapshot triggers never run ahead of
// disk; wake is advance's. A durable append is timed into wal_append_ns
// and counted; a failed one poisons the layer (see appendFailed), so this
// server stops acknowledging what it cannot make durable. held reports
// that the committer released the record (see released): the caller must
// finish with it.
func (p *Durability) appendHeld(payload []byte, wake bool) (held bool, err error) {
	start := monoNow()
	p.mu.Lock()
	err, j, q := p.failed, p.wlog, p.commitq
	p.mu.Unlock()
	switch {
	case err != nil:
	case j == nil:
		err = fmt.Errorf("hrt: journal not open")
	case q != nil:
		w := walCommitPool.Get().(*walCommit)
		w.payload, w.j, w.wake = payload, j, wake
		q <- w
		err, held = <-w.done, true
		p.commitWaitNS.Observe(monoNow() - start)
		w.payload, w.j = nil, nil
		walCommitPool.Put(w)
	default:
		var n int64
		if n, err = j.AppendCounted(payload); err == nil {
			if p.testHookAppended != nil {
				p.testHookAppended()
			}
			p.advance(n, wake)
		}
	}
	if err != nil {
		return held, p.appendFailed(err)
	}
	p.appendNS.Observe(monoNow() - start)
	p.appends.Add(1)
	p.appendBytes.Add(int64(len(payload)))
	return held, nil
}

// finish ends a worker's hold on a record the committer released, if held.
func (p *Durability) finish(held bool) {
	if held {
		p.released.Add(-1)
	}
}

// MaxUnwoken bounds the records counted without waking the followers, far
// below internal/cluster's stamp table (8192) and, as a pump's reading
// burst, low enough to spare the tail latency of calls (EXPERIMENTS.md).
const MaxUnwoken = 64

// advance publishes the position once the handle's first records records
// are durable. The journal counted them in write order, so a record
// counted late never holds the position below one written after it: every
// caller's own record is within the position it reads next. It wakes the
// journal tail followers (see AppendNotify) if wake is set — not for a
// replicated apply, which a pump mostly passes over — or MaxUnwoken records
// went by without a wake. A rotation passes 0 and wake. Caller must not
// hold p.mu.
func (p *Durability) advance(records int64, wake bool) {
	p.mu.Lock()
	if n := p.base + int(records) - p.sinceSnap; n > 0 {
		p.sinceSnap += n
		p.unwoken += n
	}
	p.wakeLocked(wake || p.unwoken >= MaxUnwoken)
	p.mu.Unlock()
}

// wakeLocked, when wake is set, closes the notification channel and
// restarts the unwoken count. Caller holds p.mu.
func (p *Durability) wakeLocked(wake bool) {
	if wake {
		if p.notify != nil {
			close(p.notify)
		}
		p.notify, p.unwoken = nil, 0
	}
}

// commitLoop is the dedicated WAL committer goroutine: it blocks for
// the first queued record, gathers whatever else is pending into a
// batch, and commits the batch with one coalesced write and one fsync.
// Natural batching comes from backpressure — while batch k's fsync is
// on the platter, batch k+1's records pile up in the queue. The
// channels are bound at spawn so stopCommitter can clear the struct
// fields without racing this goroutine.
func (p *Durability) commitLoop(q chan *walCommit, stop, done chan struct{}) {
	defer close(done)
	// batch and payloads are reused from one batch to the next. failed is
	// the first write or fsync error: the journal's tail is suspect from
	// then on, so every later batch is refused without touching the file.
	var batch []*walCommit
	var payloads [][]byte
	var failed error
	for {
		select {
		case <-stop:
			return
		case w := <-q:
			batch = p.fillBatch(append(batch[:0], w), q)
			if failed == nil {
				payloads, failed = p.commitBatch(batch, payloads[:0])
			}
			// A released entry goes back to its worker's pool: it must not
			// be touched after this send.
			p.released.Add(int64(len(batch)))
			for _, w := range batch {
				w.done <- failed
			}
		}
	}
}

// fillBatch drains the queue behind batch's first record, up to
// CommitBytes of payload.
func (p *Durability) fillBatch(batch []*walCommit, q chan *walCommit) []*walCommit {
	size := len(batch[0].payload)
	// With the queue dry, give the goroutines blocked on this batch a
	// few scheduler turns to publish their records before the fsync is
	// paid — on a starved scheduler the committer can otherwise wake the
	// instant the first record lands and degenerate into one-record
	// batches. Bounded and timer-free, so a lone append on an idle
	// server still commits promptly.
	for yields := 4; size < p.opts.CommitBytes; {
		select {
		case w := <-q:
			batch = append(batch, w)
			size += len(w.payload)
			continue
		default:
		}
		if yields == 0 {
			break
		}
		yields--
		runtime.Gosched()
	}
	return batch
}

// commitBatch makes one batch durable — one write, one fsync, one
// position advance, waking if any record does. The journal is the one the
// batch's workers found open: they hold the quiesce read lock until
// released, so no rotation can have replaced it. payloads is scratch,
// returned for the next batch.
func (p *Durability) commitBatch(batch []*walCommit, payloads [][]byte) ([][]byte, error) {
	wake := false
	for _, w := range batch {
		payloads = append(payloads, w.payload)
		wake = wake || w.wake
	}
	n, err := batch[0].j.AppendCounted(payloads...)
	if err != nil {
		return payloads, err
	}
	p.advance(n, wake)
	p.commitBatches.Add(1)
	p.commitRecords.Add(int64(len(batch)))
	p.commitBatchRecs.Observe(time.Duration(len(batch)))
	return payloads, nil
}

// stopCommitter shuts down the group-commit goroutine. Called under the
// quiesce write lock (Close) or with traffic otherwise drained, so the
// queue is empty and no waiter can be stranded.
func (p *Durability) stopCommitter() {
	p.mu.Lock()
	stop, done := p.commitStop, p.commitDone
	p.commitStop, p.commitDone, p.commitq = nil, nil, nil
	p.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// CommitBatchStats reports how many group-commit batches and records
// the committer has made durable; records/batches is the mean batch
// size (the batching-engaged number the loadtest reports).
func (p *Durability) CommitBatchStats() (batches, records int64) {
	return p.commitBatches.Load(), p.commitRecords.Load()
}

// land runs one landing — a live request's dedup round trip or a streamed
// record's apply, each claiming its session slot, executing or applying,
// appending its record and releasing the slot — under the quiesce read
// hold, so a snapshot never captures applied state without its record or
// its replay high-water mark, and a generation switch (which takes the
// write hold) never lands inside one. Then it takes a snapshot if one is
// due.
func (p *Durability) land(f func()) {
	p.quiesce.RLock()
	f()
	p.quiesce.RUnlock()
	if !p.snapshotDue() {
		return
	}
	if err := p.Snapshot(); err != nil {
		p.snapErrors.Add(1)
		p.opts.Tracer.Emit(obs.LevelError, "wal_snapshot_error", obs.Err(err))
	}
}

// awaitReplicated is the semi-synchronous commit gate: it holds an
// acknowledgement — a reply, or a mux window update acknowledging one-way
// executions — until every connected follower has acknowledged the
// journal's current position, which covers every record the
// acknowledgement stands for. A client therefore never observes an
// acknowledgement for records a promoted follower could be missing. The
// pumps must read the unwoken records the position ends in to pass them
// over, so the gate wakes them. The wait runs outside every lock, so
// follower applies — which take their own session and store locks — can
// never deadlock against it.
func (p *Durability) awaitReplicated() {
	p.mu.Lock()
	c, gen, records := p.committer, p.gen, int64(p.sinceSnap)
	p.wakeLocked(c != nil && p.unwoken > 0)
	p.mu.Unlock()
	if c != nil {
		c.WaitCommitted(gen, records)
	}
}

// poisoned reports the append failure that poisoned the layer, if any.
func (p *Durability) poisoned() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failed
}

func (p *Durability) snapshotDue() bool {
	if p.opts.SnapshotEvery <= 0 || p.snapshotting.Load() {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failed == nil && p.sinceSnap >= p.opts.SnapshotEvery
}

// switchGeneration makes generation g+1 the open one, g being the open
// generation. It opens g+1's journal before taking the quiesce write hold,
// keeping file creation (and its flush) out of the pause; under the hold,
// with no landing half done and the commit queue drained, it runs install
// for g+1 and, if that succeeds, swaps the new journal in and returns the
// old one for the caller to seal. If install fails nothing switches: the
// new journal is closed and removed. The caller owns p.snapshotting, which
// keeps switches one at a time.
func (p *Durability) switchGeneration(install func(gen uint64) error) (sealed *wal.Journal, err error) {
	p.mu.Lock()
	next := p.gen + 1
	p.mu.Unlock()
	j, err := p.openJournal(next, 0)
	if err != nil {
		return nil, err
	}
	begin := time.Now()
	p.quiesce.Lock()
	p.mu.Lock()
	sealed = p.wlog
	p.mu.Unlock()
	if sealed == nil { // closed while we were opening the next generation
		err = fmt.Errorf("hrt: journal not open")
	} else if err = install(next); err == nil {
		p.mu.Lock()
		p.wlog, p.gen, p.sinceSnap, p.base = j, next, 0, 0
		p.mu.Unlock()
	}
	p.quiesce.Unlock()
	p.snapPauseNS.Observe(time.Since(begin))
	if err != nil {
		j.Close()
		os.Remove(p.journalPath(next))
		return nil, err
	}
	p.advance(0, true) // wake replication pumps so they roll to the new generation
	return sealed, nil
}

// cutGeneration switches generations (see switchGeneration) and captures,
// under the same hold, the consistent cut the new generation's snapshot
// will serialize. The snapshot writer seals the old journal.
func (p *Durability) cutGeneration() (*stateCut, error) {
	var cut *stateCut
	sealed, err := p.switchGeneration(func(gen uint64) error {
		cut = captureCut(p.server, p.dedup)
		cut.gen, cut.begin = gen, time.Now()
		return nil
	})
	if err != nil {
		return nil, err
	}
	cut.sealed = sealed
	return cut, nil
}

// Snapshot rotates to a fresh snapshot + journal generation without
// stopping the world: the quiesce write-hold covers only the journal
// swap and flat clones of the live stores (O(live state) memcpy — no
// serialization, no disk I/O), so the pause is independent of how many
// records accumulated since the last snapshot. Serialization, fsync,
// rename, and pruning run on a background goroutine while traffic
// continues; the journal chain (see start) keeps recovery correct if
// the process dies before the snapshot file lands. Returns once the cut
// is captured; at most one snapshot is in flight at a time. A poisoned
// journal is refused.
func (p *Durability) Snapshot() error {
	if p.server == nil {
		return fmt.Errorf("hrt: durability not started")
	}
	if !p.snapshotting.CompareAndSwap(false, true) {
		return nil // one already in flight; its journal chain covers us
	}
	var cut *stateCut
	err := p.poisoned()
	if err == nil {
		cut, err = p.cutGeneration()
	}
	if err != nil {
		p.snapshotting.Store(false)
		return err
	}
	p.snapWG.Add(1)
	go func() {
		defer p.snapWG.Done()
		p.writeSnapshot(cut)
	}()
	return nil
}

// writeSnapshot serializes and installs a captured cut as generation
// cut.gen, then prunes older generations. Runs on the background writer
// goroutine (or synchronously at Close). A failure here does not poison
// the layer: the journal chain above the last good snapshot still
// reproduces every committed record, and the next due snapshot retries.
func (p *Durability) writeSnapshot(cut *stateCut) error {
	defer p.snapshotting.Store(false)
	if cut.sealed != nil {
		cut.sealed.Close() // final flush of the sealed generation
	}
	if p.testHookSnapshotWrite != nil {
		p.testHookSnapshotWrite()
	}
	payload, err := encodeCut(cut)
	if err == nil {
		err = wal.WriteSnapshot(p.snapPath(cut.gen), payload)
	}
	if err != nil {
		p.snapErrors.Add(1)
		p.opts.Tracer.Emit(obs.LevelError, "wal_snapshot_error",
			obs.Uint("generation", cut.gen), obs.Err(err))
		return err
	}
	if cut.gen >= 1 {
		p.pruneBelow(cut.gen - 1)
	}
	took := time.Since(cut.begin)
	p.snapshots.Add(1)
	p.snapshotNS.Observe(took)
	p.opts.Tracer.Emit(obs.LevelInfo, "wal_snapshot",
		obs.Uint("generation", cut.gen), obs.Int("bytes", int64(len(payload))),
		obs.Dur("took", took))
	return nil
}

// ErrNoSnapshot reports that no readable snapshot exists on disk (for the
// catch-up sender, which then falls back to journal streaming).
var ErrNoSnapshot = errors.New("hrt: no readable snapshot on disk")

// NewestSnapshot returns the newest readable on-disk snapshot: its
// generation, its payload (CRC-verified by wal.ReadSnapshot), and a
// release function for the pin that keeps the generation's journal from
// being pruned while the caller streams it. Corrupt snapshots are counted
// (wal_snapshot_corrupt_total), warned about, and skipped in favor of the
// next older one — the same fallback recovery uses.
func (p *Durability) NewestSnapshot() (gen uint64, payload []byte, release func(), err error) {
	snaps, _, err := p.listGenerations()
	if err != nil {
		return 0, nil, nil, err
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] })
	for _, g := range snaps {
		rel := p.PinGeneration(g)
		payload, err := wal.ReadSnapshot(p.snapPath(g))
		if err != nil {
			p.snapCorrupt.Add(1)
			p.opts.Tracer.Emit(obs.LevelWarn, "wal_snapshot_unreadable",
				obs.Uint("generation", g), obs.Err(err))
			rel()
			continue
		}
		if payload == nil {
			rel()
			continue
		}
		return g, payload, rel, nil
	}
	return 0, nil, nil, ErrNoSnapshot
}

// AdoptSnapshot installs a snapshot payload received from a fleet peer as
// this replica's state base, on disk before in memory: memory keeps only a
// base its disk adopted. The payload is first imported into a scratch
// server, so one this program cannot load is refused before anything
// changes. Then one generation switch, under the quiesce write hold that
// excludes every landing, re-checks that the replica is still empty
// (ErrNotEmpty otherwise: a record another sender applied since the
// caller's check would be clobbered), writes the payload as the next
// generation's snapshot file and imports it into the live server and
// replay cache; only then does the next generation's journal take over.
// A death before the snapshot file lands leaves the old (empty) state,
// and a failure at any step leaves the replica empty, so the next offer
// is accepted. A poisoned journal is refused. Older generations (the
// pre-import empty history) are pruned.
func (p *Durability) AdoptSnapshot(payload []byte) error {
	if p.server == nil {
		return fmt.Errorf("hrt: durability not started")
	}
	if err := importSnapshot(NewServer(p.server.reg), &Dedup{}, payload); err != nil {
		return fmt.Errorf("hrt: catch-up snapshot: %w", err)
	}
	p.snapWG.Wait()
	if !p.snapshotting.CompareAndSwap(false, true) {
		return fmt.Errorf("hrt: snapshot in flight")
	}
	defer p.snapshotting.Store(false)
	if err := p.poisoned(); err != nil {
		return err
	}
	var adopted uint64
	sealed, err := p.switchGeneration(func(gen uint64) error {
		if !stateEmpty(p.server, p.dedup) {
			return ErrNotEmpty
		}
		if err := wal.WriteSnapshot(p.snapPath(gen), payload); err != nil {
			return fmt.Errorf("hrt: adopt snapshot: %w", err)
		}
		adopted = gen
		// Cannot fail: the same payload imported into the scratch server.
		return importSnapshot(p.server, p.dedup, payload)
	})
	if err != nil {
		return err
	}
	sealed.Close()
	p.pruneBelow(adopted)
	p.snapshots.Add(1)
	p.opts.Tracer.Emit(obs.LevelInfo, "wal_snapshot_adopted",
		obs.Uint("generation", adopted), obs.Int("bytes", int64(len(payload))))
	return nil
}

// Close waits out any in-flight background snapshot, takes a final
// synchronous snapshot (so the next boot recovers without journal replay)
// — even over a poisoned journal, since the snapshot captures memory
// rather than the journal — stops the committer, and closes the journal.
// Called by TCPServer.Close after the serving goroutines drained.
func (p *Durability) Close() error {
	p.snapWG.Wait()
	p.mu.Lock()
	open := p.wlog != nil
	p.mu.Unlock()
	var err error
	if open && p.snapshotting.CompareAndSwap(false, true) {
		var cut *stateCut
		if cut, err = p.cutGeneration(); err == nil {
			err = p.writeSnapshot(cut)
		} else {
			p.snapshotting.Store(false)
		}
	}
	p.quiesce.Lock()
	defer p.quiesce.Unlock()
	p.stopCommitter()
	p.mu.Lock()
	j := p.wlog
	p.wlog = nil
	p.mu.Unlock()
	if j != nil {
		if cerr := j.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ---------------------------------------------------------------------------
// Journal record codec
//
// Records reuse the wire codec's primitives (little-endian, length-
// prefixed strings, tagged scalar values). Layout:
//
//	byte   op
//	byte   flags (recNoReply | recCounted)
//	u64    session
//	u64    seq
//	str    fn
//	u64    inst (two's complement)
//	u64    obj
//	u32    frag
//	u64    globalsVersion
//	u16    ndeltas
//	       ndeltas × [byte scope, str name, value; scopeField adds str class, u64 obj]
//	byte   resp flags
//	value  resp val
//	u64    resp inst
//	str    resp err
//
// The decoder is fuzzed (FuzzJournalRecord): it must never panic or
// over-allocate on arbitrary bytes — a CRC-clean but undecodable record
// ends recovery at that point, like a torn tail.

const (
	recNoReply byte = 1 << 0
	recCounted byte = 1 << 1
)

// maxRecordDeltas bounds the delta count a decoded record may claim.
// Fragments write a handful of variables by construction; the cap only
// guards recovery against corrupt counts.
const maxRecordDeltas = 4096

type journalRecord struct {
	op             Op
	noReply        bool
	counted        bool
	session        uint64
	seq            uint64
	fn             string
	inst           int64
	obj            int64
	frag           int
	globalsVersion uint64
	deltas         []stateDelta
	resp           Response // Val/Inst/Err/Flags; Seq and Ack are rebuilt from seq
}

// recordStampEnd is where a record's fixed prefix ends:
// [op][flags][session u64][seq u64].
const recordStampEnd = 18

// RecordStamp reads the (session, seq) stamp of an encoded journal record
// at its fixed offset; ok is false for a payload too short to hold one.
func RecordStamp(payload []byte) (session, seq uint64, ok bool) {
	if len(payload) < recordStampEnd {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(payload[2:10]), binary.LittleEndian.Uint64(payload[10:18]), true
}

func appendRecord(b []byte, rec *journalRecord) ([]byte, error) {
	if len(rec.deltas) > maxRecordDeltas {
		return nil, fmt.Errorf("hrt: record has %d deltas, limit %d", len(rec.deltas), maxRecordDeltas)
	}
	var flags byte
	if rec.noReply {
		flags |= recNoReply
	}
	if rec.counted {
		flags |= recCounted
	}
	b = append(b, byte(rec.op), flags)
	b = binary.LittleEndian.AppendUint64(b, rec.session)
	b = binary.LittleEndian.AppendUint64(b, rec.seq)
	var err error
	if b, err = appendString(b, rec.fn); err != nil {
		return nil, err
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(rec.inst))
	b = binary.LittleEndian.AppendUint64(b, uint64(rec.obj))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(rec.frag)))
	b = binary.LittleEndian.AppendUint64(b, rec.globalsVersion)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(rec.deltas)))
	for _, d := range rec.deltas {
		b = append(b, byte(d.scope))
		if b, err = appendString(b, d.name); err != nil {
			return nil, err
		}
		if b, err = appendValue(b, d.val); err != nil {
			return nil, err
		}
		if d.scope == scopeField {
			if b, err = appendString(b, d.class); err != nil {
				return nil, err
			}
			b = binary.LittleEndian.AppendUint64(b, uint64(d.obj))
		}
	}
	b = append(b, rec.resp.Flags)
	if b, err = appendValue(b, rec.resp.Val); err != nil {
		return nil, err
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(rec.resp.Inst))
	if b, err = appendString(b, rec.resp.Err); err != nil {
		return nil, err
	}
	return b, nil
}

func decodeRecord(payload []byte) (*journalRecord, error) {
	d := newWireReader(bytes.NewReader(payload))
	rec := &journalRecord{}
	rec.op = Op(d.byte())
	if d.err == nil && (rec.op < OpEnter || rec.op > OpFlush) {
		return nil, fmt.Errorf("hrt: record has unknown op %d", rec.op)
	}
	flags := d.byte()
	rec.noReply = flags&recNoReply != 0
	rec.counted = flags&recCounted != 0
	rec.session = d.u64()
	rec.seq = d.u64()
	rec.fn = d.str()
	rec.inst = int64(d.u64())
	rec.obj = int64(d.u64())
	rec.frag = int(int32(d.u32()))
	rec.globalsVersion = d.u64()
	n := d.u16()
	if d.err == nil && int(n) > maxRecordDeltas {
		return nil, fmt.Errorf("hrt: record delta count %d exceeds limit %d", n, maxRecordDeltas)
	}
	for i := 0; i < int(n) && d.err == nil; i++ {
		del := stateDelta{scope: deltaScope(d.byte())}
		if d.err == nil && (del.scope < scopeAct || del.scope > scopeField) {
			return nil, fmt.Errorf("hrt: record delta has unknown scope %d", del.scope)
		}
		del.name = d.str()
		del.val = d.value()
		if del.scope == scopeField {
			del.class = d.str()
			del.obj = int64(d.u64())
		}
		rec.deltas = append(rec.deltas, del)
	}
	rec.resp.Flags = d.byte()
	rec.resp.Val = d.value()
	rec.resp.Inst = int64(d.u64())
	rec.resp.Err = d.str()
	if d.err != nil {
		return nil, d.err
	}
	return rec, nil
}
