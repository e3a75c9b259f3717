package hrt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"slicehide/internal/interp"
	"slicehide/internal/vm"
	"slicehide/internal/wal"
)

// Snapshot codec and replay application: the full hidden-server state
// (execution tallies, globals, activation and instance stores) plus the
// dedup replay cache, serialized with the wire codec's primitives.
//
// Stores index values by compiled slot, and slot numbers are an artifact
// of one compilation — so everything is serialized by stable names
// ((component, var) for activation state, plain name for globals,
// (class, name) for fields) and resolved against the recompiled program's
// layouts at import. A name the new program cannot resolve aborts
// recovery: it means the program or the split changed between runs, and
// resuming sessions against different hidden components would corrupt
// state rather than preserve it. The payload also records the compiled
// program's hash; a mismatch against the recompiled registry is refused
// outright rather than resolved name by name.

// snapshotFormat versions the snapshot payload layout. Format 2 added the
// program hash after the format word when stores moved to compiled slots;
// format 3 follows each global's value with its guard version
// (Server.globalSeen). Format 2 still imports, its guard starting over.
const snapshotFormat = 3

// maxSnapshotItems bounds every decoded collection count so a corrupt (but
// CRC-clean) snapshot can never drive allocation; decode loops append as
// they read, so the bound is a sanity limit, not a preallocation.
const maxSnapshotItems = 1 << 24

// dedupSessionState is the serializable replay state of one session.
type dedupSessionState struct {
	Session  uint64
	LastSeq  uint64
	RespSeq  uint64
	Resp     Response
	Deferred string
	Lost     bool
}

// ---------------------------------------------------------------------------
// Record application (journal recovery and replication)

// applyRecord lands one decoded journal record's server-side effects: the
// activation an Enter opens or an Exit closes, or the call a Call counts
// with the post-write values it left in activation, field and global
// stores. Recovery replays every journal record through it, and a replica
// every record it is streamed. Names resolve against the recompiled
// program's layouts; a name it lacks aborts the apply, because resuming
// against a different program would corrupt hidden state. An uncounted
// record changes nothing here.
func (s *Server) applyRecord(rec *journalRecord) error {
	if !rec.counted {
		return nil
	}
	switch rec.op {
	case OpEnter:
		return s.replayEnter(rec.session, rec.fn, rec.obj, rec.inst)
	case OpExit:
		s.replayExit(rec.session, rec.fn, rec.inst)
	case OpCall:
		return s.replayCall(rec)
	}
	return nil
}

// replayEnter recreates an activation under the instance id the original
// execution assigned, bumping the shard's id counter past it so fresh
// server-assigned ids never collide with recovered ones.
func (s *Server) replayEnter(session uint64, fn string, obj, inst int64) error {
	cc := s.reg.Prog.Comps[fn]
	if cc == nil {
		return fmt.Errorf("hrt: record enters unknown component %s (program changed?)", fn)
	}
	sh := s.shard(session)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.memo.Store(nil)
	if inst > sh.nextInst {
		sh.nextInst = inst
	}
	if sh.stores[fn] == nil {
		sh.stores[fn] = make(map[actKey]*store)
	}
	st := &store{vals: cc.Act.NewVals(), obj: obj}
	sh.stores[fn][actKey{session: session, inst: inst}] = st
	s.statEnters.Add(1)
	return nil
}

// replayExit re-applies a counted exit. Deletion is tolerant like the live
// path (ExitSession only requires the component map to exist, which a
// snapshot boundary may have emptied).
func (s *Server) replayExit(session uint64, fn string, inst int64) {
	sh := s.shard(session)
	sh.mu.Lock()
	sh.memo.Store(nil)
	if m := sh.stores[fn]; m != nil {
		delete(m, actKey{session: session, inst: inst})
	}
	sh.mu.Unlock()
	s.statExits.Add(1)
}

// replayCall re-applies a counted call's deltas, routing each to the store
// CallSession would have written. A write to the globals store — a hidden
// global, or a variable of the globals component, whose activation is
// that store — goes through the version guard: it lands only if the
// record is at least as new as the slot's newest write (globalSeen).
func (s *Server) replayCall(rec *journalRecord) error {
	s.statCalls.Add(1)
	prog := s.reg.Prog
	sh := s.shard(rec.session)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.memo.Store(nil)
	cc := prog.Comps[rec.fn]
	if cc == nil {
		cc = &vm.Comp{} // an unknown component resolves no activation variable
	}
	globalsLocked := false
	for _, d := range rec.deltas {
		switch {
		case d.scope == scopeGlobal || d.scope == scopeAct && cc.Kind == vm.CompGlobals:
			slot, ok := prog.Globals.SlotByName(d.name)
			if !ok {
				return fmt.Errorf("hrt: record writes unknown global %s (program changed?)", d.name)
			}
			if !globalsLocked {
				s.globalsMu.Lock()
				defer s.globalsMu.Unlock()
				globalsLocked = true
			}
			if rec.globalsVersion < s.globalSeen[slot] {
				continue // an older write than the slot's; the newer value stays
			}
			s.globals.vals[slot] = d.val
			s.globalSeen[slot] = rec.globalsVersion
			s.globalsVersion = max(s.globalsVersion, rec.globalsVersion)
		case d.scope == scopeAct:
			slot, ok := cc.Act.SlotByName(d.name)
			if !ok {
				return fmt.Errorf("hrt: record writes unknown variable %s of %s (program changed?)", d.name, rec.fn)
			}
			var st *store
			if cc.Kind == vm.CompClass {
				st = sh.instanceStore(prog, rec.session, cc.Class, rec.inst)
			} else {
				st = sh.stores[rec.fn][actKey{session: rec.session, inst: rec.inst}]
			}
			if st == nil {
				return fmt.Errorf("hrt: record calls missing activation %s/%d", rec.fn, rec.inst)
			}
			st.vals[slot] = d.val
		case d.scope == scopeField:
			slot, ok := prog.Fields[d.class].SlotByName(d.name)
			if !ok {
				return fmt.Errorf("hrt: record writes unknown field %s.%s (program changed?)", d.class, d.name)
			}
			sh.instanceStore(prog, rec.session, d.class, d.obj).vals[slot] = d.val
		default:
			return fmt.Errorf("hrt: record delta has unexpected scope %d", d.scope)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Snapshot capture + encode
//
// Capture and serialization are split so the durability layer can hold
// the quiesce write lock only for captureCut — flat clones of every
// store, an O(live state) memcpy — and run encodeCut plus the disk I/O
// on a background goroutine while request traffic continues.

// stateCut is the consistent cut one snapshot serializes: cloned values
// of every live store plus the replay cache, pinned to the journal
// generation that took over at the cut.
type stateCut struct {
	gen    uint64
	sealed *wal.Journal // the generation the cut sealed; closed by the writer
	begin  time.Time

	prog                 *vm.Program
	enters, exits, calls int64
	globalsVersion       uint64
	globals              []interp.Value
	globalSeen           []uint64
	acts                 []actCut
	insts                []instCut
	maxInst              int64
	sessions             []dedupSessionState
}

type actCut struct {
	fn      string
	session uint64
	inst    int64
	obj     int64
	vals    []interp.Value
}

type instCut struct {
	session uint64
	class   string
	obj     int64
	vals    []interp.Value
}

// captureCut clones the full server + replay-cache state. Called under
// the durability quiesce lock, so no request is half-applied; the
// per-structure locks are still taken for memory visibility.
func captureCut(s *Server, d *Dedup) *stateCut {
	cut := &stateCut{prog: s.reg.Prog}
	st := s.Stats()
	cut.enters, cut.exits, cut.calls = st.Enters, st.Exits, st.Calls

	s.globalsMu.Lock()
	cut.globalsVersion = s.globalsVersion
	cut.globals = append([]interp.Value(nil), s.globals.vals...)
	cut.globalSeen = append([]uint64(nil), s.globalSeen...)
	s.globalsMu.Unlock()

	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.nextInst > cut.maxInst {
			cut.maxInst = sh.nextInst
		}
		for fn, m := range sh.stores {
			for k, act := range m {
				cut.acts = append(cut.acts, actCut{
					fn: fn, session: k.session, inst: k.inst, obj: act.obj,
					vals: append([]interp.Value(nil), act.vals...),
				})
			}
		}
		for k, inst := range sh.instances {
			cut.insts = append(cut.insts, instCut{
				session: k.session, class: k.class, obj: k.obj,
				vals: append([]interp.Value(nil), inst.vals...),
			})
		}
		sh.mu.Unlock()
	}
	cut.sessions = d.exportSessions()
	return cut
}

// encodeCut serializes a captured cut into the snapshot payload layout
// importSnapshot reads. Runs outside every lock.
func encodeCut(cut *stateCut) ([]byte, error) {
	prog := cut.prog
	b := make([]byte, 0, 4096)
	b = binary.LittleEndian.AppendUint32(b, snapshotFormat)
	b = binary.LittleEndian.AppendUint64(b, prog.Hash)
	b = binary.LittleEndian.AppendUint64(b, uint64(cut.enters))
	b = binary.LittleEndian.AppendUint64(b, uint64(cut.exits))
	b = binary.LittleEndian.AppendUint64(b, uint64(cut.calls))

	var err error
	b = binary.LittleEndian.AppendUint64(b, cut.globalsVersion)
	if b, err = appendVals(b, prog.Globals, cut.globals, cut.globalSeen); err != nil {
		return nil, err
	}

	b = binary.LittleEndian.AppendUint32(b, uint32(len(cut.acts)))
	for _, a := range cut.acts {
		if b, err = appendString(b, a.fn); err != nil {
			return nil, err
		}
		b = binary.LittleEndian.AppendUint64(b, a.session)
		b = binary.LittleEndian.AppendUint64(b, uint64(a.inst))
		b = binary.LittleEndian.AppendUint64(b, uint64(a.obj))
		if b, err = appendVals(b, prog.Comps[a.fn].Act, a.vals, nil); err != nil {
			return nil, err
		}
	}

	b = binary.LittleEndian.AppendUint32(b, uint32(len(cut.insts)))
	for _, in := range cut.insts {
		b = binary.LittleEndian.AppendUint64(b, in.session)
		if b, err = appendString(b, in.class); err != nil {
			return nil, err
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(in.obj))
		if b, err = appendVals(b, prog.Fields[in.class], in.vals, nil); err != nil {
			return nil, err
		}
	}

	b = binary.LittleEndian.AppendUint64(b, uint64(cut.maxInst))

	b = binary.LittleEndian.AppendUint32(b, uint32(len(cut.sessions)))
	for _, ss := range cut.sessions {
		b = binary.LittleEndian.AppendUint64(b, ss.Session)
		b = binary.LittleEndian.AppendUint64(b, ss.LastSeq)
		b = binary.LittleEndian.AppendUint64(b, ss.RespSeq)
		var flags byte
		if ss.Lost {
			flags |= 1
		}
		b = append(b, flags)
		if b, err = appendString(b, ss.Deferred); err != nil {
			return nil, err
		}
		b = append(b, ss.Resp.Flags)
		if b, err = appendValue(b, ss.Resp.Val); err != nil {
			return nil, err
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(ss.Resp.Inst))
		if b, err = appendString(b, ss.Resp.Err); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// appendVals encodes one store's values as name→value pairs, taking the
// stable names from the store's layout, each pair followed by its slot's
// guard version when seen is non-nil. Slot order makes the encoding
// deterministic for one program build.
func appendVals(b []byte, l *vm.Layout, vals []interp.Value, seen []uint64) ([]byte, error) {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(vals)))
	var err error
	for slot, val := range vals {
		if b, err = appendString(b, l.Slots[slot].Name); err != nil {
			return nil, err
		}
		if b, err = appendValue(b, val); err != nil {
			return nil, err
		}
		if seen != nil {
			b = binary.LittleEndian.AppendUint64(b, seen[slot])
		}
	}
	return b, nil
}

// ---------------------------------------------------------------------------
// Snapshot decode

// importSnapshot loads a snapshot payload into s (which must hold no
// state) and installs the replay-cache sessions it carried into dd.
func importSnapshot(s *Server, dd *Dedup, payload []byte) error {
	d := newWireReader(bytes.NewReader(payload))
	if err := s.importState(&d); err != nil {
		return err
	}
	n := d.u32()
	if d.err == nil && n > maxSnapshotItems {
		return fmt.Errorf("hrt: snapshot session count %d exceeds limit", n)
	}
	var sessions []dedupSessionState
	for i := uint32(0); i < n && d.err == nil; i++ {
		var ss dedupSessionState
		ss.Session = d.u64()
		ss.LastSeq = d.u64()
		ss.RespSeq = d.u64()
		ss.Lost = d.byte()&1 != 0
		ss.Deferred = d.str()
		ss.Resp.Flags = d.byte()
		ss.Resp.Val = d.value()
		ss.Resp.Inst = int64(d.u64())
		ss.Resp.Err = d.str()
		ss.Resp.Seq = ss.RespSeq
		ss.Resp.Ack = ss.RespSeq
		sessions = append(sessions, ss)
	}
	if d.err != nil {
		return d.err
	}
	dd.restoreSessions(sessions)
	return nil
}

func (s *Server) importState(d *wireReader) error {
	format := d.u32()
	if d.err == nil && format != 2 && format != snapshotFormat {
		return fmt.Errorf("hrt: snapshot format %d, this build reads 2 and %d", format, snapshotFormat)
	}
	if hash := d.u64(); d.err == nil && hash != s.reg.Prog.Hash {
		return fmt.Errorf("hrt: snapshot was written by program %016x, this registry compiles to %016x (program changed?)", hash, s.reg.Prog.Hash)
	}
	enters := d.u64()
	exits := d.u64()
	calls := d.u64()
	if d.err != nil {
		return d.err
	}
	s.statEnters.Store(int64(enters))
	s.statExits.Store(int64(exits))
	s.statCalls.Store(int64(calls))

	gver := d.u64()
	n := d.u32()
	if d.err != nil {
		return d.err
	}
	if n > maxSnapshotItems {
		return fmt.Errorf("hrt: snapshot globals count %d exceeds limit", n)
	}
	s.globalsMu.Lock()
	s.globalsVersion = gver
	// The snapshot replaces the globals wholesale, guard included; a
	// format-2 one carries no guard, so it starts over.
	clear(s.globalSeen)
	for i := uint32(0); i < n; i++ {
		name := d.str()
		val := d.value()
		var seen uint64
		if format == snapshotFormat {
			seen = d.u64()
		}
		if d.err != nil {
			s.globalsMu.Unlock()
			return d.err
		}
		slot, ok := s.reg.Prog.Globals.SlotByName(name)
		if !ok {
			s.globalsMu.Unlock()
			return fmt.Errorf("hrt: snapshot has unknown global %s (program changed?)", name)
		}
		s.globals.vals[slot] = val
		s.globalSeen[slot] = seen
	}
	s.globalsMu.Unlock()

	// Activation stores.
	if n = d.u32(); d.err == nil && n > maxSnapshotItems {
		return fmt.Errorf("hrt: snapshot activation count %d exceeds limit", n)
	}
	for i := uint32(0); i < n && d.err == nil; i++ {
		fn := d.str()
		session := d.u64()
		inst := int64(d.u64())
		obj := int64(d.u64())
		if d.err != nil {
			break
		}
		cc := s.reg.Prog.Comps[fn]
		if cc == nil {
			return fmt.Errorf("hrt: snapshot has activation of unknown component %s (program changed?)", fn)
		}
		st := &store{vals: cc.Act.NewVals(), obj: obj}
		if err := readVals(d, cc.Act.SlotByName, fn, st); err != nil {
			return err
		}
		sh := s.shard(session)
		sh.mu.Lock()
		if sh.stores[fn] == nil {
			sh.stores[fn] = make(map[actKey]*store)
		}
		sh.stores[fn][actKey{session: session, inst: inst}] = st
		sh.mu.Unlock()
	}

	// Instance stores.
	if n = d.u32(); d.err == nil && n > maxSnapshotItems {
		return fmt.Errorf("hrt: snapshot instance count %d exceeds limit", n)
	}
	for i := uint32(0); i < n && d.err == nil; i++ {
		session := d.u64()
		class := d.str()
		obj := int64(d.u64())
		if d.err != nil {
			break
		}
		fields := s.reg.Prog.Fields[class]
		st := &store{vals: fields.NewVals(), obj: obj}
		if err := readVals(d, fields.SlotByName, "fields of "+class, st); err != nil {
			return err
		}
		sh := s.shard(session)
		sh.mu.Lock()
		sh.instances[instanceKey{session: session, class: class, obj: obj}] = st
		sh.mu.Unlock()
	}

	maxInst := d.u64()
	if d.err != nil {
		return d.err
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.nextInst = int64(maxInst)
		sh.mu.Unlock()
	}
	s.clearMemos()
	return nil
}

// readVals decodes one store's values, resolving names to slots through
// the store's layout.
func readVals(d *wireReader, resolve func(string) (int32, bool), what string, st *store) error {
	n := d.u32()
	if d.err == nil && n > maxSnapshotItems {
		return fmt.Errorf("hrt: snapshot value count %d exceeds limit", n)
	}
	for i := uint32(0); i < n; i++ {
		name := d.str()
		val := d.value()
		if d.err != nil {
			return d.err
		}
		slot, ok := resolve(name)
		if !ok {
			return fmt.Errorf("hrt: snapshot has unknown variable %s in %s (program changed?)", name, what)
		}
		st.vals[slot] = val
	}
	return d.err
}

// ---------------------------------------------------------------------------
// Dedup replay-cache export/restore

// exportSessions snapshots every cached session's replay state. Called
// under the durability quiesce lock, so no session is mid-execution.
func (d *Dedup) exportSessions() []dedupSessionState {
	d.lazyInit()
	var out []dedupSessionState
	for _, sh := range d.shards {
		sh.mu.Lock()
		for id, e := range sh.sessions {
			out = append(out, dedupSessionState{
				Session: id, LastSeq: e.lastSeq, RespSeq: e.respSeq,
				Resp: e.resp, Deferred: e.deferred, Lost: e.lost,
			})
		}
		sh.mu.Unlock()
	}
	return out
}

// restoreSessions installs recovered replay state. Recovery never
// evicts: the stripe may transiently exceed its cap (the next insertion
// evicts normally).
func (d *Dedup) restoreSessions(list []dedupSessionState) {
	for _, ss := range list {
		sh, e, _ := d.entry(ss.Session)
		e.lastSeq, e.respSeq, e.resp = ss.LastSeq, ss.RespSeq, ss.Resp
		e.deferred, e.lost = ss.Deferred, ss.Lost
		sh.mu.Unlock()
	}
}

// recoverRecord settles one replayed journal record into its session's
// replay state, by the rule live execution publishes with (see settle).
func (d *Dedup) recoverRecord(rec *journalRecord) {
	sh, e, _ := d.entry(rec.session)
	e.settle(rec.seq, rec.noReply, rec.resp)
	sh.mu.Unlock()
}
