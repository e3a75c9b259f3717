// Package hrt is the hidden-runtime: it executes the hidden components
// produced by the splitting transformation (package core) on behalf of open
// components running on the bytecode machine (package vm).
//
// The open machine talks to the secure device through a Transport. Two
// reach a Server: Local (direct calls) and MuxStream (one session's stream
// on a multiplexed TCP connection to a TCPServer; see cmd/hiddend). A
// MuxStream is the one client that stamps, windows, retries and resends
// requests; a fleet session's stream (FollowOwner) also moves between the
// replicas' connections. The rest wrap another transport: Latency
// (simulated round-trip delay, used by the Table 5 experiments), Counting
// (counters, and optionally latency metrics and trace events) and Dedup.
// The tests add a fault injector, FaultTransport, and the Retry layer the
// in-process chaos tests run over it, in fault_test.go.
package hrt

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"slicehide/internal/interp"
	"slicehide/internal/vm"
)

// Registry is the artifact installed on the secure device: the compiled
// hidden components of a split program, with the slot layouts the stores
// are addressed through and the program hash recovery checks snapshots
// against. NewRegistry builds one from a split.
type Registry struct {
	Prog *vm.Program
}

// Server executes hidden fragments. It is safe for concurrent use.
//
// Session state is striped across shards keyed by client session id, so
// concurrent sessions never contend on one lock: sessions are independent
// namespaces by construction (activations are keyed by (session, inst),
// object instance ids are client-assigned and therefore session-scoped),
// which makes the split a pure partition. The shared hidden-globals store
// is the one piece of cross-session state; it keeps a dedicated lock.
// Execution tallies stay atomic.
type Server struct {
	reg *Registry

	// Execution tallies: how many operations actually ran (replays a
	// Dedup layer answers from its cache never reach the Server). The
	// chaos tests compare these against client-side logical counts to
	// verify exactly-once mutation under link faults.
	statEnters atomic.Int64
	statExits  atomic.Int64
	statCalls  atomic.Int64

	// shards stripe per-session state; len(shards) is a power of two and
	// shardMask = len(shards)-1.
	shards    []*serverShard
	shardMask uint64

	// globalsMu guards the shared hidden-globals store — the only state
	// every session can reach — both its map here and every fragment
	// read/write of a global hidden variable during execution.
	globalsMu sync.Mutex
	globals   *store
	// globalsVersion totally orders globals-touching executions (guarded
	// by globalsMu). The durability journal stamps it into records so
	// recovery can re-apply global writes in execution order — journal
	// append order across sessions can invert the order the globals lock
	// was taken in.
	globalsVersion uint64
	// globalSeen is the version guard on the globals store (guarded by
	// globalsMu): per slot, the globalsVersion of the newest write the
	// slot took, executed here or applied from a journal record. A record
	// older than its slot's entry is not applied (see applyRecord), so the
	// store ends on each slot's newest write whatever order records
	// arrive in.
	globalSeen []uint64

	// execRef, when set, runs fragments in place of the bytecode VM, against
	// the same stores and write set. Only tests set it (export_test.go puts
	// the tree-walking reference executor here); no production path or flag
	// does.
	execRef func(cc *vm.Comp, frag int, args []interp.Value, env vm.Env, ws *vm.WriteSet) (interp.Value, error)
	// frames pools VM temp frames, sized to the program's largest
	// fragment.
	frames *vm.FramePool
	// vmMetrics, when non-nil, times fragment executions (see
	// RegisterVMMetrics); the default path pays one nil check.
	vmMetrics *VMMetrics
}

// serverShard holds the session state of one stripe: activation stores,
// per-object hidden-field stores, and the server-assigned instance id
// counter. Each shard is an independently locked slice of the session
// space.
type serverShard struct {
	mu     sync.Mutex
	stores map[string]map[actKey]*store
	// memo caches the last activation resolution of this stripe so the
	// steady state of a session's calls — same component, same activation
	// — skips the lock and both map lookups. Any mutation of the stripe's
	// store tables clears it. Caching a *store here is safe for the same
	// reason executing against one without the stripe lock already is:
	// one session's operations are serialized by the dedup layer, and a
	// session's stores are not reachable from other sessions.
	memo atomic.Pointer[actMemo]
	// instances holds per-object hidden-field stores (the §2.2
	// object-oriented extension), keyed by session, class, and object
	// instance id. Object ids are assigned by the client interpreter, so
	// the session qualifier keeps concurrent clients from aliasing each
	// other's hidden fields.
	instances map[instanceKey]*store
	nextInst  int64
}

type instanceKey struct {
	session uint64
	class   string
	obj     int64
}

// actKey addresses one activation record. Activations are namespaced by
// client session so that pipelined clients can assign instance ids locally
// (removing the Enter round trip) without colliding across clients; the
// synchronous path uses session 0 with server-assigned ids.
type actKey struct {
	session uint64
	inst    int64
}

// store is one hidden activation record: the values of the hidden variables
// of one activation of a split function, indexed by the slots the compiled
// program's layouts assign.
type store struct {
	vals []interp.Value
	// obj is the receiver instance id the activation was opened with.
	obj int64
	// frame is the VM temp frame cached on this activation between calls
	// (a session's calls are serialized, so the activation owns it);
	// returned to the server pool on Exit.
	frame *vm.Frame
}

// actMemo is one cached activation resolution (see serverShard.memo).
type actMemo struct {
	fn      string
	session uint64
	inst    int64
	st      *store
	instore *store
	cc      *vm.Comp
}

// NewServer creates a hidden-component server over reg whose session
// state is striped across one lock per CPU (GOMAXPROCS, rounded up to a
// power of two).
func NewServer(reg *Registry) *Server {
	s := &Server{reg: reg}
	n := shardCount(runtime.GOMAXPROCS(0))
	s.shards = make([]*serverShard, n)
	s.shardMask = uint64(n - 1)
	for i := range s.shards {
		s.shards[i] = &serverShard{
			stores:    make(map[string]map[actKey]*store),
			instances: make(map[instanceKey]*store),
		}
	}
	s.globals = &store{vals: reg.Prog.NewGlobalVals()}
	s.globalSeen = make([]uint64, len(s.globals.vals))
	s.frames = vm.NewFramePool(reg.Prog.MaxTemps)
	return s
}

// clearMemos drops every stripe's cached activation resolution (called
// after bulk state mutation: snapshot import).
func (s *Server) clearMemos() {
	for _, sh := range s.shards {
		sh.memo.Store(nil)
	}
}

// shardCount normalizes a shard configuration value: at least one, rounded
// up to the next power of two so shard selection is a mask, capped to keep
// a misconfigured flag from allocating absurd stripe counts.
func shardCount(n int) int {
	if n < 1 {
		n = 1
	}
	if n > 1024 {
		n = 1024
	}
	if n&(n-1) != 0 {
		n = 1 << bits.Len(uint(n))
	}
	return n
}

// shard maps a session to its stripe. Session ids are random 64-bit
// values (NewSessionID), but the synchronous in-process path uses small
// dense ids (0, 1, 2, ...), so the id is mixed (splitmix64 finalizer)
// before masking to spread both shapes evenly.
func (s *Server) shard(session uint64) *serverShard {
	if s.shardMask == 0 {
		return s.shards[0]
	}
	return s.shards[mix64(session)&s.shardMask]
}

// mix64 is the splitmix64 finalizer: a cheap bijective mixer whose output
// bits all depend on all input bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Shards reports the number of session stripes (for tests and hiddend's
// startup banner).
func (s *Server) Shards() int { return len(s.shards) }

// Program returns the compiled hidden program the server runs.
func (s *Server) Program() *vm.Program { return s.reg.Prog }

// EnterSession opens a hidden activation for split function fn in the
// given session's namespace; obj is the receiver instance id for methods
// of classes with hidden fields. When inst is non-zero it is a
// client-assigned instance id (the pipelined transport picks ids locally
// so Enter needs no reply); zero asks the server to assign one.
func (s *Server) EnterSession(session uint64, fn string, obj, inst int64) (int64, error) {
	cc := s.reg.Prog.Comps[fn]
	if cc == nil {
		return 0, fmt.Errorf("hrt: no hidden component for %s", fn)
	}
	sh := s.shard(session)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.memo.Store(nil)
	if inst == 0 {
		// Server-assigned ids are unique per shard, which is enough:
		// activations are addressed by (session, inst) and a session lives
		// on exactly one shard.
		sh.nextInst++
		inst = sh.nextInst
	}
	if sh.stores[fn] == nil {
		sh.stores[fn] = make(map[actKey]*store)
	}
	st := &store{vals: cc.Act.NewVals(), obj: obj}
	sh.stores[fn][actKey{session: session, inst: inst}] = st
	s.statEnters.Add(1)
	return inst, nil
}

// ServerStats reports how many operations the server executed.
type ServerStats struct {
	Enters, Exits, Calls int64
}

// Stats returns the execution tallies (state-mutating operations that
// actually ran, as opposed to replays answered from a cache).
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Enters: s.statEnters.Load(),
		Exits:  s.statExits.Load(),
		Calls:  s.statCalls.Load(),
	}
}

// instanceStore returns (creating on first use) the hidden-field store of
// one object in one session's namespace. Caller holds sh.mu.
func (sh *serverShard) instanceStore(prog *vm.Program, session uint64, class string, obj int64) *store {
	key := instanceKey{session: session, class: class, obj: obj}
	st, ok := sh.instances[key]
	if !ok {
		st = &store{vals: prog.Fields[class].NewVals(), obj: obj}
		sh.instances[key] = st
	}
	return st
}

// ExitSession discards an activation in the given session's namespace.
func (s *Server) ExitSession(session uint64, fn string, inst int64) error {
	sh := s.shard(session)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.memo.Store(nil)
	if m := sh.stores[fn]; m != nil {
		key := actKey{session: session, inst: inst}
		if st := m[key]; st != nil && st.frame != nil {
			s.frames.Put(st.frame)
			st.frame = nil
		}
		delete(m, key)
		s.statExits.Add(1)
		return nil
	}
	return fmt.Errorf("hrt: exit of unknown activation %s/%d", fn, inst)
}

// ActiveInstances reports the number of live activations (for tests).
func (s *Server) ActiveInstances() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, m := range sh.stores {
			n += len(m)
		}
		sh.mu.Unlock()
	}
	return n
}

// CallSession executes fragment frag of fn's hidden component under
// activation inst of the given session's namespace. It returns the
// fragment's value, or the sentinel "any" (null) for fragments that return
// nothing.
func (s *Server) CallSession(session uint64, fn string, inst int64, frag int, args []interp.Value) (interp.Value, error) {
	v, _, err := s.exec(session, fn, inst, frag, args, false)
	return v, err
}

// dispatch executes one request: the one switch the in-process transport
// and the durable path share. With effects set it also captures what the
// journal records (whether the request counted in the execution tallies,
// and the post-write value of every hidden variable a call wrote);
// without, it captures nothing and returns nil effects. A protocol error
// is an answer like any other, carried in Response.Err.
func (s *Server) dispatch(req Request, effects bool) (Response, *recEffects) {
	switch req.Op {
	case OpEnter:
		inst, err := s.EnterSession(req.Session, req.Fn, req.Obj, req.Inst)
		return Response{Inst: inst, Err: errString(err)}, countedEffects(effects, err)
	case OpExit:
		err := s.ExitSession(req.Session, req.Fn, req.Inst)
		return Response{Err: errString(err)}, countedEffects(effects, err)
	case OpCall:
		v, eff, err := s.exec(req.Session, req.Fn, req.Inst, req.Frag, req.Args, effects)
		return Response{Val: v, Err: errString(err)}, eff
	case OpFlush:
		return Response{}, nil
	}
	return Response{Err: fmt.Sprintf("hrt: unknown op %d", req.Op)}, nil
}

// countedEffects is the effect record of an Enter or Exit: it counts in
// the tallies exactly when it succeeded.
func countedEffects(effects bool, err error) *recEffects {
	if !effects {
		return nil
	}
	return &recEffects{counted: err == nil}
}

// exec resolves the activation a call addresses and runs the fragment
// against it, capturing the writes when wantEffects is set.
func (s *Server) exec(session uint64, fn string, inst int64, frag int, args []interp.Value, wantEffects bool) (interp.Value, *recEffects, error) {
	var eff *recEffects
	if wantEffects {
		eff = &recEffects{}
	}
	sh := s.shard(session)

	// Fast path: the stripe's last resolution. A session's steady state —
	// call after call against one activation — hits here and pays neither
	// the stripe lock nor the component/activation map lookups.
	var cc *vm.Comp
	var st, instStore *store
	if m := sh.memo.Load(); m != nil && m.inst == inst && m.session == session && m.fn == fn {
		cc, st, instStore = m.cc, m.st, m.instore
	} else {
		cc = s.reg.Prog.Comps[fn]
		if cc == nil {
			return interp.NullV(), eff, fmt.Errorf("hrt: no hidden component for %s", fn)
		}
		sh.mu.Lock()
		st = sh.stores[fn][actKey{session: session, inst: inst}]
		if st == nil && cc.Kind == vm.CompGlobals {
			// The shared globals component has a single implicit activation.
			st = s.globals
		}
		if st == nil && cc.Kind == vm.CompClass {
			// Class components address per-object stores directly; inst is
			// the object instance id.
			st = sh.instanceStore(s.reg.Prog, session, cc.Class, inst)
		}
		if st != nil && cc.Class != "" {
			instStore = sh.instanceStore(s.reg.Prog, session, cc.Class, st.obj)
		}
		sh.mu.Unlock()
		if st == nil {
			return interp.NullV(), eff, fmt.Errorf("hrt: no activation %s/%d", fn, inst)
		}
		sh.memo.Store(&actMemo{fn: fn, session: session, inst: inst, st: st, instore: instStore, cc: cc})
	}

	f := cc.Frag(frag)
	if f == nil {
		return interp.NullV(), eff, fmt.Errorf("hrt: %s has no fragment %d", fn, frag)
	}
	if len(args) != f.NArgs {
		return interp.NullV(), eff, fmt.Errorf("hrt: fragment %s/%d wants %d args, got %d", fn, frag, f.NArgs, len(args))
	}
	s.statCalls.Add(1)
	if eff != nil {
		// From here on the call counts as executed — the stats tally bumped —
		// even when the fragment body errors, and recovery must re-bump it.
		eff.counted = true
	}
	if cc.TouchesGlobals {
		// The shared globals store is the only cross-session state; a
		// fragment that can read or write it runs under the dedicated
		// globals lock, which both prevents data races between sessions on
		// different shards and keeps each fragment's global updates atomic
		// (fragments are short and bounded, so the critical section is too).
		s.globalsMu.Lock()
		defer s.globalsMu.Unlock()
	}

	frame := st.frame
	if frame == nil {
		frame = s.frames.Get()
		st.frame = frame
	}
	env := vm.Env{Act: st.vals, Globals: s.globals.vals}
	if instStore != nil {
		env.Fields = instStore.vals
	}
	var ws *vm.WriteSet
	if eff != nil {
		ws = &vm.WriteSet{}
	}
	var v interp.Value
	var err error
	switch {
	case s.execRef != nil:
		v, err = s.execRef(cc, frag, args, env, ws)
	case s.vmMetrics != nil:
		t0 := monoNow()
		v, err = f.Exec(frame, args, env, ws)
		s.vmMetrics.execCall.Observe(monoNow() - t0)
	default:
		v, err = f.Exec(frame, args, env, ws)
	}
	if eff != nil {
		s.captureEffects(eff, cc, ws, st, instStore)
	}
	return v, eff, err
}

// captureEffects snapshots the post-execution value of every hidden
// variable the fragment wrote (ws lists their slots), under the same locks
// the execution held: the caller still holds globalsMu iff the component
// touches globals, and st/instStore are only reachable through this
// session, whose requests the dedup layer serializes.
func (s *Server) captureEffects(eff *recEffects, cc *vm.Comp, ws *vm.WriteSet, st, instStore *store) {
	if cc.TouchesGlobals {
		s.globalsVersion++
		eff.globalsVersion = s.globalsVersion
	}
	prog := s.reg.Prog
	// The globals component's activation is the globals store itself.
	actIsGlobals := cc.Kind == vm.CompGlobals
	for _, slot := range ws.Act {
		eff.deltas = append(eff.deltas, stateDelta{scope: scopeAct, name: cc.Act.Slots[slot].Name, val: st.vals[slot]})
		if actIsGlobals {
			s.globalSeen[slot] = eff.globalsVersion
		}
	}
	for _, slot := range ws.Globals {
		eff.deltas = append(eff.deltas, stateDelta{scope: scopeGlobal, name: prog.Globals.Slots[slot].Name, val: s.globals.vals[slot]})
		s.globalSeen[slot] = eff.globalsVersion
	}
	for _, slot := range ws.Fields {
		v := prog.Fields[cc.Class].Slots[slot]
		eff.deltas = append(eff.deltas, stateDelta{
			scope: scopeField, name: v.Name, class: v.Class, obj: instStore.obj, val: instStore.vals[slot],
		})
	}
}
