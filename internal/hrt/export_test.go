package hrt

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"slicehide/internal/core"
	"slicehide/internal/interp"
	"slicehide/internal/ir"
	"slicehide/internal/oracle"
	"slicehide/internal/vm"
	"slicehide/internal/wal"
)

// UseTreeWalker makes s, which serves res, execute fragments on the
// tree-walking reference executor (oracle.RunFragment) instead of the
// bytecode VM. Call before serving traffic. The walker runs res's fragment
// IR, reads and writes the stores the VM would, and records its writes as
// slots in the same write set, so the server's one effect builder serves
// both engines.
func (s *Server) UseTreeWalker(res *core.Result) {
	prog := s.reg.Prog
	comps := map[string]*core.HiddenComponent{}
	for name, sf := range res.Splits {
		comps[name] = sf.Hidden
	}
	if res.Globals != nil {
		comps[res.Globals.Component.Func] = res.Globals.Component
	}
	for _, fi := range res.Fields {
		comps[fi.Component.Func] = fi.Component
	}
	s.execRef = func(cc *vm.Comp, frag int, args []interp.Value, env vm.Env, ws *vm.WriteSet) (interp.Value, error) {
		fr := comps[cc.Name].Frags[frag]
		if ws == nil {
			ws = &vm.WriteSet{} // recorded, then dropped
		}
		cells := &slotCells{
			env: env, ws: ws, inObject: cc.Class != "",
			act: cc.Act, globals: prog.Globals, fields: prog.Fields[cc.Class],
		}
		return oracle.RunFragment(fr.ArgVars, args, fr.Body, cells)
	}
}

// slotCells routes the walker's variables to the stores the server bound
// for one call, the way the bytecode compiler routes them: globals to the
// shared globals store; fields of a class-owned component to its object's
// field store, where a field without a slot reads as its typed zero (field
// stores start zeroed); everything else to the activation store. A
// variable's slot is the one its layout names it by, as recovery resolves
// it.
type slotCells struct {
	env                  vm.Env
	ws                   *vm.WriteSet
	inObject             bool
	act, globals, fields *vm.Layout
}

func (c *slotCells) Read(v *ir.Var) (interp.Value, error) {
	if v.Kind == ir.VarGlobal {
		if slot, ok := slotOf(c.globals, v); ok {
			return c.env.Globals[slot], nil
		}
	}
	if v.Kind == ir.VarField && c.inObject {
		if slot, ok := slotOf(c.fields, v); ok {
			return c.env.Fields[slot], nil
		}
		return vm.ZeroValue(v), nil
	}
	if slot, ok := slotOf(c.act, v); ok {
		return c.env.Act[slot], nil
	}
	return interp.NullV(), fmt.Errorf("hrt: fragment reads unknown variable %s", v)
}

func (c *slotCells) Write(v *ir.Var, val interp.Value) error {
	l, vals, written, what := c.act, c.env.Act, &c.ws.Act, "variable"
	switch {
	case v.Kind == ir.VarGlobal:
		l, vals, written, what = c.globals, c.env.Globals, &c.ws.Globals, "global"
	case v.Kind == ir.VarField && c.inObject:
		l, vals, written, what = c.fields, c.env.Fields, &c.ws.Fields, "field"
	}
	slot, ok := slotOf(l, v)
	if !ok {
		return fmt.Errorf("hrt: fragment writes unlaid-out %s %s", what, v)
	}
	vals[slot] = val
	*written = addSlot(*written, slot)
	return nil
}

// slotOf resolves v in l by its name and kind.
func slotOf(l *vm.Layout, v *ir.Var) (int32, bool) {
	slot, ok := l.SlotByName(v.Name)
	if !ok || l.Slots[slot].Kind != v.Kind {
		return 0, false
	}
	return slot, true
}

// addSlot records slot once, in first-write order, as the VM's write set
// does.
func addSlot(list []int32, slot int32) []int32 {
	for _, s := range list {
		if s == slot {
			return list
		}
	}
	return append(list, slot)
}

// RunSplitOn is RunSplitOpts against a server the test built.
var RunSplitOn = runSplitOn

// Session reports the stream's session id.
func (s *MuxStream) Session() uint64 { return s.session }

// roundTrip serves req as a mux worker does (see TCPServer.serve) and
// finishes with its released record at once.
func (ts *TCPServer) roundTrip(req Request) (Response, error) {
	resp, held := ts.serve(req)
	ts.Persist.finish(held)
	return resp, nil
}

// roundTrip is the durable request path of a server serving d through p
// (see TCPServer.serve), finishing with its released record at once.
func (p *Durability) roundTrip(d *Dedup, req Request) (Response, error) {
	return (&TCPServer{Persist: p, dedup: d}).roundTrip(req)
}

// append is appendHeld finishing with its released record at once.
func (p *Durability) append(payload []byte, wake bool) error {
	held, err := p.appendHeld(payload, wake)
	p.finish(held)
	return err
}

// DurableSplit splits a program whose hidden state spans all three stores:
// an activation variable, a hidden global and hidden object fields.
var DurableSplit = durableSplit

// DurableServer is a server recovered from a data directory behind the
// journaling dedup layer: the in-process form of hiddend -data-dir.
type DurableServer struct {
	*Server
	dd *Dedup
	p  *Durability
}

// OpenDurable recovers a server for res from dir, on the tree-walking
// reference executor when treeWalk is set. Periodic snapshots are off, so
// every record the server journals stays in one journal.
func OpenDurable(t *testing.T, res *core.Result, dir string, treeWalk bool) *DurableServer {
	t.Helper()
	s, dd, p := startDurable(t, res, dir, DurabilityOptions{SnapshotEvery: -1})
	if treeWalk {
		s.UseTreeWalker(res)
	}
	return &DurableServer{Server: s, dd: dd, p: p}
}

// Run executes res's open program as one synchronous session through the
// journaling layer (in place of the direct transport RunSplitOn builds).
func (d *DurableServer) Run(res *core.Result, maxSteps int64) RunOutcome {
	return d.RunSession(res, 1, maxSteps)
}

// RunSession is Run as the given session.
func (d *DurableServer) RunSession(res *core.Result, session uint64, maxSteps int64) RunOutcome {
	t := &stampTransport{inner: d.dd, session: session}
	return runSplitOn(d.Server, res, func(Transport) Transport { return t }, maxSteps, RunOptions{})
}

// ApplyReplicated applies one journal record payload the way a fleet
// replica applies a streamed one (TCPServer.ApplyReplicated).
func (d *DurableServer) ApplyReplicated(payload []byte) error {
	return (&TCPServer{Server: d.Server, Persist: d.p, dedup: d.dd}).ApplyReplicated(payload)
}

// GlobalsVersion reports the server's globals version.
func (d *DurableServer) GlobalsVersion() uint64 {
	d.globalsMu.Lock()
	defer d.globalsMu.Unlock()
	return d.globalsVersion
}

// JournalPayloads returns the raw payload of every record the server
// journaled, in file order.
func (d *DurableServer) JournalPayloads() ([][]byte, error) {
	var out [][]byte
	_, _, err := wal.ScanFile(d.p.journalPath(d.p.gen), func(payload []byte) error {
		out = append(out, append([]byte(nil), payload...))
		return nil
	})
	return out, err
}

// Crash abandons the layer the way SIGKILL would: no final snapshot, so
// the next OpenDurable recovers by replaying the journal.
func (d *DurableServer) Crash(t *testing.T) { crash(t, d.p) }

func valueString(v interp.Value) string { return v.Kind.String() + ":" + v.String() }

func storeString(l *vm.Layout, vals []interp.Value) string {
	parts := make([]string, len(vals))
	for slot, v := range vals {
		parts[slot] = l.Slots[slot].Name + "=" + valueString(v)
	}
	return strings.Join(parts, " ")
}

func respString(r Response) string {
	return fmt.Sprintf("flags=%d val=%s inst=%d err=%q", r.Flags, valueString(r.Val), r.Inst, r.Err)
}

// State renders the server's execution tallies, every hidden store and the
// dedup replay cache, one sorted line each. It leaves out the globals
// version: recovery resumes it from the last journaled global write, not
// from the last call that took the globals lock (JournalRecords carries
// each record's version).
func (d *DurableServer) State() string {
	cut := captureCut(d.Server, d.dd)
	lines := []string{
		fmt.Sprintf("stats enters=%d exits=%d calls=%d max-inst=%d",
			cut.enters, cut.exits, cut.calls, cut.maxInst),
		"globals " + storeString(cut.prog.Globals, cut.globals),
	}
	for _, a := range cut.acts {
		lines = append(lines, fmt.Sprintf("act %s session=%d inst=%d obj=%d %s",
			a.fn, a.session, a.inst, a.obj, storeString(cut.prog.Comps[a.fn].Act, a.vals)))
	}
	for _, in := range cut.insts {
		lines = append(lines, fmt.Sprintf("fields %s session=%d obj=%d %s",
			in.class, in.session, in.obj, storeString(cut.prog.Fields[in.class], in.vals)))
	}
	for _, ss := range cut.sessions {
		lines = append(lines, fmt.Sprintf("session %d last=%d resp-seq=%d lost=%v deferred=%q %s",
			ss.Session, ss.LastSeq, ss.RespSeq, ss.Lost, ss.Deferred, respString(ss.Resp)))
	}
	sort.Strings(lines[2:])
	return strings.Join(lines, "\n")
}

// JournalRecords decodes every record the server journaled, one line
// each: the record, then its deltas as a sorted set of (scope, name,
// value), with the class and object a field delta addresses.
func (d *DurableServer) JournalRecords() ([]string, error) {
	var out []string
	_, _, err := wal.ScanFile(d.p.journalPath(d.p.gen), func(payload []byte) error {
		rec, err := decodeRecord(payload)
		if err != nil {
			return err
		}
		deltas := make([]string, len(rec.deltas))
		for i, dl := range rec.deltas {
			deltas[i] = fmt.Sprintf("(%d %s %s", dl.scope, dl.name, valueString(dl.val))
			if dl.scope == scopeField {
				deltas[i] += fmt.Sprintf(" %s#%d", dl.class, dl.obj)
			}
			deltas[i] += ")"
		}
		sort.Strings(deltas)
		out = append(out, fmt.Sprintf("op=%d session=%d seq=%d fn=%s inst=%d obj=%d frag=%d no-reply=%v counted=%v globals-version=%d %s deltas=%s",
			rec.op, rec.session, rec.seq, rec.fn, rec.inst, rec.obj, rec.frag, rec.noReply, rec.counted,
			rec.globalsVersion, respString(rec.resp), strings.Join(deltas, "")))
		return nil
	})
	return out, err
}

// onCommit makes fn run on the committer after each group-commit batch's
// write and fsync, before the position advances and the batch's workers
// are released: a test holds the batch inside fn, or fails it by returning
// an error, which poisons the journal as a failed fsync does.
func (p *Durability) onCommit(fn func() error) { p.testHookCommit.Store(&fn) }
