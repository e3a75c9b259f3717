package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"slicehide"
	"slicehide/internal/core"
	"slicehide/internal/hrt"
	"slicehide/internal/interp"
	"slicehide/internal/obs"
)

// The serve_* workloads drive one small split function's hidden fragments
// directly, the way an open program would, against a self-hosted hidden
// server on loopback TCP. All of them are closed loops: an open program
// blocks on its reply-bearing hidden call, so callers-that-wait is the real
// traffic. Load comes from this process, over at most nproc connections.
//
// The function keeps one hidden accumulator. mix is order-sensitive, so a
// lost, duplicated or reordered call changes every later eval reply; the
// benchmark keeps the same accumulator in plain Go (ledgerModel) and
// compares.

const ledgerSrc = `
func work(x: int, y: int): int {
    var acc: int = x * 3 + y;
    var B: int[] = new int[1];
    acc = (acc * 31 + x * y + 7) % 1000003;
    B[0] = (acc + x) % 65521;
    return B[0];
}
func main() { print(work(5, 2)); }
`

const ledgerFn = "work"

// ledger is the compiled and split serve program with its three fragments.
type ledger struct {
	res *slicehide.SplitResult
	// fragInit(x, y): acc = x*3 + y            (exec, mutates)
	// fragMix(x, y):  acc = (acc*31 + x*y + 7) % 1000003   (exec, mutates)
	// fragEval(x):    return (acc + x) % 65521 (eval, read-only)
	fragInit, fragMix, fragEval int
}

type ledgerModel struct{ acc int64 }

func (m *ledgerModel) init(x, y int64) { m.acc = x*3 + y }
func (m *ledgerModel) mix(x, y int64)  { m.acc = (m.acc*31 + x*y + 7) % 1000003 }
func (m *ledgerModel) eval(x int64) int64 {
	return (m.acc + x) % 65521
}

func buildLedger() (*ledger, error) {
	prog, err := slicehide.Compile(ledgerSrc)
	if err != nil {
		return nil, err
	}
	res, err := slicehide.Split(prog, []slicehide.Spec{{Func: ledgerFn, Seed: "acc"}})
	if err != nil {
		return nil, err
	}
	lg := &ledger{res: res, fragInit: 0, fragMix: 1, fragEval: 2}
	frags := res.Splits[ledgerFn].Hidden.Frags
	for _, want := range []struct {
		id, args int
		kind     core.FragKind
	}{{lg.fragInit, 2, core.FragExec}, {lg.fragMix, 2, core.FragExec}, {lg.fragEval, 1, core.FragEval}} {
		fr := frags[want.id]
		if fr == nil || fr.Kind != want.kind || len(fr.ArgVars) != want.args {
			return nil, fmt.Errorf("serve program split differently than the benchmark assumes: fragment %d is %v", want.id, fr)
		}
	}
	return lg, nil
}

// hiddenServer is one self-hosted hidden server, wired like cmd/hiddend:
// one session stripe per CPU and a metrics registry attached.
type hiddenServer struct {
	tcp  *hrt.TCPServer
	reg  *obs.Registry
	addr string
}

func newHiddenServer(lg *ledger, persist *hrt.Durability) *hiddenServer {
	h := &hiddenServer{
		tcp: &hrt.TCPServer{
			Server:  hrt.NewServer(hrt.NewRegistry(lg.res)),
			Shards:  runtime.GOMAXPROCS(0),
			Persist: persist,
		},
		reg: obs.NewRegistry(),
	}
	h.tcp.RegisterMetrics(h.reg)
	if persist != nil {
		persist.RegisterMetrics(h.reg)
	}
	return h
}

func (h *hiddenServer) listen(addr string) error {
	a, err := h.tcp.ListenAndServe(addr)
	if err != nil {
		return err
	}
	h.addr = a.String()
	return nil
}

// deployment is a running hidden tier plus the client-side link to it.
type deployment interface {
	// transport attaches one session; detach releases what it holds.
	transport(session uint64, c *hrt.Counters) hrt.Transport
	detach(t hrt.Transport)
	// executed reports each server's executed-call tally.
	executed() []int64
	// counters are the link-level client counters.
	counters() *hrt.Counters
	close() error
}

// muxDeployment: one server, one multiplexed client connection.
type muxDeployment struct {
	srv  *hiddenServer
	mt   *hrt.MuxTransport
	link hrt.Counters
}

func startMux(lg *ledger, persist *hrt.Durability) (*muxDeployment, error) {
	d := &muxDeployment{srv: newHiddenServer(lg, persist)}
	if err := d.srv.listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	mt, err := hrt.DialMux(hrt.MuxConfig{Addr: d.srv.addr, Counters: &d.link})
	if err != nil {
		d.srv.tcp.Close()
		return nil, err
	}
	d.mt = mt
	return d, nil
}

func (d *muxDeployment) transport(session uint64, c *hrt.Counters) hrt.Transport {
	return d.mt.Stream(session, c)
}
func (d *muxDeployment) detach(t hrt.Transport)  { t.(*hrt.MuxStream).Close() }
func (d *muxDeployment) executed() []int64       { return []int64{d.srv.tcp.Server.Stats().Calls} }
func (d *muxDeployment) counters() *hrt.Counters { return &d.link }
func (d *muxDeployment) close() error {
	d.mt.Close()
	return d.srv.tcp.Close()
}

// slot is what one client goroutine keeps from round to round: its seeded
// argument cycle, its latency samples and its span buffer.
type slot struct {
	// args is a fixed cycle of seeded argument pairs. The slices are
	// read-only: a transport keeps a sent request until it is acknowledged.
	args   [][]interp.Value
	rec    *recorder
	spans  *spanBuf
	stream hrt.Counters
}

const argCycle = 4096

func newSlot(rng *rand.Rand, samples int, tr *tracer) *slot {
	sl := &slot{args: make([][]interp.Value, argCycle), rec: newRecorder(samples), spans: tr.buf()}
	for i := range sl.args {
		sl.args[i] = []interp.Value{interp.IntV(1 + rng.Int63n(9999)), interp.IntV(1 + rng.Int63n(9999))}
	}
	return sl
}

// client is one open session and its plain-Go shadow.
type client struct {
	*slot
	t       hrt.Transport
	session uint64
	s       *hrt.Session
	as      *hrt.AsyncSession // set for one-way clients
	inst    int64
	next    int
	model   ledgerModel
	// trace is the slot's span buffer on a span-recording round, else nil.
	trace *spanBuf
	// calls counts fragment calls issued; the servers must have executed
	// exactly this many. reqs counts the requests of a reply-bearing
	// session, i.e. its last sequence number.
	calls, reqs int64
}

// open attaches a fresh session, enters the split function and
// initialises the hidden accumulator.
func (sl *slot) open(lg *ledger, d deployment, session uint64, oneWay bool) (*client, error) {
	c := &client{slot: sl, session: session, t: d.transport(session, &sl.stream)}
	var err error
	if oneWay {
		c.as = hrt.NewAsyncSession(c.t)
		if c.as == nil {
			return nil, fmt.Errorf("transport %T cannot send one-way", c.t)
		}
		c.s = &c.as.Session
		c.inst, err = c.as.EnterAsync(ledgerFn, 0)
	} else {
		c.s = &hrt.Session{T: c.t}
		c.inst, err = c.s.Enter(ledgerFn, 0)
	}
	if err != nil {
		return nil, err
	}
	c.reqs++
	a := c.args[0]
	if _, err := c.call(lg.fragInit, a); err != nil {
		return nil, err
	}
	c.model.init(a[0].I, a[1].I)
	return c, nil
}

// call is one reply-bearing fragment call.
func (c *client) call(frag int, args []interp.Value) (interp.Value, error) {
	c.calls++
	c.reqs++
	return c.s.Call(ledgerFn, c.inst, frag, args)
}

// mix is one reply-bearing mix call, mirrored into the model.
func (c *client) mix(lg *ledger) error {
	a := c.args[c.next]
	v, err := c.call(lg.fragMix, a)
	if err != nil {
		return err
	}
	if v.Kind != interp.KindNull {
		return fmt.Errorf("session %d: exec fragment replied %v, want the null sentinel", c.session, v)
	}
	c.model.mix(a[0].I, a[1].I)
	c.next = (c.next + 1) % argCycle
	return nil
}

// verify reads the hidden accumulator back through the eval fragment and
// compares it with the model: the reply is a function of every call the
// session has made, in order.
func (c *client) verify(lg *ledger) error {
	a := c.args[c.next][:1]
	v, err := c.call(lg.fragEval, a)
	if err != nil {
		return err
	}
	if want := c.model.eval(a[0].I); v.Kind != interp.KindInt || v.I != want {
		return fmt.Errorf("session %d: hidden state diverged after %d calls: eval replied %v, plain Go computes %d", c.session, c.calls, v, want)
	}
	return nil
}

// rpcRound makes n reply-bearing mix calls, timing each.
func (c *client) rpcRound(lg *ledger, n int, parent int32) error {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := c.mix(lg); err != nil {
			return err
		}
		d := time.Since(t0)
		c.rec.add(int64(d))
		c.trace.leaf("call", parent, t0, d)
	}
	return nil
}

const barrierEvery = 16

// streamRound sends n one-way mix calls with a barrier every 16, timing
// each barrier (the only operation a streaming caller waits for).
func (c *client) streamRound(lg *ledger, n int, parent int32) error {
	for i := 0; i < n; i++ {
		a := c.args[c.next]
		c.calls++
		if c.trace == nil {
			if err := c.as.CallOneWay(ledgerFn, c.inst, lg.fragMix, a); err != nil {
				return err
			}
		} else {
			t0 := time.Now()
			if err := c.as.CallOneWay(ledgerFn, c.inst, lg.fragMix, a); err != nil {
				return err
			}
			c.trace.leaf("send", parent, t0, time.Since(t0))
		}
		c.model.mix(a[0].I, a[1].I)
		c.next = (c.next + 1) % argCycle
		if (i+1)%barrierEvery == 0 {
			t0 := time.Now()
			if err := c.as.Barrier(); err != nil {
				return err
			}
			d := time.Since(t0)
			c.rec.add(int64(d))
			c.trace.leaf("barrier", parent, t0, d)
		}
	}
	return nil
}

// sessionIDs draws n distinct non-zero session ids.
func sessionIDs(_ deployment, rng *rand.Rand, n int) []uint64 {
	ids := make([]uint64, 0, n)
	seen := map[uint64]bool{0: true}
	for len(ids) < n {
		if id := rng.Uint64(); !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	return ids
}

// serveRun drives one deployment. Every round opens fresh sessions with
// freshly drawn ids. How sessions hash onto the server's lock stripes
// decides how much of their work can overlap (a durable server holds a
// session's stripe across the journal append, and eight sessions on two
// stripes ran anywhere from 6k to 9k ops/s depending on the ids alone), so
// one placement per run would make the run's number a lottery ticket; many
// placements per run and the median over rounds make it the typical case.
type serveRun struct {
	lg     *ledger
	dep    deployment
	oneWay bool
	slots  []*slot
	rng    *rand.Rand
	ids    func(dep deployment, rng *rand.Rand, n int) []uint64
	// calls is every fragment call issued so far, over all rounds.
	calls int64
	// last holds the most recent round's sessions, still open.
	last []*client
}

func newServeRun(lg *ledger, dep deployment, spec serveSpec, seed int64, samples int, tr *tracer) *serveRun {
	r := &serveRun{lg: lg, dep: dep, oneWay: spec.oneWay, rng: rand.New(rand.NewSource(seed)), ids: spec.ids}
	if r.ids == nil {
		r.ids = sessionIDs
	}
	for i := 0; i < spec.sessions; i++ {
		r.slots = append(r.slots, newSlot(rand.New(rand.NewSource(seed+int64(i+1)*7919)), samples, tr))
	}
	return r
}

// round runs one fixed-size round: every client goroutine opens a fresh
// session (untimed), all start together, each runs its n ops, and each then
// verifies its session's hidden state (untimed). The round's throughput is
// its ops over the time from the common start to the last finish. tr is
// nil on rounds that record no spans.
func (r *serveRun) round(n int, tr *tracer) (float64, error) {
	for _, c := range r.last {
		r.dep.detach(c.t)
	}
	ids := r.ids(r.dep, r.rng, len(r.slots))
	r.last = make([]*client, len(ids))
	errs := make([]error, len(ids))
	finish := make([]time.Time, len(ids))
	id := tr.begin("round", tr.rootID())
	var ready, done sync.WaitGroup
	release := make(chan struct{})
	for i := range ids {
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			c, err := r.slots[i].open(r.lg, r.dep, ids[i], r.oneWay)
			r.last[i], errs[i] = c, err
			ready.Done()
			<-release
			if err != nil {
				return
			}
			if tr != nil {
				c.trace = c.spans
			}
			if r.oneWay {
				errs[i] = c.streamRound(r.lg, n, id)
			} else {
				errs[i] = c.rpcRound(r.lg, n, id)
			}
			finish[i] = time.Now()
			if errs[i] == nil {
				errs[i] = c.verify(r.lg)
			}
		}()
	}
	ready.Wait()
	start := time.Now()
	close(release)
	done.Wait()
	tr.end(id)
	var wall time.Duration
	for i, c := range r.last {
		if errs[i] != nil {
			r.last = nil
			return 0, errs[i]
		}
		r.calls += c.calls
		wall = max(wall, finish[i].Sub(start))
	}
	return float64(n*len(ids)) / wall.Seconds(), nil
}

// warm runs the discarded warm-up rounds, forgets their samples, and
// returns what warming up costs: the median round (sessions opened, ops
// run, state verified) times the number of rounds, so that one slow round
// does not decide the set-up figure.
func (r *serveRun) warm(rc runConfig, n int) (time.Duration, error) {
	var walls []float64
	for i := 0; i < rc.size.serveWarm; i++ {
		t := time.Now()
		if _, err := r.round(n, nil); err != nil {
			return 0, err
		}
		walls = append(walls, float64(time.Since(t)))
	}
	for _, sl := range r.slots {
		sl.rec.ns = sl.rec.ns[:0]
	}
	return time.Duration(median(walls) * float64(len(walls))), nil
}

// timed runs fixed-size rounds until the budget is spent and returns each
// round's throughput. In a traced run odd rounds record spans and even
// ones do not, so both rates are measured in the same process.
func (r *serveRun) timed(rc runConfig, n int, budget time.Duration, tr *tracer) (plain, traced []float64, err error) {
	start := time.Now()
	for i := 0; time.Since(start) < budget || i < rc.size.minRounds; i++ {
		if tr != nil && i%2 == 1 {
			rate, err := r.round(n, tr)
			if err != nil {
				return nil, nil, err
			}
			traced = append(traced, rate)
		} else {
			rate, err := r.round(n, nil)
			if err != nil {
				return nil, nil, err
			}
			plain = append(plain, rate)
		}
	}
	return plain, traced, nil
}

// baselineP50 runs the workload's sessions and round size against another
// deployment for an eighth of the budget and returns the median latency in
// microseconds: the reference a traced run subtracts from its own median.
func (sv *served) baselineP50(dep deployment) (float64, error) {
	base := newServeRun(sv.run.lg, dep, serveSpec{sessions: len(sv.run.slots)}, sv.rc.seed, 1<<16, nil)
	if _, err := base.warm(sv.rc, sv.roundOps); err != nil {
		return 0, err
	}
	if _, _, err := base.timed(sv.rc, sv.roundOps, sv.rc.budget()/8, nil); err != nil {
		return 0, err
	}
	return quantileSorted(base.latencies(), 0.5), nil
}

// latencies pools every slot's samples, ascending, in microseconds.
func (r *serveRun) latencies() []float64 {
	recs := make([]*recorder, len(r.slots))
	for i, sl := range r.slots {
		recs[i] = sl.rec
	}
	return pooledMicros(recs)
}

// serveSpec describes one serve_* workload.
type serveSpec struct {
	sessions int
	ops      int // per session per round
	oneWay   bool
	// procs, when set, is the GOMAXPROCS the rounds run under.
	procs int
	// start brings up a fresh deployment; dir is a fresh data directory.
	start func(lg *ledger, dir string) (deployment, error)
	// ids draws a round's session ids (nil = any distinct ids).
	ids func(dep deployment, rng *rand.Rand, n int) []uint64
	// after runs once the timed section and common checks are done, while
	// the deployment is still up: workload-specific checks, and in a traced
	// run the workload's per-layer extras.
	after func(sv *served) error
}

// served is what a serve workload's after hook sees.
type served struct {
	rc  runConfig
	tr  *tracer
	out *outcome
	run *serveRun
	dir string
	// p50us is the workload's pooled exact-sample median latency.
	p50us    float64
	roundOps int // ops per session per round
}

// freshDir makes a new data directory under the benchmark's out directory.
func freshDir(rc runConfig, name string) (string, error) {
	return os.MkdirTemp(rc.outDir, name+"-")
}

// resourceMark is a snapshot of the process-wide counters read at the
// boundary of a timed section.
type resourceMark struct {
	mallocs uint64
	cpu     int64
}

func markResources() resourceMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return resourceMark{mallocs: m.Mallocs, cpu: cpuMicros()}
}

func runServe(rc runConfig, tr *tracer, name string, spec serveSpec) (*outcome, error) {
	out := newOutcome()

	// Set-up, three times over for a steady figure: compile and split the
	// program, start the hidden tier, dial. The first two are torn down
	// again; the third is measured. (Sessions are opened by the rounds.)
	var builds []float64
	var run *serveRun
	var dir string
	for i := 0; i < 3; i++ {
		if run != nil {
			if err := run.dep.close(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
		}
		var err error
		if dir, err = freshDir(rc, name); err != nil {
			return nil, err
		}
		t := time.Now()
		lg, err := buildLedger()
		if err != nil {
			return nil, err
		}
		dep, err := spec.start(lg, dir)
		if err != nil {
			return nil, err
		}
		builds = append(builds, time.Since(t).Seconds())
		// Room for every timed sample without growing mid-round.
		run = newServeRun(lg, dep, spec, rc.seed, int(rc.seconds*100_000)/spec.sessions+1024, tr)
	}
	defer os.RemoveAll(dir)
	defer run.dep.close()

	ok, want, got, err := hrt.Equivalent(run.lg.res, maxInterpSteps)
	out.check("split output equals original", ok && err == nil, "err=%v original=%q split=%q", err, want, got)

	budget := rc.budget()
	if tr != nil {
		budget /= 2 // the rest goes to the per-layer extras
	}
	if spec.procs > 0 {
		restore := runtime.GOMAXPROCS(spec.procs)
		defer runtime.GOMAXPROCS(restore)
	}
	warm, err := run.warm(rc, spec.ops)
	if err != nil {
		return nil, err
	}
	setup := median(builds) + warm.Seconds()
	before, linkBefore, callsBefore := markResources(), snapshotCounters(run), run.calls
	plain, traced, err := run.timed(rc, spec.ops, budget, tr)
	if err != nil {
		return nil, err
	}
	after, link := markResources(), snapshotCounters(run).minus(linkBefore)
	timedCalls := run.calls - callsBefore

	rounds := int64(len(plain) + len(traced))
	ops := rounds * int64(spec.ops) * int64(spec.sessions)
	out.attempted = ops
	out.ops["rounds"] = rounds
	out.ops["ops_per_round"] = int64(spec.ops * spec.sessions)
	out.ops["sessions"] = int64(spec.sessions)
	// Each round adds one init and one verification call per session.
	planned := ops + 2*rounds*int64(spec.sessions)
	out.check("timed section issued exactly the planned calls", timedCalls == planned,
		"issued %d calls, planned %d", timedCalls, planned)
	for i, n := range run.dep.executed() {
		out.check(fmt.Sprintf("server %d executed every call exactly once", i), n == run.calls,
			"executed %d, clients issued %d", n, run.calls)
	}

	lat := run.latencies()
	sv := &served{rc: rc, tr: tr, out: out, run: run, dir: dir, p50us: quantileSorted(lat, 0.5), roundOps: spec.ops}
	if tr == nil {
		out.metrics["setup_s"] = setup
		out.metrics["ops_per_s"] = median(plain)
		out.metrics["p50_us"] = sv.p50us
	} else {
		out.metrics["trace.overhead_pct"] = 100 * (median(plain) - median(traced)) / median(plain)
		out.metrics["hrt.rpc_p99_us"] = percentileIfSupported(lat, 99)
		out.metrics["hrt.mux.frames_per_flush"] = ratio(link.frames, link.flushes)
		out.metrics["hrt.mux.window_stalls"] = float64(link.stalls)
		out.metrics["hrt.mux.wire_bytes_per_op"] = float64(link.wire) / float64(timedCalls)
		out.metrics["hrt.allocs_per_op"] = float64(after.mallocs-before.mallocs) / float64(timedCalls)
		out.metrics["proc.cpu_us_per_op"] = float64(after.cpu-before.cpu) / float64(timedCalls)
	}
	if spec.after != nil {
		if err := spec.after(sv); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// linkCounts is the slice of hrt.Counters the serve ledger reports.
type linkCounts struct{ frames, flushes, stalls, wire int64 }

func snapshotCounters(r *serveRun) linkCounts {
	c := r.dep.counters()
	lc := linkCounts{
		frames:  c.MuxBatchedFrames.Load(),
		flushes: c.MuxFlushes.Load(),
		wire:    c.WireBytesSent.Load() + c.WireBytesRecv.Load(),
	}
	for _, sl := range r.slots {
		lc.stalls += sl.stream.WindowStalls.Load()
	}
	return lc
}

func (a linkCounts) minus(b linkCounts) linkCounts {
	return linkCounts{a.frames - b.frames, a.flushes - b.flushes, a.stalls - b.stalls, a.wire - b.wire}
}

func runServeStream(rc runConfig, tr *tracer) (*outcome, error) {
	return runServe(rc, tr, "serve_stream", serveSpec{
		sessions: runtime.GOMAXPROCS(0),
		ops:      rc.size.streamOps,
		oneWay:   true,
		start:    func(lg *ledger, _ string) (deployment, error) { return startMux(lg, nil) },
		after:    ladderAfter(false),
	})
}

// rpcProcs is the GOMAXPROCS a single-session RPC loop runs under. One
// session is one chain of goroutine hand-offs: with two Ps every hand-off
// may wake a parked thread, and on a virtual machine that wake costs
// nothing or tens of microseconds depending on the hypervisor's
// halt-polling state, which flips between runs of identical code (measured
// here: p50 12.5us in some runs, 19.6us in others). On one P the same
// hand-offs, syscalls and codec are paid without that lottery.
const rpcProcs = 1

func runServeRPC(rc runConfig, tr *tracer) (*outcome, error) {
	return runServe(rc, tr, "serve_rpc", serveSpec{
		sessions: 1,
		procs:    rpcProcs,
		ops:      rc.size.rpcOps,
		start:    func(lg *ledger, _ string) (deployment, error) { return startMux(lg, nil) },
		after:    ladderAfter(true),
	})
}
