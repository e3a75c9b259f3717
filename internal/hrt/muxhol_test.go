package hrt

import (
	"strings"
	"sync"
	"testing"
	"time"

	"slicehide/internal/core"
	"slicehide/internal/interp"
	"slicehide/internal/obs"
	"slicehide/internal/vm"
)

// Head-of-line isolation referee (ROADMAP item 4 follow-on): one
// deliberately slow consumer among 8 sessions sharing a mux connection
// must not drag the other sessions' blocking latency up with it. The
// slow session drives a hidden while loop that turns into a ~60k-call
// pipelined firehose; the per-session server workers and windowed
// demux are what keep the fast sessions' round trips flowing between
// its frames.

const holSrc = `
func f(x: int): int {
    var a: int = x;
    a = a + 100;
    return a;
}
func g(n: int): int {
    var b: int = n;
    var t: int = 0;
    var j: int = 0;
    while (j < b) {
        t = t + j;
        j = j + 1;
    }
    return t;
}
func main() {
    print(f(1));
    print(g(60000));
}
`

func TestMuxHeadOfLineIsolation(t *testing.T) {
	res := split(t, holSrc, core.Spec{Func: "f", Seed: "a"}, core.Spec{Func: "g", Seed: "b"})

	// f's init/fetch fragments, for the fast sessions' raw round trips.
	comp := res.Splits["f"].Hidden
	initFrag, fetchFrag := -1, -1
	for _, id := range comp.FragIDs() {
		fr := comp.Frags[id]
		if fr.Kind == core.FragExec && initFrag < 0 {
			initFrag = id
		}
		if fr.Kind == core.FragFetch {
			fetchFrag = id
		}
	}
	if initFrag < 0 || fetchFrag < 0 {
		t.Fatalf("fragments not found:\n%s", comp)
	}

	ts := &TCPServer{Server: NewServer(NewRegistry(res))}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	mt, err := DialMux(MuxConfig{Addr: addr.String(), Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()

	// The slow consumer: the full open program (ending in the g loop)
	// over its own stream on the shared connection.
	slowDone := make(chan struct{})
	var slowErr error
	var slowDur time.Duration
	slowStream := mt.Stream(0, &Counters{})
	go func() {
		defer close(slowDone)
		as := NewAsyncSession(&Counting{Inner: slowStream, Counters: &Counters{}})
		var b strings.Builder
		start := time.Now()
		in := vm.NewMachine(res.Open, interp.Options{
			Out:        &b,
			MaxSteps:   chaosMaxSteps,
			Hidden:     as,
			SplitFuncs: res.SplitSet(),
		})
		slowErr = in.Run()
		slowDur = time.Since(start)
	}()

	// Seven fast sessions hammer f with blocking round trips for as long
	// as the slow consumer runs, recording every latency.
	const fast = 7
	blocking := &obs.Histogram{}
	ops := make([]int, fast)
	errs := make([]error, fast)
	var wg sync.WaitGroup
	for i := 0; i < fast; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := mt.Stream(0, &Counters{})
			sid := s.Session()
			seq := uint64(1)
			resp, err := s.RoundTrip(Request{Op: OpEnter, Session: sid, Seq: seq, Fn: "f"})
			if err != nil {
				errs[i] = err
				return
			}
			inst := resp.Inst
			for {
				select {
				case <-slowDone:
					return
				default:
				}
				seq++
				start := time.Now()
				_, err := s.RoundTrip(Request{Op: OpCall, Session: sid, Seq: seq, Fn: "f", Inst: inst,
					Frag: initFrag, Args: []interp.Value{interp.IntV(int64(seq))}})
				if err == nil {
					seq++
					_, err = s.RoundTrip(Request{Op: OpCall, Session: sid, Seq: seq, Fn: "f", Inst: inst, Frag: fetchFrag})
				}
				blocking.Observe(time.Since(start))
				if err != nil {
					errs[i] = err
					return
				}
				ops[i]++
			}
		}(i)
	}
	wg.Wait()
	<-slowDone
	if slowErr != nil {
		t.Fatalf("slow consumer: %v", slowErr)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fast session %d: %v", i, err)
		}
	}

	snap := blocking.Snapshot()
	for i, n := range ops {
		if n == 0 {
			t.Errorf("fast session %d completed no round trips while the slow consumer ran", i)
		}
	}
	// The isolation bound: if a fast exchange could get stuck behind the
	// slow session's queued frames, its latency would approach the slow
	// run's remaining duration. Demand p99 stays far below that (with an
	// absolute floor so a fast machine does not tighten the bound into
	// scheduler noise).
	bound := slowDur / 5
	if floor := 100 * time.Millisecond; bound < floor {
		bound = floor
	}
	if snap.P99Ns >= int64(bound) {
		t.Errorf("fast sessions' blocking p99 = %v over a slow run of %v (bound %v, count %d)",
			time.Duration(snap.P99Ns), slowDur, bound, snap.Count)
	}
	t.Logf("slow run %v; fast sessions: %d ops, blocking p50 %v p99 %v p99.9 %v",
		slowDur, snap.Count, time.Duration(snap.P50Ns), time.Duration(snap.P99Ns), time.Duration(snap.P999Ns))
}
