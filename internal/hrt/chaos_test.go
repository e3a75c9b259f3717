package hrt

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"slicehide/internal/core"
	"slicehide/internal/corpus"
	"slicehide/internal/interp"
	"slicehide/internal/ir"
	"slicehide/internal/slicer"
	"slicehide/internal/vm"
)

const chaosMaxSteps = 100_000_000

// chaosProgram is one corpus split program the chaos tests drive through
// injected faults.
type chaosProgram struct {
	name string
	res  *core.Result
}

// chaosCorpus compiles and splits every (non-excluded) workload kernel at
// a test-friendly size, plus a call-heavy local program so faults are
// guaranteed to fire even if kernels checkpoint rarely.
func chaosCorpus(t *testing.T) []chaosProgram {
	t.Helper()
	var progs []chaosProgram
	for _, k := range corpus.Kernels() {
		if k.Excluded {
			continue
		}
		size := k.Inputs[0].Size / 400
		if size < 10 {
			size = 10
		}
		prog, err := ir.Compile(k.Source(size))
		if err != nil {
			t.Fatalf("%s: compile: %v", k.Name, err)
		}
		res, err := core.SplitProgram(prog, k.Split, slicer.Policy{})
		if err != nil {
			t.Fatalf("%s: split: %v", k.Name, err)
		}
		progs = append(progs, chaosProgram{name: k.Name, res: res})
	}
	hot := split(t, `
func f(x: int, y: int): int {
    var a: int = x * 3 + y;
    var s: int = 0;
    var i: int = 0;
    while (i < a) {
        s = s + i * a;
        i = i + 1;
    }
    return s;
}
func main() {
    var total: int = 0;
    for (var n: int = 0; n < 40; n++) {
        total = total + f(n % 7, n % 5);
    }
    print(total);
}`, core.Spec{Func: "f", Seed: "a"})
	progs = append(progs, chaosProgram{name: "hotloop", res: hot})
	return progs
}

// TestChaosCorpusOverFaultyTCP is the acceptance test for the
// fault-tolerant link driven synchronously (one stream, every hidden call
// a blocking round trip): every corpus split program runs over real TCP
// through a fault-injecting proxy that severs the connection on a
// schedule and randomly drops, delays, and corrupts frames — and still
// produces output byte-identical to the unsplit interpreter run, with
// hidden state mutated exactly once per logical call (server-side
// execution counters equal client-side logical counters).
func TestChaosCorpusOverFaultyTCP(t *testing.T) {
	var totalInjected, totalRetries, totalReconnects int64
	for i, cp := range chaosCorpus(t) {
		cp := cp
		seed := int64(7 + i)
		t.Run(cp.name, func(t *testing.T) {
			want, _, err := RunOriginal(cp.res.Orig, chaosMaxSteps)
			if err != nil {
				t.Fatal(err)
			}
			server := NewServer(NewRegistry(cp.res))
			ts := &TCPServer{Server: server, ReadTimeout: 5 * time.Second, WriteTimeout: 5 * time.Second}
			addr, err := ts.ListenAndServe("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ts.Close()

			proxy := &FaultProxy{
				Backend: addr.String(),
				Script: ComposeScripts(
					SeverEvery(17),
					SeededScript(seed, FaultRates{
						DropRequest:  0.004,
						DropResponse: 0.004,
						Delay:        0.01,
						Corrupt:      0.003,
					}),
				),
				Delay: 500 * time.Microsecond,
			}
			paddr, err := proxy.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer proxy.Close()

			counters := &Counters{}
			tr := dialStream(t, MuxConfig{
				Addr:    paddr.String(),
				Timeout: 250 * time.Millisecond,
				Policy: RetryPolicy{
					Retries:     40,
					BackoffBase: time.Millisecond,
					BackoffMax:  8 * time.Millisecond,
					JitterSeed:  seed,
				},
			}, 0, counters)

			var b strings.Builder
			in := vm.NewMachine(cp.res.Open, interp.Options{
				Out:        &b,
				MaxSteps:   chaosMaxSteps,
				Hidden:     &Session{T: &Counting{Inner: tr, Counters: counters}},
				SplitFuncs: cp.res.SplitSet(),
			})
			if err := in.Run(); err != nil {
				t.Fatalf("split run under faults: %v", err)
			}
			if b.String() != want {
				t.Fatalf("output diverged under faults:\n got %q\nwant %q", b.String(), want)
			}
			// Exactly-once: the server must have executed each logical
			// operation precisely one time, regardless of how many
			// retransmissions the faults forced.
			stats := server.Stats()
			if stats.Calls != counters.Calls.Load() ||
				stats.Enters != counters.Enters.Load() ||
				stats.Exits != counters.Exits.Load() {
				t.Errorf("hidden state not mutated exactly once: server %+v, client calls=%d enters=%d exits=%d (retries=%d)",
					stats, counters.Calls.Load(), counters.Enters.Load(), counters.Exits.Load(), counters.Retries.Load())
			}
			totalInjected += proxy.TotalInjected()
			totalRetries += counters.Retries.Load()
			totalReconnects += counters.Reconnects.Load()
		})
	}
	if totalInjected == 0 {
		t.Error("fault injector never fired; the chaos test is vacuous")
	}
	if totalRetries == 0 || totalReconnects == 0 {
		t.Errorf("expected fault recoveries across the corpus: retries=%d reconnects=%d", totalRetries, totalReconnects)
	}
}

// TestChaosCorpusPipelinedOverFaultyTCP repeats the chaos acceptance test
// with the stream driven one-way: reply-free frames stream through the same
// fault-injecting proxy (drops now create server-side sequence gaps, the
// case the resend protocol exists for) and every split program must still
// produce byte-identical output with hidden state mutated exactly once.
func TestChaosCorpusPipelinedOverFaultyTCP(t *testing.T) {
	var totalInjected, totalRetries, totalOneWay int64
	for i, cp := range chaosCorpus(t) {
		cp := cp
		seed := int64(101 + i)
		t.Run(cp.name, func(t *testing.T) {
			want, _, err := RunOriginal(cp.res.Orig, chaosMaxSteps)
			if err != nil {
				t.Fatal(err)
			}
			server := NewServer(NewRegistry(cp.res))
			ts := &TCPServer{Server: server, ReadTimeout: 5 * time.Second, WriteTimeout: 5 * time.Second}
			addr, err := ts.ListenAndServe("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ts.Close()

			proxy := &FaultProxy{
				Backend: addr.String(),
				Script: ComposeScripts(
					SeverEvery(23),
					SeededScript(seed, FaultRates{
						DropRequest:  0.004,
						DropResponse: 0.004,
						Delay:        0.01,
						Corrupt:      0.003,
					}),
				),
				Delay: 500 * time.Microsecond,
			}
			paddr, err := proxy.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer proxy.Close()

			counters := &Counters{}
			tr := dialStream(t, MuxConfig{
				Addr:    paddr.String(),
				Timeout: 250 * time.Millisecond,
				Policy: RetryPolicy{
					Retries:     40,
					BackoffBase: time.Millisecond,
					BackoffMax:  8 * time.Millisecond,
					JitterSeed:  seed,
				},
				Window: 32,
			}, 0, counters)

			as := NewAsyncSession(&Counting{Inner: tr, Counters: counters})
			if as == nil {
				t.Fatal("stream not async-capable")
			}
			var b strings.Builder
			in := vm.NewMachine(cp.res.Open, interp.Options{
				Out:        &b,
				MaxSteps:   chaosMaxSteps,
				Hidden:     as,
				SplitFuncs: cp.res.SplitSet(),
			})
			if err := in.Run(); err != nil {
				t.Fatalf("pipelined run under faults: %v", err)
			}
			if b.String() != want {
				t.Fatalf("output diverged under faults:\n got %q\nwant %q", b.String(), want)
			}
			stats := server.Stats()
			if stats.Calls != counters.Calls.Load() ||
				stats.Enters != counters.Enters.Load() ||
				stats.Exits != counters.Exits.Load() {
				t.Errorf("hidden state not mutated exactly once: server %+v, client calls=%d enters=%d exits=%d (retries=%d)",
					stats, counters.Calls.Load(), counters.Enters.Load(), counters.Exits.Load(), counters.Retries.Load())
			}
			totalInjected += proxy.TotalInjected()
			totalRetries += counters.Retries.Load()
			totalOneWay += counters.OneWay.Load()
		})
	}
	if totalInjected == 0 {
		t.Error("fault injector never fired; the chaos test is vacuous")
	}
	if totalRetries == 0 {
		t.Errorf("expected fault recoveries across the corpus: retries=%d", totalRetries)
	}
	if totalOneWay == 0 {
		t.Error("no requests went one-way; the pipelined chaos test degenerated to sync")
	}
}

// TestChaosCorpusMuxedOverFaultyTCP repeats the chaos acceptance test with
// many streams: eight interleaved sessions share one muxed
// connection through the fault-injecting proxy, so every injected fault —
// a dropped frame of one session, a severed shared connection that takes
// all eight down at once — is recovered per session. Each session must
// still produce byte-identical output and the server must have executed
// every logical operation across all sessions exactly once.
func TestChaosCorpusMuxedOverFaultyTCP(t *testing.T) {
	const streams = 8
	var totalInjected, totalRetries, totalReconnects int64
	for i, cp := range chaosCorpus(t) {
		cp := cp
		seed := int64(211 + i)
		t.Run(cp.name, func(t *testing.T) {
			want, _, err := RunOriginal(cp.res.Orig, chaosMaxSteps)
			if err != nil {
				t.Fatal(err)
			}
			server := NewServer(NewRegistry(cp.res))
			ts := &TCPServer{Server: server, ReadTimeout: 5 * time.Second, WriteTimeout: 5 * time.Second}
			addr, err := ts.ListenAndServe("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ts.Close()

			// The trip counter ticks for every frame of every session in both
			// directions, so the sever period is per connection, not per
			// stream: 509 trips is a sever roughly every ~30 frames of each
			// of the 8 streams — comparable to the single-stream tests —
			// while leaving room for the post-reconnect replay burst (all
			// eight windows at once) to complete between severs.
			proxy := &FaultProxy{
				Backend: addr.String(),
				Script: ComposeScripts(
					SeverEvery(509),
					SeededScript(seed, FaultRates{
						DropRequest:  0.002,
						DropResponse: 0.002,
						Delay:        0.01,
						Corrupt:      0.001,
					}),
				),
				Delay: 500 * time.Microsecond,
			}
			paddr, err := proxy.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer proxy.Close()

			connCounters := &Counters{}
			mt, err := DialMux(MuxConfig{
				Addr:    paddr.String(),
				Timeout: 250 * time.Millisecond,
				Policy: RetryPolicy{
					Retries:     60,
					BackoffBase: time.Millisecond,
					BackoffMax:  8 * time.Millisecond,
					JitterSeed:  seed,
				},
				Window:   16,
				Counters: connCounters,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer mt.Close()

			outputs := make([]string, streams)
			counters := make([]*Counters, streams)
			errs := make(chan error, streams)
			var wg sync.WaitGroup
			for s := 0; s < streams; s++ {
				counters[s] = &Counters{}
				stream := mt.Stream(0, counters[s])
				wg.Add(1)
				go func(s int, stream *MuxStream) {
					defer wg.Done()
					as := NewAsyncSession(&Counting{Inner: stream, Counters: counters[s]})
					if as == nil {
						errs <- errNotAsync
						return
					}
					var b strings.Builder
					in := vm.NewMachine(cp.res.Open, interp.Options{
						Out:        &b,
						MaxSteps:   chaosMaxSteps,
						Hidden:     as,
						SplitFuncs: cp.res.SplitSet(),
					})
					if err := in.Run(); err != nil {
						errs <- fmt.Errorf("stream %d under faults: %w", s, err)
						return
					}
					outputs[s] = b.String()
				}(s, stream)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			for s, out := range outputs {
				if out != want {
					t.Fatalf("stream %d output diverged under faults:\n got %q\nwant %q", s, out, want)
				}
			}
			// Exactly-once across every interleaved session: the server-side
			// execution gauges must equal the summed client-side logical
			// counts, no matter how many resends the faults forced.
			var calls, enters, exits, retries int64
			for _, c := range counters {
				calls += c.Calls.Load()
				enters += c.Enters.Load()
				exits += c.Exits.Load()
				retries += c.Retries.Load()
			}
			stats := server.Stats()
			if stats.Calls != calls || stats.Enters != enters || stats.Exits != exits {
				t.Errorf("hidden state not mutated exactly once: server %+v, clients calls=%d enters=%d exits=%d (retries=%d)",
					stats, calls, enters, exits, retries)
			}
			totalInjected += proxy.TotalInjected()
			totalRetries += retries + connCounters.Retries.Load()
			totalReconnects += connCounters.Reconnects.Load()
		})
	}
	if totalInjected == 0 {
		t.Error("fault injector never fired; the mux chaos test is vacuous")
	}
	if totalRetries == 0 || totalReconnects == 0 {
		t.Errorf("expected fault recoveries across the corpus: retries=%d reconnects=%d", totalRetries, totalReconnects)
	}
}

// TestExactlyOnceInProcess exercises the Retry/Dedup pair without a
// network: an in-process fault transport loses responses after execution
// (the replay hazard) and the replay cache must absorb every retry.
func TestExactlyOnceInProcess(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	want, _, err := RunOriginal(res.Orig, chaosMaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(NewRegistry(res))
	dedup := &Dedup{Inner: &Local{Server: server}}
	fault := &FaultTransport{
		Inner: dedup,
		Script: ComposeScripts(
			func(trip int) FaultKind {
				if trip%5 == 4 {
					return FaultDropResponse
				}
				return FaultNone
			},
			SeededScript(11, FaultRates{DropRequest: 0.1, Sever: 0.05}),
		),
	}
	counters := &Counters{}
	retry := &Retry{
		Inner:    fault,
		Policy:   RetryPolicy{Retries: 20, Sleep: func(time.Duration) {}},
		Counters: counters,
	}
	var b strings.Builder
	in := vm.NewMachine(res.Open, interp.Options{
		Out:        &b,
		MaxSteps:   chaosMaxSteps,
		Hidden:     &Session{T: &Counting{Inner: retry, Counters: counters}},
		SplitFuncs: res.SplitSet(),
	})
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Fatalf("output %q, want %q", b.String(), want)
	}
	if fault.Injected.Load() == 0 || counters.Retries.Load() == 0 {
		t.Fatalf("faults did not fire: injected=%d retries=%d", fault.Injected.Load(), counters.Retries.Load())
	}
	stats := server.Stats()
	if stats.Calls != counters.Calls.Load() || stats.Enters != counters.Enters.Load() || stats.Exits != counters.Exits.Load() {
		t.Errorf("exactly-once violated: server %+v, client calls=%d enters=%d exits=%d",
			stats, counters.Calls.Load(), counters.Enters.Load(), counters.Exits.Load())
	}
	if dedup.Replays.Load() == 0 {
		t.Error("replay cache never answered a retry")
	}
}

// TestDedupReplaySemantics pins the cache behavior directly: same seq is
// answered from cache, older seqs are rejected as stale. (Unstamped
// requests never reach the cache: the mux connection refuses them, see
// TestMuxConnectionRejectsUnstampedRequests.)
func TestDedupReplaySemantics(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	server := NewServer(NewRegistry(res))
	dedup := &Dedup{Inner: &Local{Server: server}}

	req := Request{Op: OpEnter, Fn: "f", Session: 99, Seq: 1}
	first, err := dedup.RoundTrip(req)
	if err != nil || first.Err != "" {
		t.Fatalf("enter: %v %q", err, first.Err)
	}
	replay, err := dedup.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Inst != first.Inst {
		t.Errorf("replay created a second activation: %d vs %d", replay.Inst, first.Inst)
	}
	if server.Stats().Enters != 1 {
		t.Errorf("server executed Enter %d times", server.Stats().Enters)
	}
	if dedup.Replays.Load() != 1 {
		t.Errorf("replays=%d", dedup.Replays.Load())
	}

	if _, err := dedup.RoundTrip(Request{Op: OpExit, Fn: "f", Inst: first.Inst, Session: 99, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	stale, err := dedup.RoundTrip(Request{Op: OpEnter, Fn: "f", Session: 99, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stale.Err == "" {
		t.Error("stale sequence must be rejected")
	}
}

// TestDedupEviction bounds the replay cache.
func TestDedupEviction(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	dedup := &Dedup{Inner: &Local{Server: NewServer(NewRegistry(res))}, MaxSessions: 4}
	for s := uint64(1); s <= 10; s++ {
		if _, err := dedup.RoundTrip(Request{Op: OpEnter, Fn: "f", Session: s, Seq: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := dedup.Sessions(); got > 4 {
		t.Errorf("cache holds %d sessions, cap is 4", got)
	}
}

// TestRetryTerminalErrors pins the error classification: server-reported
// errors surface through Response.Err without retries, and Terminal
// transport errors stop the retry loop immediately.
func TestRetryTerminalErrors(t *testing.T) {
	attempts := 0
	tr := &Retry{
		Inner: roundTripFunc(func(req Request) (Response, error) {
			attempts++
			return Response{}, Terminal(fmt.Errorf("bad config"))
		}),
		Policy: RetryPolicy{Retries: 5, Sleep: func(time.Duration) {}},
	}
	if _, err := tr.RoundTrip(Request{Op: OpEnter, Fn: "f"}); err == nil {
		t.Fatal("expected error")
	}
	if attempts != 1 {
		t.Errorf("terminal error retried %d times", attempts-1)
	}

	attempts = 0
	tr = &Retry{
		Inner: roundTripFunc(func(req Request) (Response, error) {
			attempts++
			return Response{}, fmt.Errorf("flaky")
		}),
		Policy: RetryPolicy{Retries: 3, Sleep: func(time.Duration) {}},
	}
	if _, err := tr.RoundTrip(Request{Op: OpEnter, Fn: "f"}); err == nil {
		t.Fatal("expected exhaustion error")
	}
	if attempts != 4 {
		t.Errorf("retryable error attempted %d times, want 4", attempts)
	}
}

// TestRetryStampsRequests verifies the (session, seq) stamping contract:
// fresh seq per logical round trip, identical stamp across retries.
func TestRetryStampsRequests(t *testing.T) {
	var stamps []Request
	fail := true
	tr := &Retry{
		Session: 42,
		Inner: roundTripFunc(func(req Request) (Response, error) {
			stamps = append(stamps, req)
			if fail {
				fail = false
				return Response{}, fmt.Errorf("drop")
			}
			return Response{}, nil
		}),
		Policy: RetryPolicy{Retries: 2, Sleep: func(time.Duration) {}},
	}
	if _, err := tr.RoundTrip(Request{Op: OpEnter, Fn: "f"}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RoundTrip(Request{Op: OpExit, Fn: "f"}); err != nil {
		t.Fatal(err)
	}
	if len(stamps) != 3 {
		t.Fatalf("attempts: %d", len(stamps))
	}
	if stamps[0].Session != 42 || stamps[0].Seq != 1 || stamps[1].Seq != 1 {
		t.Errorf("retry changed the stamp: %+v %+v", stamps[0], stamps[1])
	}
	if stamps[2].Seq != 2 {
		t.Errorf("second round trip seq = %d, want 2", stamps[2].Seq)
	}
}

// roundTripFunc adapts a function to the Transport interface.
type roundTripFunc func(Request) (Response, error)

func (f roundTripFunc) RoundTrip(req Request) (Response, error) { return f(req) }
