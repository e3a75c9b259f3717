package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"slicehide/internal/hrt"
	"slicehide/internal/interp"
)

// The serve ladder: one goroutine sends the same seeded request stream
// through successively taller stacks, each measured from outside by timing
// calls into its public entry point. A rung's self time is the rung minus
// the rung below, so the rungs add up to the top one — one multiplexed RPC
// — and say where its microseconds go:
//
//	hrt.server.call_ns      Server.CallSession: stripe memo + VM exec
//	hrt.local.roundtrip_ns  + Local transport dispatch
//	hrt.dedup.roundtrip_ns  + exactly-once replay cache
//	hrt.wire.*_ns           the four codec halves one RPC pays
//	hrt.mux.rpc_ns          one reply-bearing call over loopback TCP
//	hrt.mux.self_ns         rpc − dedup rung − codec: sockets, the
//	                        writer goroutine, demux and wake-ups

// batchMedian times reps batches of n calls and returns the median
// nanoseconds per call: a 50ns call cannot be timed one at a time.
func batchMedian(reps, n int, call func(i int) error) (float64, error) {
	per := make([]float64, 0, reps)
	k := 0
	for r := 0; r < reps; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := call(k); err != nil {
				return 0, err
			}
			k++
		}
		per = append(per, float64(time.Since(start))/float64(n))
	}
	return median(per), nil
}

// runLadder measures every rung and returns them by metric name.
func runLadder(rc runConfig, tr *tracer, lg *ledger) (map[string]float64, error) {
	m := map[string]float64{}
	args := newSlot(rand.New(rand.NewSource(rc.seed)), 0, nil).args
	reps, n := rc.size.ladderReps, rc.size.ladderBatch
	rung := func(name string, f func() error) error {
		id := tr.begin(name, tr.rootID())
		defer tr.end(id)
		return f()
	}

	const session = 0x5eed
	srv := hrt.NewServer(hrt.NewRegistry(lg.res))
	inst, err := srv.EnterSession(session, ledgerFn, 0, 0)
	if err != nil {
		return nil, err
	}
	err = rung("hrt.server.call", func() error {
		m["hrt.server.call_ns"], err = batchMedian(reps, n, func(i int) error {
			_, err := srv.CallSession(session, ledgerFn, inst, lg.fragMix, args[i%argCycle])
			return err
		})
		return err
	})
	if err != nil {
		return nil, err
	}

	local := &hrt.Local{Server: srv}
	request := func(i int) hrt.Request {
		return hrt.Request{Op: hrt.OpCall, Fn: ledgerFn, Inst: inst, Frag: lg.fragMix, Args: args[i%argCycle], Session: session}
	}
	respErr := func(resp hrt.Response, err error) error {
		if err == nil && resp.Err != "" {
			err = fmt.Errorf("hidden side: %s", resp.Err)
		}
		return err
	}
	err = rung("hrt.local.roundtrip", func() error {
		m["hrt.local.roundtrip_ns"], err = batchMedian(reps, n, func(i int) error {
			return respErr(local.RoundTrip(request(i)))
		})
		return err
	})
	if err != nil {
		return nil, err
	}

	// The replay cache needs stamped requests: sequence numbers from 1.
	dedup := &hrt.Dedup{Inner: local, Shards: runtime.GOMAXPROCS(0)}
	seq := uint64(0)
	err = rung("hrt.dedup.roundtrip", func() error {
		m["hrt.dedup.roundtrip_ns"], err = batchMedian(reps, n, func(i int) error {
			req := request(i)
			seq++
			req.Seq = seq
			return respErr(dedup.RoundTrip(req))
		})
		return err
	})
	if err != nil {
		return nil, err
	}

	// Codec: a request as the mux client stamps it, and the reply frame the
	// server's mux writer sends back.
	req := request(0)
	req.Seq = 1 << 20
	resp := hrt.Response{Val: interp.NullV(), Seq: req.Seq, Ack: req.Seq}
	var reqBuf, respBuf bytes.Buffer
	if err := hrt.WriteRequest(&reqBuf, req); err != nil {
		return nil, err
	}
	if err := hrt.WriteMuxFrame(&respBuf, session, resp); err != nil {
		return nil, err
	}
	m["hrt.wire.req_bytes"] = float64(reqBuf.Len())
	m["hrt.wire.resp_bytes"] = float64(respBuf.Len())
	reqWire, respWire := bytes.Clone(reqBuf.Bytes()), bytes.Clone(respBuf.Bytes())
	var rd bytes.Reader
	codec := []struct {
		name string
		call func(int) error
	}{
		{"hrt.wire.req_encode", func(int) error { reqBuf.Reset(); return hrt.WriteRequest(&reqBuf, req) }},
		{"hrt.wire.req_decode", func(int) error { rd.Reset(reqWire); _, err := hrt.ReadRequest(&rd); return err }},
		{"hrt.wire.resp_encode", func(int) error { respBuf.Reset(); return hrt.WriteMuxFrame(&respBuf, session, resp) }},
		{"hrt.wire.resp_decode", func(int) error { rd.Reset(respWire); _, _, err := hrt.ReadMuxFrame(&rd); return err }},
	}
	codecNs := 0.0
	for _, c := range codec {
		err = rung(c.name, func() error {
			m[c.name+"_ns"], err = batchMedian(reps, n, c.call)
			return err
		})
		if err != nil {
			return nil, err
		}
		codecNs += m[c.name+"_ns"]
	}

	// Top rung: one session, reply-bearing calls over a real loopback
	// connection, each timed on its own.
	dep, err := startMux(lg, nil)
	if err != nil {
		return nil, err
	}
	defer dep.close()
	err = rung("hrt.mux.rpc", func() error {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(rpcProcs))
		top := newServeRun(lg, dep, serveSpec{sessions: 1}, rc.seed, reps*n, nil)
		if _, err := top.round(n, nil); err != nil { // warm the connection
			return err
		}
		top.slots[0].rec.ns = top.slots[0].rec.ns[:0]
		if _, err := top.round(reps*n/8, nil); err != nil {
			return err
		}
		m["hrt.mux.rpc_ns"] = quantileSorted(top.latencies(), 0.5) * 1e3
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["hrt.mux.self_ns"] = m["hrt.mux.rpc_ns"] - m["hrt.dedup.roundtrip_ns"] - codecNs
	return m, nil
}

// ladderAfter runs the ladder in a traced run. With closure set it also
// reports how far the ladder's top rung lands from the workload's own
// median RPC latency: the rungs sum to the top rung by construction, so
// this is the ledger's closure error.
func ladderAfter(closure bool) func(sv *served) error {
	return func(sv *served) error {
		if sv.tr == nil {
			return nil
		}
		m, err := runLadder(sv.rc, sv.tr, sv.run.lg)
		if err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
		for k, v := range m {
			sv.out.metrics[k] = v
		}
		if closure {
			e2e := sv.p50us * 1e3
			sv.out.metrics["ledger.closure_pct"] = 100 * (m["hrt.mux.rpc_ns"] - e2e) / e2e
		}
		return nil
	}
}
