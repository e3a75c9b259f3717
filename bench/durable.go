package main

import (
	"fmt"
	"path/filepath"
	"runtime"

	"slicehide/internal/hrt"
	"slicehide/internal/wal"
)

// serve_durable: reply-bearing calls against a server that journals every
// mutation and fsyncs before it replies, with group commit on. It runs
// 4 × nproc sessions on purpose: they spend their time blocked on the
// device, and concurrent blocked sessions are exactly what group commit
// exists to batch into one fsync.

func durableOptions(dir string) hrt.DurabilityOptions {
	return hrt.DurabilityOptions{Dir: dir, Fsync: true, CommitBytes: 1 << 20}
}

func runServeDurable(rc runConfig, tr *tracer) (*outcome, error) {
	return runServe(rc, tr, "serve_durable", serveSpec{
		sessions: 4 * runtime.GOMAXPROCS(0),
		ops:      rc.size.durableOps,
		start: func(lg *ledger, dir string) (deployment, error) {
			return startMux(lg, hrt.NewDurability(durableOptions(dir)))
		},
		after: durableAfter,
	})
}

func durableAfter(sv *served) error {
	dep := sv.run.dep.(*muxDeployment)
	metrics := dep.srv.reg.Snapshot()
	batches, records := dep.srv.tcp.Persist.CommitBatchStats()

	// Recovery check: shut the server down, open the same directory with a
	// fresh server and a fresh durability layer, and ask every session for
	// its accumulator. Exactly the acknowledged calls must be there.
	if err := dep.close(); err != nil {
		return fmt.Errorf("close durable server: %w", err)
	}
	reopened, err := startMux(sv.run.lg, hrt.NewDurability(durableOptions(sv.dir)))
	if err != nil {
		return fmt.Errorf("reopen data dir: %w", err)
	}
	defer reopened.close()
	got := reopened.srv.tcp.Server.Stats().Calls
	sv.out.check("reopened data dir recovers every acknowledged call", got == sv.run.calls,
		"recovered %d calls, %d were acknowledged", got, sv.run.calls)
	stateOK, detail := true, ""
	for _, c := range sv.run.last {
		a := c.args[c.next][:1]
		resp, err := reopened.mt.Exchange(hrt.Request{
			Op: hrt.OpCall, Fn: ledgerFn, Inst: c.inst, Frag: sv.run.lg.fragEval, Args: a,
			Session: c.session, Seq: uint64(c.reqs) + 1,
		})
		if want := c.model.eval(a[0].I); err != nil || resp.Err != "" || resp.Val.I != want {
			stateOK = false
			detail = fmt.Sprintf("session %d: err=%v resp.Err=%q value=%v want %d", c.session, err, resp.Err, resp.Val, want)
		}
	}
	sv.out.check("recovered hidden state equals the plain-Go model", stateOK, "%s", detail)

	if sv.tr == nil {
		return nil
	}
	m := sv.out.metrics
	appends := metrics.Counters["wal_appends_total"]
	m["wal.bytes_per_op"] = ratio(metrics.Counters["wal_append_bytes_total"], appends)
	m["wal.records_per_fsync"] = ratio(records, batches)

	// The journal alone, on the same directory, with records the size the
	// workload wrote: plain append, append + fsync, and 16 appends sharing
	// one fsync (the group-commit primitive).
	payload := make([]byte, max(int(m["wal.bytes_per_op"]), 16))
	batch16 := make([][]byte, 16)
	for i := range batch16 {
		batch16[i] = payload
	}
	reps := sv.rc.size.ladderReps
	for _, probe := range []struct {
		metric string
		fsync  bool
		n      int
		call   func(j *wal.Journal) error
	}{
		{"wal.append_ns", false, sv.rc.size.ladderBatch, func(j *wal.Journal) error { return j.Append(payload) }},
		{"wal.fsync_ns", true, 1, func(j *wal.Journal) error { return j.Append(payload) }},
		{"wal.fsync_batch16_ns", true, 1, func(j *wal.Journal) error { return j.AppendBatch(batch16) }},
	} {
		id := sv.tr.begin(probe.metric, sv.tr.rootID())
		j, err := wal.Open(filepath.Join(sv.dir, probe.metric+".wal"), 0, probe.fsync)
		if err != nil {
			return err
		}
		m[probe.metric], err = batchMedian(reps, probe.n, func(int) error { return probe.call(j) })
		j.Close()
		sv.tr.end(id)
		if err != nil {
			return err
		}
	}

	// The same sessions against an in-memory server: what is left of the
	// durable latency after it and one fsync is journal encode plus the
	// wait in the commit queue.
	id := sv.tr.begin("in-memory baseline", sv.tr.rootID())
	defer sv.tr.end(id)
	memDep, err := startMux(sv.run.lg, nil)
	if err != nil {
		return err
	}
	defer memDep.close()
	memP50, err := sv.baselineP50(memDep)
	if err != nil {
		return err
	}
	m["hrt.durable.self_ns"] = (sv.p50us-memP50)*1e3 - m["wal.fsync_ns"]
	return nil
}
