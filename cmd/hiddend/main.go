// Command hiddend is the hidden-component server: the process that runs on
// the secure machine (or device) in the paper's deployment. It loads a
// MiniJ program, performs the same splitting transformation as the open
// side, keeps only the hidden components, and serves fragment executions
// over TCP.
//
// Usage:
//
//	hiddend -listen :7070 -split f[:seed][,g[:seed]...] [-admin :8081] [-data-dir dir [-peers addr,...]] program.mj
//
// The open side connects with:
//
//	slicehide run -split f[:seed] -server host:7070 program.mj
//
// With -data-dir, hidden session state is journaled (and periodically
// snapshotted) to that directory and recovered from it on startup, so a
// crashed or killed hiddend resumes live sessions with exactly-once
// semantics intact; -fsync extends durability to power loss. On
// SIGTERM/SIGINT the server drains in-flight connections (bounded by
// -drain-timeout) before shutting down.
//
// With -peers, N hiddend processes serve as one replicating fleet
// (rendezvous session placement, full-mesh journal streaming,
// semi-synchronous commits, client-driven failover); every fleet
// replicates, so -peers and -join require -data-dir. The fleet is
// elastic: -join seed-addr starts this replica as a new member of a
// running fleet instead of a founder — membership is
// epoch-versioned, gossiped over liveness probes, and persisted in
// -data-dir — and a joiner that missed pruned history is caught up via
// a chunked, resumable snapshot transfer. The admin endpoint's POST
// /join and /leave mutate membership under operator control, and
// /readyz reports 503 until this replica has genuinely converged.
//
// When -admin is set, an HTTP observability endpoint serves /healthz
// (liveness), /metrics (counters, gauges, and latency histograms as
// JSON), /trace (recent redacted runtime events), and /debug/pprof/.
// Bind it to a trusted interface only: it reports operational state of
// the secure side. Trace events never contain hidden values — argument
// and result payloads are redacted before they are recorded.
//
// The daemon lifecycle lives in internal/daemon so tests (including the
// process-kill chaos harness) can drive the exact code path this binary
// runs.
package main

import (
	"os"

	"slicehide/internal/daemon"
)

func main() {
	os.Exit(daemon.Main(os.Args[1:], os.Stdout, os.Stderr))
}
