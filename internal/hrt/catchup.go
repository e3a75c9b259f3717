package hrt

import (
	"errors"
	"fmt"
)

// Snapshot catch-up import: the receiving half of the cluster's snapshot
// transfer. A cold joiner whose resume position predates the sender's
// journal retention cannot be caught up by record streaming alone; the
// sender ships its newest snapshot instead, and the joiner imports it here
// as its own state base.

// ErrNotEmpty reports that a snapshot import was refused because this
// replica already holds state (an earlier import, or applied records).
var ErrNotEmpty = errors.New("hrt: replica state is not empty")

// StateEmpty reports whether this replica holds no hidden state at all:
// zero execution tallies and an empty replay cache. Only an empty replica
// may import a catch-up snapshot — importSnapshot overwrites rather than
// merges, so importing over applied records would lose them.
func (ts *TCPServer) StateEmpty() bool {
	if ts.dedup == nil {
		return false
	}
	st := ts.Server.Stats()
	return st.Enters == 0 && st.Exits == 0 && st.Calls == 0 && ts.dedup.Sessions() == 0
}

// ImportCatchupSnapshot installs a snapshot streamed by a fleet peer: the
// payload is imported into the live server and the dedup replay cache
// through the same importSnapshot/program-hash refusal path recovery uses,
// and re-journaled as this replica's own durable base (Durability.
// AdoptSnapshot), so the adopted state survives this replica's restarts.
// The whole import runs under the quiesce write hold, which also excludes
// every record apply (ApplyReplicated holds the read side while it
// applies), with the emptiness precondition re-checked inside it — a
// record another sender applied between the caller's check and the hold
// would otherwise be clobbered.
func (ts *TCPServer) ImportCatchupSnapshot(payload []byte) error {
	if ts.dedup == nil {
		return errors.New("hrt: server is not serving")
	}
	if ts.Persist == nil {
		return errors.New("hrt: snapshot import requires a durable server")
	}
	p := ts.Persist
	p.quiesce.Lock()
	defer p.quiesce.Unlock()
	if !ts.StateEmpty() {
		return ErrNotEmpty
	}
	if err := importSnapshot(ts.Server, ts.dedup, payload); err != nil {
		return fmt.Errorf("hrt: catch-up snapshot: %w", err)
	}
	return p.AdoptSnapshot(payload)
}
