package hrt

import "errors"

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
	return ts.dedup != nil && stateEmpty(ts.Server, ts.dedup)
}

func stateEmpty(s *Server, d *Dedup) bool {
	st := s.Stats()
	return st.Enters == 0 && st.Exits == 0 && st.Calls == 0 && d.Sessions() == 0
}

// ImportCatchupSnapshot installs a snapshot streamed by a fleet peer as
// this replica's state base (see Durability.AdoptSnapshot): on disk first,
// then in the live server and the dedup replay cache, through the
// importSnapshot/program-hash refusal path recovery uses, so the adopted
// state survives this replica's restarts and a failed adoption leaves the
// replica empty.
func (ts *TCPServer) ImportCatchupSnapshot(payload []byte) error {
	if ts.dedup == nil {
		return errors.New("hrt: server is not serving")
	}
	if ts.Persist == nil {
		return errors.New("hrt: snapshot import requires a durable server")
	}
	return ts.Persist.AdoptSnapshot(payload)
}
