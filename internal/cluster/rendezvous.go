// Package cluster turns independent hiddend replicas into a fleet: a
// primary/follower group per session. Sessions are placed onto replicas
// with rendezvous (highest-random-weight) hashing over the live member
// set, the owning primary streams its WAL records to the other replicas
// after each mutating request, and when a primary dies the client's
// MuxPool re-homes the session onto the promoted follower — which has
// replayed the streamed journal into its own stores and answers retried
// (session, seq) stamps from the replicated dedup cache, so the handover
// preserves exactly-once execution.
package cluster

import (
	"hash/fnv"
	"sort"
	"strings"
)

// ParsePeers parses a comma-separated membership list, the syntax of the
// -peers and -cluster flags. Spaces around addresses and blank entries are
// dropped.
func ParsePeers(list string) []string {
	var peers []string
	for _, p := range strings.Split(list, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

// mix64 is the splitmix64 finalizer — the same full-avalanche mixer the
// hidden server uses to stripe sessions across shards, reused here so
// consecutive session ids spread independently across replicas.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// score is the rendezvous weight of (session, replica): each replica
// hashes independently, so removing one replica never moves a session
// between the survivors — only the dead replica's sessions re-home.
func score(session uint64, replica string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(replica))
	return mix64(h.Sum64() ^ mix64(session))
}

// Rank orders replicas by descending rendezvous weight for session:
// Rank[0] is the session's owner, Rank[1] its first failover target, and
// so on. Ties (only possible with duplicate addresses) break by address
// so the order is total and identical on every node. The input slice is
// not modified.
func Rank(session uint64, replicas []string) []string {
	out := append([]string(nil), replicas...)
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := score(session, out[i]), score(session, out[j])
		if si != sj {
			return si > sj
		}
		return out[i] < out[j]
	})
	return out
}

// Owner returns the replica that owns session — the highest-weight member
// — or "" when the replica set is empty.
func Owner(session uint64, replicas []string) string {
	if len(replicas) == 0 {
		return ""
	}
	best := replicas[0]
	bestScore := score(session, best)
	for _, r := range replicas[1:] {
		if s := score(session, r); s > bestScore || (s == bestScore && r < best) {
			best, bestScore = r, s
		}
	}
	return best
}
