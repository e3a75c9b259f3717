package cluster

import (
	"fmt"
	"slices"
	"testing"
)

// TestParsePeers pins the membership list syntax of -peers and -cluster.
func TestParsePeers(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"", nil},
		{" , ", nil},
		{"a:1", []string{"a:1"}},
		{" a:1 ,b:2,, c:3 ", []string{"a:1", "b:2", "c:3"}},
	} {
		if got := ParsePeers(tc.in); !slices.Equal(got, tc.want) {
			t.Errorf("ParsePeers(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func replicaSet(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("10.0.0.%d:7070", i+1)
	}
	return out
}

// Placement must be near-uniform: with rendezvous hashing over a good
// mixer, each of N replicas should own about 1/N of the sessions. The
// fleet's capacity planning (and the chaos harness's "busiest backend"
// choice) assumes no replica is a hot spot.
func TestRendezvousDistribution(t *testing.T) {
	const sessions = 40000
	for n := 3; n <= 16; n++ {
		replicas := replicaSet(n)
		counts := make(map[string]int, n)
		for s := uint64(1); s <= sessions; s++ {
			counts[Owner(s, replicas)]++
		}
		want := float64(sessions) / float64(n)
		for _, r := range replicas {
			got := float64(counts[r])
			skew := (got - want) / want
			if skew < -0.10 || skew > 0.10 {
				t.Errorf("n=%d replica %s owns %.0f sessions, want %.0f ±10%% (skew %+.1f%%)",
					n, r, got, want, skew*100)
			}
		}
	}
}

// Removing one replica must re-home only the sessions it owned: every
// session owned by a survivor keeps its owner. This is the property that
// makes failover surgical — a death never shuffles unrelated sessions
// between healthy replicas.
func TestRendezvousStabilityUnderRemoval(t *testing.T) {
	const sessions = 5000
	replicas := replicaSet(7)
	before := make(map[uint64]string, sessions)
	for s := uint64(1); s <= sessions; s++ {
		before[s] = Owner(s, replicas)
	}
	for drop := range replicas {
		survivors := make([]string, 0, len(replicas)-1)
		for i, r := range replicas {
			if i != drop {
				survivors = append(survivors, r)
			}
		}
		for s := uint64(1); s <= sessions; s++ {
			after := Owner(s, survivors)
			if before[s] == replicas[drop] {
				if after == replicas[drop] {
					t.Fatalf("session %d still owned by removed replica %s", s, replicas[drop])
				}
				continue
			}
			if after != before[s] {
				t.Fatalf("removing %s moved session %d from survivor %s to %s",
					replicas[drop], s, before[s], after)
			}
		}
	}
}

// Rank's head must agree with Owner, and the order must be total and
// deterministic — it is the client resolver's probe order, so every node
// and every client must compute the same one.
func TestRankAgreesWithOwner(t *testing.T) {
	replicas := replicaSet(5)
	for s := uint64(1); s <= 2000; s++ {
		rank := Rank(s, replicas)
		if len(rank) != len(replicas) {
			t.Fatalf("Rank returned %d entries, want %d", len(rank), len(replicas))
		}
		if rank[0] != Owner(s, replicas) {
			t.Fatalf("session %d: Rank[0] = %s, Owner = %s", s, rank[0], Owner(s, replicas))
		}
		seen := make(map[string]bool, len(rank))
		for _, r := range rank {
			if seen[r] {
				t.Fatalf("session %d: duplicate %s in rank", s, r)
			}
			seen[r] = true
		}
		again := Rank(s, replicas)
		for i := range rank {
			if rank[i] != again[i] {
				t.Fatalf("session %d: rank not deterministic at %d", s, i)
			}
		}
	}
}

// Owner of the empty set is "" — the router treats that as serve-locally,
// never as a redirect to nowhere.
func TestOwnerEmpty(t *testing.T) {
	if got := Owner(42, nil); got != "" {
		t.Fatalf("Owner(empty) = %q, want empty", got)
	}
}

// TestRendezvousStabilityAcrossMembershipEpochs walks a fleet through the
// elastic lifecycle — 3 replicas, a 4th joins, then leaves again — using
// the epoch-versioned membership table the gossip layer ships, and pins
// the surgical-placement property at each transition: growing the fleet
// moves sessions only ONTO the joiner (never between incumbents), and no
// more than roughly its fair HRW share; shrinking moves only the leaver's
// sessions back, landing the fleet on exactly the owners it started with.
func TestRendezvousStabilityAcrossMembershipEpochs(t *testing.T) {
	const sessions = 5000
	joiner := "10.0.0.99:7070"

	m3 := NewMembership(replicaSet(3))
	m4, ok := m3.WithJoined(joiner)
	if !ok {
		t.Fatal("join rejected")
	}
	m3b, ok := m4.WithLeft(joiner)
	if !ok {
		t.Fatal("leave rejected")
	}
	if !(m4.Epoch > m3.Epoch && m3b.Epoch > m4.Epoch) {
		t.Fatalf("epochs must strictly increase: %d, %d, %d", m3.Epoch, m4.Epoch, m3b.Epoch)
	}
	if !m4.Supersedes(m3) || !m3b.Supersedes(m4) || m3.Supersedes(m4) {
		t.Fatal("Supersedes must follow the epoch order")
	}

	ownersAt := func(m Membership) map[uint64]string {
		owners := make(map[uint64]string, sessions)
		for s := uint64(1); s <= sessions; s++ {
			owners[s] = Owner(s, m.Members)
		}
		return owners
	}
	before := ownersAt(m3)
	grown := ownersAt(m4)
	shrunk := ownersAt(m3b)

	moved := 0
	for s := uint64(1); s <= sessions; s++ {
		if grown[s] != before[s] {
			if grown[s] != joiner {
				t.Fatalf("join moved session %d between incumbents: %s -> %s",
					s, before[s], grown[s])
			}
			moved++
		}
	}
	// The joiner's fair HRW share is 1/4 of the keyspace; allow generous
	// sampling slack but reject wholesale reshuffles.
	if share := float64(moved) / sessions; share > 0.35 {
		t.Errorf("join re-homed %.0f%% of sessions, want about 25%%", share*100)
	}
	if moved == 0 {
		t.Error("joiner received no sessions — it would idle forever")
	}

	for s := uint64(1); s <= sessions; s++ {
		if shrunk[s] != before[s] {
			t.Fatalf("3->4->3 round trip moved session %d: %s -> %s (joiner had %s)",
				s, before[s], shrunk[s], grown[s])
		}
	}
}
