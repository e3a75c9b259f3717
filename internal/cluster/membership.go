package cluster

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Membership is the fleet's epoch-versioned member table. Every replica
// carries one and gossips it over the liveness probes; the table with the
// highest epoch wins everywhere, so a join or leave initiated on any one
// member converges across the fleet within a few probe intervals — no
// restart, no coordinator. Epochs are bumped only by explicit Join/Leave
// mutations, never by probe outcomes: a dead member stays a member (its
// sessions fail over but its slot is kept) until an operator removes it.
type Membership struct {
	// Epoch orders tables: higher supersedes lower fleet-wide.
	Epoch uint64
	// Members is the sorted, deduplicated list of replica addresses.
	Members []string
}

// membershipMaxMembers bounds how many members a gossiped table may carry,
// so a malformed frame cannot make a replica over-allocate.
const membershipMaxMembers = 1024

// NewMembership builds an epoch-1 table from the given member list.
func NewMembership(members []string) Membership {
	m := Membership{Epoch: 1, Members: normalizeMembers(members)}
	return m
}

func normalizeMembers(members []string) []string {
	out := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, a := range members {
		a = strings.TrimSpace(a)
		if a == "" || seen[a] {
			continue
		}
		seen[a] = true
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Has reports whether addr is a member.
func (m Membership) Has(addr string) bool {
	for _, a := range m.Members {
		if a == addr {
			return true
		}
	}
	return false
}

// Others returns the members other than self.
func (m Membership) Others(self string) []string {
	out := make([]string, 0, len(m.Members))
	for _, a := range m.Members {
		if a != self {
			out = append(out, a)
		}
	}
	return out
}

// Clone returns a deep copy.
func (m Membership) Clone() Membership {
	return Membership{Epoch: m.Epoch, Members: append([]string(nil), m.Members...)}
}

// Encode renders the table canonically: "<epoch>|addr1,addr2,...". The
// rendering doubles as the gossip wire form, the persistence format, and
// the equal-epoch tiebreak key.
func (m Membership) Encode() string {
	return strconv.FormatUint(m.Epoch, 10) + "|" + strings.Join(m.Members, ",")
}

// ParseMembership decodes an Encode rendering.
func ParseMembership(s string) (Membership, error) {
	epochStr, list, ok := strings.Cut(strings.TrimSpace(s), "|")
	if !ok {
		return Membership{}, fmt.Errorf("cluster: malformed membership %q", s)
	}
	epoch, err := strconv.ParseUint(epochStr, 10, 64)
	if err != nil {
		return Membership{}, fmt.Errorf("cluster: malformed membership epoch %q", epochStr)
	}
	var members []string
	if list != "" {
		members = strings.Split(list, ",")
		if len(members) > membershipMaxMembers {
			return Membership{}, fmt.Errorf("cluster: membership lists %d members (limit %d)", len(members), membershipMaxMembers)
		}
	}
	return Membership{Epoch: epoch, Members: normalizeMembers(members)}, nil
}

// Supersedes reports whether m should replace o: a strictly higher epoch
// always wins, and tables that raced to the same epoch are broken
// deterministically by the greater canonical rendering, so every replica
// that sees both candidates picks the same one.
func (m Membership) Supersedes(o Membership) bool {
	if m.Epoch != o.Epoch {
		return m.Epoch > o.Epoch
	}
	return m.Encode() > o.Encode()
}

// WithJoined returns the table with addr added and the epoch bumped; the
// second result is false (and the receiver unchanged) when addr was
// already a member.
func (m Membership) WithJoined(addr string) (Membership, bool) {
	addr = strings.TrimSpace(addr)
	if addr == "" || strings.ContainsAny(addr, ",|") || m.Has(addr) {
		return m, false
	}
	n := m.Clone()
	n.Epoch++
	n.Members = normalizeMembers(append(n.Members, addr))
	return n, true
}

// WithLeft returns the table with addr removed and the epoch bumped; the
// second result is false when addr was not a member.
func (m Membership) WithLeft(addr string) (Membership, bool) {
	if !m.Has(addr) {
		return m, false
	}
	n := Membership{Epoch: m.Epoch + 1}
	for _, a := range m.Members {
		if a != addr {
			n.Members = append(n.Members, a)
		}
	}
	return n, true
}

// LoadMembership reads a table persisted by Save; ok is false when the
// file is missing or unreadable (boot falls back to the configured list).
func LoadMembership(path string) (Membership, bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Membership{}, false
	}
	m, err := ParseMembership(string(b))
	if err != nil {
		return Membership{}, false
	}
	return m, true
}

// Save persists the table atomically (write-temp-then-rename), so a crash
// mid-write leaves either the old table or the new one, never a torn file.
func (m Membership) Save(path string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(m.Encode()+"\n"), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
