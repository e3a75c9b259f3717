package slab

import (
	"slices"
	"testing"
)

func TestDistinctPointersAndGrowth(t *testing.T) {
	var s Of[int]
	seen := make(map[*int]bool)
	for i := range 5000 {
		p := s.New(i)
		if seen[p] {
			t.Fatalf("pointer %d handed out twice", i)
		}
		seen[p] = true
	}
	for p := range seen {
		if *p < 0 || *p >= 5000 {
			t.Fatalf("value %d overwritten", *p)
		}
	}
	if s.next != maxBlock {
		t.Errorf("block length %d after 5000 nodes, want %d", s.next, maxBlock)
	}
}

func TestAllocationsPerBlock(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() {
		var s Of[[4]int]
		for range firstBlock + 2*firstBlock {
			s.New([4]int{1, 2, 3, 4})
		}
	})
	if allocs != 2 {
		t.Errorf("%v allocations for two blocks' worth of nodes, want 2", allocs)
	}
}

// TestListsStayApart: every list holds what was written to it after later
// lists and nodes fill the block, an append to one list leaves its
// neighbour alone, and a list longer than any block is made whole.
func TestListsStayApart(t *testing.T) {
	var s Of[int]
	if s.Make(0) != nil {
		t.Fatal("an empty list is not nil")
	}
	var lists, copies [][]int
	for n := range 40 {
		list := make([]int, n%7+1)
		for i := range list {
			list[i] = n*100 + i
		}
		lists = append(lists, list)
		c := s.Make(len(list))
		copy(c, list)
		copies = append(copies, c)
		s.New(-1)
	}
	long := make([]int, maxBlock+1)
	lists = append(lists, long)
	copies = append(copies, s.Make(len(long)))
	_ = append(copies[0], -2)
	for i := range lists {
		if !slices.Equal(copies[i], lists[i]) || cap(copies[i]) != len(lists[i]) {
			t.Fatalf("copy %d is %v (cap %d), want %v", i, copies[i], cap(copies[i]), lists[i])
		}
	}
}
