// Package slab hands out a pass's many small nodes, and the short lists
// that hold them, from typed blocks: one allocation per block instead of
// one per node or list. A slab belongs to one pass (one parse, one IR
// build) and is not safe for concurrent use; a block lives as long as
// anything in it. Blocks start small and double, so a ten-line program
// pays for a few short blocks and a corpus for a few hundred long ones.
package slab

const firstBlock, maxBlock = 4, 512

// Of hands out *T and []T from blocks of T. The zero value is ready.
type Of[T any] struct {
	free []T
	next int // length of the next block
}

// New returns a pointer of its own to a new T holding v.
func (s *Of[T]) New(v T) *T {
	if len(s.free) == 0 {
		s.grow(1)
	}
	p := &s.free[0]
	*p = v
	s.free = s.free[1:]
	return p
}

// Make returns a list of n zero Ts, nil for n == 0. Its capacity is n, so
// an append to it reallocates rather than run into a neighbour.
func (s *Of[T]) Make(n int) []T {
	switch {
	case n == 0:
		return nil
	case n > maxBlock:
		return make([]T, n)
	case n > len(s.free):
		s.grow(n)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// grow starts a block of at least n Ts, dropping what is left of this one.
func (s *Of[T]) grow(n int) {
	s.next = min(max(2*s.next, firstBlock), maxBlock)
	s.free = make([]T, max(s.next, n))
}
