package cfg

// Dominator computation using the classic iterative bit-set algorithm.

// DomInfo holds dominator sets for a graph.
type DomInfo struct {
	g *Graph
	// dom[i] is the set of node indices that dominate node i.
	dom []bitset
	// idom[i] is the immediate dominator index, or -1.
	idom []int
}

type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

func (b bitset) copyFrom(o bitset) { copy(b, o) }

func (b bitset) intersect(o bitset) bool {
	changed := false
	for i := range b {
		nv := b[i] & o[i]
		if nv != b[i] {
			b[i] = nv
			changed = true
		}
	}
	return changed
}

func (b bitset) equal(o bitset) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

func (b bitset) fill() {
	for i := range b {
		b[i] = ^uint64(0)
	}
}

// Dominators computes the dominator sets of g (from Entry).
func Dominators(g *Graph) *DomInfo {
	n := len(g.Nodes)
	d := &DomInfo{g: g, dom: make([]bitset, n), idom: make([]int, n)}
	root := g.Entry
	for i := range d.dom {
		d.dom[i] = newBitset(n)
		if i == root.Index {
			d.dom[i].set(i)
		} else {
			d.dom[i].fill()
		}
	}
	changed := true
	tmp := newBitset(n)
	for changed {
		changed = false
		for _, node := range g.Nodes {
			if node == root {
				continue
			}
			tmp.fill()
			any := false
			for _, p := range node.Preds {
				tmp.intersect(d.dom[p.Index])
				any = true
			}
			if !any {
				// Unreachable from root: leave as full set (vacuously
				// dominated by everything).
				continue
			}
			tmp.set(node.Index)
			if !tmp.equal(d.dom[node.Index]) {
				d.dom[node.Index].copyFrom(tmp)
				changed = true
			}
		}
	}
	d.computeIdom(root)
	return d
}

func (d *DomInfo) computeIdom(root *Node) {
	n := len(d.g.Nodes)
	for i := range d.idom {
		d.idom[i] = -1
	}
	for i := 0; i < n; i++ {
		if i == root.Index {
			continue
		}
		// idom(i) = the strict dominator of i dominated by all other strict
		// dominators of i, i.e. the one whose dominator set is largest
		// while still being a strict dominator.
		best, bestCount := -1, -1
		for j := 0; j < n; j++ {
			if j == i || !d.dom[i].has(j) {
				continue
			}
			count := 0
			for k := 0; k < n; k++ {
				if d.dom[j].has(k) {
					count++
				}
			}
			if count > bestCount && count < n { // skip "full set" unreachable markers
				best, bestCount = j, count
			}
		}
		d.idom[i] = best
	}
}

// Dominates reports whether a dominates b.
func (d *DomInfo) Dominates(a, b *Node) bool { return d.dom[b.Index].has(a.Index) }

// Idom returns the immediate dominator of n, or nil.
func (d *DomInfo) Idom(n *Node) *Node {
	i := d.idom[n.Index]
	if i < 0 {
		return nil
	}
	return d.g.Nodes[i]
}
