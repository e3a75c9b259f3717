package cfg

// Idoms computes the immediate dominators of a graph of n nodes numbered
// 0..n-1, rooted at root, with the algorithm of Cooper, Harvey and Kennedy,
// "A Simple, Fast Dominance Algorithm" (2001): iterate over reverse
// postorder, intersecting the dominator-tree paths of each node's processed
// predecessors, until nothing changes. idom[root] is root; a node root
// cannot reach gets -1.
func Idoms(n, root int, succ, pred func(int) []int) []int {
	// Reverse postorder by an iterative depth-first search.
	rpo := make([]int, n) // position in reverse postorder; -1 = unreached
	for i := range rpo {
		rpo[i] = -1
	}
	order := make([]int, 0, n) // postorder
	type frame struct{ node, i int }
	rpo[root] = 0
	frames := []frame{{node: root}}
	for len(frames) > 0 {
		f := &frames[len(frames)-1]
		if ss := succ(f.node); f.i < len(ss) {
			w := ss[f.i]
			f.i++
			if rpo[w] < 0 {
				rpo[w] = 0
				frames = append(frames, frame{node: w})
			}
			continue
		}
		order = append(order, f.node)
		frames = frames[:len(frames)-1]
	}
	for i, v := range order {
		rpo[v] = len(order) - 1 - i
	}

	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[root] = root
	intersect := func(a, b int) int {
		for a != b {
			for rpo[a] > rpo[b] {
				a = idom[a]
			}
			for rpo[b] > rpo[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for i := len(order) - 2; i >= 0; i-- { // reverse postorder, root skipped
			v := order[i]
			nd := -1
			for _, p := range pred(v) {
				switch {
				case idom[p] < 0: // unreached, or not processed yet
				case nd < 0:
					nd = p
				default:
					nd = intersect(p, nd)
				}
			}
			if idom[v] != nd {
				idom[v] = nd
				changed = true
			}
		}
	}
	return idom
}

// DomInfo holds the dominator tree of a graph, rooted at Entry.
type DomInfo struct {
	g *Graph
	// idom[i] is node i's immediate dominator index: Entry's own index for
	// Entry, -1 for a node Entry cannot reach.
	idom []int
}

// Dominators computes the dominator tree of g from Entry.
func Dominators(g *Graph) *DomInfo {
	succs := make([][]int, len(g.Nodes))
	preds := make([][]int, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, s := range n.Succs {
			succs[n.Index] = append(succs[n.Index], s.Index)
		}
		for _, p := range n.Preds {
			preds[n.Index] = append(preds[n.Index], p.Index)
		}
	}
	idom := Idoms(len(g.Nodes), g.Entry.Index,
		func(i int) []int { return succs[i] }, func(i int) []int { return preds[i] })
	return &DomInfo{g: g, idom: idom}
}
