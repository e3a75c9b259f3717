package vm

import (
	"math"
	"sort"

	"slicehide/internal/interp"
)

// hash fingerprints the compiled program with FNV-1a 64: component names,
// layouts (variable names, kinds, classes), and per-fragment bytecode,
// constants, and error strings. Compilation is deterministic, so equal
// registries hash equal; recovery refuses a snapshot or journal whose
// recorded hash differs from the recompiled registry's, because slot
// numbers would no longer line up.
func (p *Program) hash() uint64 {
	h := newFNV()
	h.str("globals")
	h.layout(p.Globals)

	classes := make([]string, 0, len(p.Fields))
	for class := range p.Fields {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		h.str("fields")
		h.str(class)
		h.layout(p.Fields[class])
	}

	names := make([]string, 0, len(p.Comps))
	for name := range p.Comps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cc := p.Comps[name]
		h.str("comp")
		h.str(cc.Name)
		h.str(cc.Class)
		h.u64(boolBit(cc.Kind == CompClass)<<1 | boolBit(cc.TouchesGlobals))
		h.layout(cc.Act)
		for id, f := range cc.frags {
			if f == nil {
				continue
			}
			h.str("frag")
			h.u64(uint64(id))
			h.u64(uint64(f.NArgs))
			h.u64(uint64(f.NTemps))
			for _, in := range f.Code {
				h.u64(uint64(in.Op)<<32 | uint64(in.Dst))
				h.u64(uint64(in.A)<<32 | uint64(in.B))
			}
			for _, cv := range f.Consts {
				h.value(cv)
			}
			for _, err := range f.fails {
				h.str(err.Error())
			}
		}
	}
	return h.sum
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

type fnv struct{ sum uint64 }

func newFNV() *fnv { return &fnv{sum: 14695981039346656037} }

func (h *fnv) byte(b byte) {
	h.sum = (h.sum ^ uint64(b)) * 1099511628211
}

func (h *fnv) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}

func (h *fnv) str(s string) {
	h.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

func (h *fnv) layout(l *Layout) {
	if l == nil {
		h.u64(0)
		return
	}
	h.u64(uint64(len(l.Slots)))
	for _, s := range l.Slots {
		h.str(s.Name)
		h.u64(uint64(s.Kind))
		h.str(s.Class)
	}
}

// value hashes a constant's kind, int, float bits, bool and string, each
// the zero of its type unless the kind defines it, so a program's hash —
// and every journal and snapshot recorded under it — does not depend on
// how Value lays its payload out.
func (h *fnv) value(v interp.Value) {
	h.u64(uint64(v.Kind))
	h.u64(uint64(intPart(v)))
	h.u64(math.Float64bits(v.F()))
	h.u64(boolBit(v.B()))
	h.str(v.S())
}

// intPart is v.I for an int and 0 for every other kind: I is defined only
// under KindInt.
func intPart(v interp.Value) int64 {
	if v.Kind != interp.KindInt {
		return 0
	}
	return v.I
}
