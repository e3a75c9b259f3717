// Package complexity implements the paper's §3 security analysis: it
// characterizes every information leak point (ILP) of a split function by
// its arithmetic complexity (the lattice Constant ≺ Linear ≺ Polynomial ≺
// Rational ≺ Arbitrary, with input count and polynomial degree) and by its
// control-flow complexity (paths constant/variable, predicates open/hidden,
// flow open/hidden). The arithmetic analysis is the iterative def-use
// propagation of the paper's Figure 3 (EVAL / PC / MIN / RAISE), computing
// a conservative lower bound without symbolic evaluation.
package complexity

import (
	"fmt"
	"math/bits"
	"sort"
)

// Type is the arithmetic complexity class of a leaked function.
type Type int

// Arithmetic complexity classes, ordered by the paper's partial order.
const (
	Constant Type = iota
	Linear
	Polynomial
	Rational
	Arbitrary
)

func (t Type) String() string {
	switch t {
	case Constant:
		return "constant"
	case Linear:
		return "linear"
	case Polynomial:
		return "polynomial"
	case Rational:
		return "rational"
	case Arbitrary:
		return "arbitrary"
	}
	return "?"
}

// maxDegree caps polynomial degrees so the fixpoint iteration terminates.
const maxDegree = 64

// AC is an arithmetic complexity triple <Type, Inputs, Degree>. Its input
// set holds the observable values the leaked function depends on; Varying
// marks input sets whose size depends on loop iteration counts (the
// paper's javac case, reported as "varying").
type AC struct {
	Type    Type
	Degree  int
	Varying bool
	inputs  inputSet
}

// ConstantAC is the bottom element.
func ConstantAC() AC { return AC{Type: Constant} }

// NumInputs returns the input count.
func (a AC) NumInputs() int { return a.inputs.count() }

// String renders the triple the way the paper writes it.
func (a AC) String() string {
	in := "0"
	if a.Varying {
		in = "varying"
	} else if n := a.NumInputs(); n > 0 {
		in = fmt.Sprintf("%d", n)
	}
	return fmt.Sprintf("<%s, %s, %d>", a.Type, in, a.Degree)
}

// InputNames returns the sorted input names (for tests).
func (a AC) InputNames() []string {
	names := make([]string, 0, a.NumInputs())
	a.inputs.each(func(i int) { names = append(names, a.inputs.table.list[i]) })
	sort.Strings(names)
	return names
}

// nameTable gives every input name one analysis meets a dense index: a
// variable's String() or, for a[i], o.f, len(a) and f(x) leaves, the
// expression's ir.ExprString. Inputs are names, not variables (half are
// expression strings), so no per-variable id can index them.
type nameTable struct {
	index map[string]int
	list  []string
}

// id returns name's index, adding the name on first sight.
func (t *nameTable) id(name string) int {
	i, ok := t.index[name]
	if !ok {
		if t.index == nil {
			t.index = make(map[string]int)
		}
		i = len(t.list)
		t.index[name] = i
		t.list = append(t.list, name)
	}
	return i
}

// leaf returns the linear complexity over input i. Only an input past the
// first 64 needs an overflow word allocated.
func (t *nameTable) leaf(i int) AC {
	s := inputSet{table: t}
	if i < 64 {
		s.lo = 1 << i
	} else {
		s.hi = make([]uint64, i/64)
		s.hi[i/64-1] = 1 << (i % 64)
	}
	return AC{Type: Linear, Degree: 1, inputs: s}
}

// inputSet is an immutable bitset over one analysis's name table: bit i
// stands for table.list[i]. The first 64 bits live inline in lo; the rest
// in the overflow words hi, where a missing word counts as zero. Nothing
// writes into hi once a set holds it, so sets share overflow words freely.
type inputSet struct {
	lo    uint64
	hi    []uint64
	table *nameTable
}

func (s inputSet) count() int {
	n := bits.OnesCount64(s.lo)
	for _, w := range s.hi {
		n += bits.OnesCount64(w)
	}
	return n
}

// each calls fn with the index of every member, in increasing order.
func (s inputSet) each(fn func(int)) {
	for w, base := s.lo, 0; ; base += 64 {
		for ; w != 0; w &= w - 1 {
			fn(base + bits.TrailingZeros64(w))
		}
		if base/64 == len(s.hi) {
			return
		}
		w = s.hi[base/64]
	}
}

// union joins two sets of one analysis. It never writes into either
// operand, and it returns an operand's overflow words unchanged when the
// other's are a subset of them.
func (s inputSet) union(t inputSet) inputSet {
	switch {
	case s.table == nil:
		s.table = t.table
	case t.table != nil && t.table != s.table:
		panic("complexity: joined the input sets of two analyses")
	}
	s.lo |= t.lo
	switch {
	case subsetWords(t.hi, s.hi):
	case subsetWords(s.hi, t.hi):
		s.hi = t.hi
	default:
		if len(s.hi) < len(t.hi) {
			s.hi, t.hi = t.hi, s.hi
		}
		hi := append([]uint64(nil), s.hi...)
		for i, w := range t.hi {
			hi[i] |= w
		}
		s.hi = hi
	}
	return s
}

// subsetWords reports whether every bit set in a is set in b.
func subsetWords(a, b []uint64) bool {
	for i, w := range a {
		if i >= len(b) {
			if w != 0 {
				return false
			}
		} else if w&^b[i] != 0 {
			return false
		}
	}
	return true
}

func (s inputSet) equal(t inputSet) bool {
	return s.lo == t.lo && subsetWords(s.hi, t.hi) && subsetWords(t.hi, s.hi)
}

func capDeg(d int) int {
	if d > maxDegree {
		return maxDegree
	}
	return d
}

// Less orders complexities: by type, then degree, then input count.
// It defines the MAX/MIN used by the propagation (paper's partial order
// extended to a total order for determinism). Degree is defined only for
// non-arbitrary classes (§3), so two Arbitrary complexities compare by
// inputs alone.
func Less(a, b AC) bool {
	if a.Type != b.Type {
		return a.Type < b.Type
	}
	if a.Type != Arbitrary && a.Degree != b.Degree {
		return a.Degree < b.Degree
	}
	if a.Varying != b.Varying {
		return !a.Varying
	}
	return a.NumInputs() < b.NumInputs()
}

// Max returns the greater of a and b with merged inputs.
func Max(a, b AC) AC {
	out := b
	if Less(b, a) {
		out = a
	}
	out.inputs = a.inputs.union(b.inputs)
	out.Varying = a.Varying || b.Varying
	return out
}

// Min returns the lesser of a and b (inputs come from the chosen side; the
// adversary follows the easiest def-use edge).
func Min(a, b AC) AC {
	if Less(b, a) {
		return b
	}
	return a
}

// Add combines operands of + and -: the class joins, the degree is the max.
func Add(a, b AC) AC {
	out := AC{
		Type:    maxType(a.Type, b.Type),
		Degree:  capDeg(maxInt(a.Degree, b.Degree)),
		inputs:  a.inputs.union(b.inputs),
		Varying: a.Varying || b.Varying,
	}
	return out
}

// Mul combines operands of *: degrees add; two non-constant polynomials
// give at least Polynomial.
func Mul(a, b AC) AC {
	t := maxType(a.Type, b.Type)
	deg := capDeg(a.Degree + b.Degree)
	if a.Type >= Linear && b.Type >= Linear && t < Polynomial {
		t = Polynomial
	}
	if a.Type == Constant {
		t, deg = b.Type, b.Degree
	}
	if b.Type == Constant {
		t, deg = maxType(a.Type, Constant), a.Degree
	}
	return AC{Type: t, Degree: deg, inputs: a.inputs.union(b.inputs), Varying: a.Varying || b.Varying}
}

// Div combines operands of /: a non-constant divisor makes the result a
// rational function.
func Div(a, b AC) AC {
	if b.Type == Constant {
		return AC{Type: a.Type, Degree: a.Degree, inputs: a.inputs.union(b.inputs), Varying: a.Varying || b.Varying}
	}
	t := maxType(maxType(a.Type, b.Type), Rational)
	return AC{Type: t, Degree: capDeg(maxInt(a.Degree, b.Degree)), inputs: a.inputs.union(b.inputs), Varying: a.Varying || b.Varying}
}

// Arb marks the combination as arbitrary (mod, boolean, relational,
// conditional selection).
func Arb(parts ...AC) AC {
	out := AC{Type: Arbitrary}
	for _, p := range parts {
		out.inputs = out.inputs.union(p.inputs)
		out.Varying = out.Varying || p.Varying
		if p.Degree > out.Degree {
			out.Degree = p.Degree
		}
	}
	return out
}

// Raise implements the paper's RAISE: a value flowing out of loop nest L
// may have been combined across Iter(L) iterations, so its complexity is
// raised by the complexity of the iteration count.
func Raise(pc, iter AC) AC {
	if pc.Type == Arbitrary || iter.Type == Arbitrary {
		return Arb(pc, iter)
	}
	deg := capDeg(pc.Degree + iter.Degree)
	t := maxType(pc.Type, iter.Type)
	if deg >= 2 && t < Polynomial {
		t = Polynomial
	}
	if deg >= 1 && t < Linear {
		t = Linear
	}
	return AC{Type: t, Degree: deg, inputs: pc.inputs.union(iter.inputs), Varying: pc.Varying || iter.Varying}
}

func maxType(a, b Type) Type {
	if a > b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Equal reports structural equality (used by the fixpoint loop).
func (a AC) Equal(b AC) bool {
	return a.Type == b.Type && a.Degree == b.Degree && a.Varying == b.Varying && a.inputs.equal(b.inputs)
}
