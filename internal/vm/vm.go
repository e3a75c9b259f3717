// Package vm is the execution engine on both sides of the split. It
// compiles MiniJ IR into a flat three-address bytecode and executes it
// with one dispatch loop: hidden-component fragments (given as Sources) as
// a Program, addressing preresolved integer slots in activation/globals/field
// stores on a pooled temp frame; and whole programs — an open component or
// an unsplit original — as a Machine, with calls over register windows,
// aggregates, output and the hidden-call operations. The tree-walkers of
// package oracle resolve every name through maps on every step; they
// remain, in test binaries only, as the references the differential tests
// compare against.
//
// The package consumes IR only: operator kinds cross the boundary through
// the language-neutral ir.BinOp/ir.UnOp enums, never lang/token (enforced
// by make vm-layering).
package vm

import (
	"slicehide/internal/interp"
	"slicehide/internal/ir"
)

// MaxFragSteps bounds one fragment execution, mirroring the tree-walking
// executor's limit: +1 per statement reached, +1 per completed loop
// iteration.
const MaxFragSteps = 100_000_000

// Layout describes the slots of one store. A store's values slice is
// indexed by slot; the names are kept for the snapshot codec and journal
// recovery, which address variables by stable name because slot numbers
// are an artifact of one compilation.
type Layout struct {
	// Slots describes each slot, in slot order.
	Slots []Slot
	// byName maps stable name -> slot (last add wins, mirroring the
	// name-resolution maps the recovery path used before slots).
	byName map[string]int32
}

// Slot is one hidden variable's place in a store.
type Slot struct {
	Name string
	// Class owns a field ("" for other variables).
	Class string
	Kind  ir.VarKind
	// Zero is the value the slot holds in a fresh store.
	Zero interp.Value
}

// SlotByName resolves a stable on-disk name to a slot. Nil layouts (a
// class with no hidden fields) resolve nothing.
func (l *Layout) SlotByName(name string) (int32, bool) {
	if l == nil {
		return 0, false
	}
	s, ok := l.byName[name]
	return s, ok
}

// NewVals allocates a store image with every slot at its typed zero.
func (l *Layout) NewVals() []interp.Value {
	if l == nil || len(l.Slots) == 0 {
		return nil
	}
	vals := make([]interp.Value, len(l.Slots))
	for i, s := range l.Slots {
		vals[i] = s.Zero
	}
	return vals
}

// slots is a compiler's index from variable identity to slot over one
// layout. Only the compilers hold one; the compiled program keeps the
// layout alone, so it references no IR.
type slots struct {
	*Layout
	of map[*ir.Var]int32
}

func newSlots() *slots {
	return &slots{Layout: &Layout{byName: make(map[string]int32)}, of: make(map[*ir.Var]int32)}
}

// add ensures v has a slot and returns it.
func (x *slots) add(v *ir.Var) int32 {
	if s, ok := x.of[v]; ok {
		return s
	}
	s := int32(len(x.Slots))
	x.Slots = append(x.Slots, Slot{Name: v.Name, Class: v.Class, Kind: v.Kind, Zero: ZeroValue(v)})
	x.byName[v.Name] = s
	x.of[v] = s
	return s
}

// slot returns v's slot.
func (x *slots) slot(v *ir.Var) (int32, bool) {
	s, ok := x.of[v]
	return s, ok
}

// ZeroValue returns the typed zero of a hidden variable, with the hidden
// runtime's historical convention: floats and bools get their own zeros,
// everything else (including strings) starts as int 0.
func ZeroValue(v *ir.Var) interp.Value {
	switch ir.ZeroKindOf(v) {
	case ir.ZeroFloat:
		return interp.FloatV(0)
	case ir.ZeroBool:
		return interp.BoolV(false)
	}
	return interp.IntV(0)
}

// constValue converts an IR constant to a runtime value.
func constValue(c *ir.Const) interp.Value {
	switch c.Kind {
	case ir.ConstInt:
		return interp.IntV(c.I)
	case ir.ConstFloat:
		return interp.FloatV(c.F)
	case ir.ConstBool:
		return interp.BoolV(c.B)
	case ir.ConstString:
		return interp.StrV(c.S)
	}
	return interp.NullV()
}

// Program is the compiled form of a split program's hidden components:
// the one object the secure device runs. It describes itself — component
// kinds, classes and slot names — and references no IR.
type Program struct {
	// Comps maps component name to its compiled form.
	Comps map[string]*Comp
	// Globals lays out the shared hidden-globals store: true globals from
	// every component, then the globals component's temporaries (which
	// execute against the same store).
	Globals *Layout
	// globalInit is the slot-indexed initial globals image.
	globalInit []interp.Value
	// Fields lays out the per-object hidden-field store of each class.
	Fields map[string]*Layout
	// Hash fingerprints the compiled bytecode (instructions, constants,
	// layouts). Recovery compares it against the recompiled registry so a
	// changed program is refused rather than replayed into wrong slots.
	Hash uint64
	// CompileNS is the one-time compile cost, exported as vm_compile_ns.
	CompileNS int64
	// MaxTemps is the largest temp-frame any fragment needs; frames from
	// one pool fit every fragment.
	MaxTemps int32
}

// Comp is one compiled hidden component.
type Comp struct {
	Name string
	Kind CompKind
	// Class is the owning class: a method's class, or the class whose
	// fields a CompClass component holds ("" otherwise).
	Class string
	// TouchesGlobals marks components whose fragments can reach a global
	// hidden variable; their calls run under the globals lock.
	TouchesGlobals bool
	// Act lays out this component's activation store. For the globals
	// component it aliases Program.Globals; for a CompClass component it
	// aliases the class's field layout (its activations are the field
	// stores themselves).
	Act *Layout
	// frags is dense by fragment ID (nil holes).
	frags []*Frag
}

// Frag returns the compiled fragment with the given ID, or nil.
func (c *Comp) Frag(id int) *Frag {
	if id < 0 || id >= len(c.frags) {
		return nil
	}
	return c.frags[id]
}

// FragIDs returns the compiled fragment IDs in ascending order.
func (c *Comp) FragIDs() []int {
	var ids []int
	for id, f := range c.frags {
		if f != nil {
			ids = append(ids, id)
		}
	}
	return ids
}

// Frag is one fragment compiled to three-address bytecode.
type Frag struct {
	ID    int
	NArgs int
	Code  []Instr
	// Consts is the constant pool.
	Consts []interp.Value
	// fails holds the prebuilt errors OpFail raises (unknown variables,
	// constructs the fragment executor does not support) so raising one
	// costs no allocation and reproduces the tree-walker's message.
	fails []error
	// NTemps is the temp-frame size this fragment needs.
	NTemps int32
}

// NewGlobalVals returns a fresh copy of the initial globals store image
// (globalInit is full length, so this is a single copy).
func (p *Program) NewGlobalVals() []interp.Value {
	if len(p.globalInit) == 0 {
		return nil
	}
	vals := make([]interp.Value, len(p.globalInit))
	copy(vals, p.globalInit)
	return vals
}
