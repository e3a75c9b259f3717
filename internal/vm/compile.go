package vm

import (
	"slices"
	"strings"
	"time"

	"slicehide/internal/ir"
)

// CompKind says which store a hidden component's activation addresses.
type CompKind uint8

const (
	// CompFunc is a split function's component: each activation has a
	// store of its own.
	CompFunc CompKind = iota
	// CompGlobals is the shared component of hidden globals: its one
	// activation is the globals store.
	CompGlobals
	// CompClass is a class's shared component of hidden fields: its
	// activations are per-object field stores.
	CompClass
)

// Source is one hidden component as Compile takes it.
type Source struct {
	Name string
	Kind CompKind
	// Class is a method's class, or the class whose fields a CompClass
	// component holds ("" otherwise).
	Class string
	// Vars are the component's hidden variables.
	Vars  []*ir.Var
	Frags []FragSource
}

// FragSource is one fragment as Compile takes it: H(ID, args...) runs Body
// with Args bound to the call's arguments.
type FragSource struct {
	ID   int
	Args []*ir.Var
	Body []ir.Stmt
}

// hidden is Compile's working state: the program under construction and
// the variable-to-slot index of each of its layouts.
type hidden struct {
	p       *Program
	globals *slots
	fields  map[string]*slots
}

// Compile lowers every fragment of a split program's hidden components
// into bytecode, resolving variables to integer slots in shared layouts;
// globalInit holds the initializers of hidden globals. It is
// deterministic: components are processed in name order, fragments in ID
// order, and initializer keys in name order, so the same components always
// produce the same Program (and the same Hash — recovery depends on it).
func Compile(comps []Source, globalInit map[*ir.Var]*ir.Const) *Program {
	start := time.Now()
	globals := newSlots()
	p := &Program{
		Comps:   make(map[string]*Comp, len(comps)),
		Globals: globals.Layout,
		Fields:  make(map[string]*Layout),
	}
	h := &hidden{p: p, globals: globals, fields: make(map[string]*slots)}
	comps = slices.Clone(comps)
	slices.SortFunc(comps, func(a, b Source) int { return strings.Compare(a.Name, b.Name) })
	for i := range comps {
		comps[i].Frags = slices.Clone(comps[i].Frags)
		slices.SortFunc(comps[i].Frags, func(a, b FragSource) int { return a.ID - b.ID })
	}

	// The globals layout: the globals component's variables first, then
	// every other component's global variables, then initializer keys.
	// Assignment strays found in bodies are appended by the pre-scan.
	for _, src := range comps {
		if src.Kind == CompGlobals {
			for _, v := range src.Vars {
				h.globals.add(v)
			}
		}
	}
	for _, src := range comps {
		for _, v := range src.Vars {
			if v.Kind == ir.VarGlobal {
				h.globals.add(v)
			}
		}
	}
	initVars := make([]*ir.Var, 0, len(globalInit))
	for v := range globalInit {
		initVars = append(initVars, v)
	}
	slices.SortFunc(initVars, func(a, b *ir.Var) int { return strings.Compare(a.Name, b.Name) })
	for _, v := range initVars {
		h.globals.add(v)
	}

	// Field layouts: declared hidden fields of every component that
	// belongs to a class.
	for _, src := range comps {
		if src.Class == "" {
			continue
		}
		fl := h.fieldSlots(src.Class)
		for _, v := range src.Vars {
			if v.Kind == ir.VarField {
				fl.add(v)
			}
		}
	}

	// Component shells with activation layouts. The globals component's
	// activation IS the globals store, and a CompClass component's
	// activation IS the per-object field store, so their activation
	// indexes alias the corresponding shared one: slots stay consistent
	// whichever space an operand addresses the store through.
	acts := make([]*slots, len(comps))
	for i, src := range comps {
		switch src.Kind {
		case CompGlobals:
			acts[i] = h.globals
		case CompClass:
			acts[i] = h.fieldSlots(src.Class)
		default:
			acts[i] = newSlots()
			for _, v := range src.Vars {
				if v.Kind == ir.VarField || v.Kind == ir.VarGlobal {
					continue // routed to instance/globals stores
				}
				acts[i].add(v)
			}
		}
		p.Comps[src.Name] = &Comp{Name: src.Name, Kind: src.Kind, Class: src.Class, Act: acts[i].Layout}
	}

	// Pre-scan every body before compiling any: reads resolve against the
	// full set of slots any fragment can write (activation stores persist
	// across calls, so a variable one fragment assigns must be readable by
	// slot in every other fragment of the component). The scan also
	// decides TouchesGlobals from both declared variables and body
	// references.
	for i, src := range comps {
		cc := p.Comps[src.Name]
		cc.TouchesGlobals = src.Kind == CompGlobals
		for _, v := range src.Vars {
			if v.Kind == ir.VarGlobal {
				cc.TouchesGlobals = true
			}
		}
		for _, fr := range src.Frags {
			ir.WalkStmts(fr.Body, func(st ir.Stmt) bool {
				for _, v := range ir.UsedVars(st) {
					cc.TouchesGlobals = cc.TouchesGlobals || v.Kind == ir.VarGlobal
				}
				if as, ok := st.(*ir.AssignStmt); ok {
					if vt, ok := as.Lhs.(*ir.VarTarget); ok {
						h.writeSlots(cc, acts[i], vt.Var).add(vt.Var)
						cc.TouchesGlobals = cc.TouchesGlobals || vt.Var.Kind == ir.VarGlobal
					}
				}
				return true
			})
		}
	}

	// The initial globals image, full length so a fresh store is one copy.
	p.globalInit = p.Globals.NewVals()
	for v, c := range globalInit {
		if s, ok := h.globals.slot(v); ok {
			p.globalInit[s] = constValue(c)
		}
	}

	// Compile fragment bodies.
	for i, src := range comps {
		if len(src.Frags) == 0 {
			continue
		}
		cc := p.Comps[src.Name]
		cc.frags = make([]*Frag, src.Frags[len(src.Frags)-1].ID+1)
		for _, fr := range src.Frags {
			f := h.compileFrag(cc, acts[i], fr)
			cc.frags[fr.ID] = f
			if f.NTemps > p.MaxTemps {
				p.MaxTemps = f.NTemps
			}
		}
	}

	p.Hash = p.hash()
	p.CompileNS = time.Since(start).Nanoseconds()
	return p
}

// fieldSlots returns class's field index, creating its layout on first
// use.
func (h *hidden) fieldSlots(class string) *slots {
	fl := h.fields[class]
	if fl == nil {
		fl = newSlots()
		h.fields[class] = fl
		h.p.Fields[class] = fl.Layout
	}
	return fl
}

// writeSlots picks the store an assignment to v routes to, mirroring the
// tree-walking executor's store selection.
func (h *hidden) writeSlots(cc *Comp, act *slots, v *ir.Var) *slots {
	switch {
	case v.Kind == ir.VarGlobal:
		return h.globals
	case v.Kind == ir.VarField && cc.Class != "":
		return h.fieldSlots(cc.Class)
	default:
		return act
	}
}

func (h *hidden) compileFrag(cc *Comp, act *slots, fr FragSource) *Frag {
	c := &compiler{pool: newPool(), h: h, comp: cc, act: act, args: fr.Args}
	c.stmts(fr.Body, false)
	for _, pc := range c.endJumps {
		c.patch(pc, len(c.code))
	}
	return &Frag{
		ID:     fr.ID,
		NArgs:  len(fr.Args),
		Code:   c.code,
		Consts: c.consts,
		fails:  c.fails,
		NTemps: c.nTemps,
	}
}
