package vm

import (
	"sort"
	"strings"
	"time"

	"slicehide/internal/core"
	"slicehide/internal/interp"
	"slicehide/internal/ir"
)

// Compile lowers every fragment of a registry's hidden components into
// bytecode, resolving variables to integer slots in shared layouts. It is
// deterministic: components are processed in name order, fragments in ID
// order, and initializer keys in name order, so the same registry always
// produces the same Program (and the same Hash — recovery depends on it).
func Compile(comps map[string]*core.HiddenComponent, globalInit map[*ir.Var]interp.Value) *Program {
	start := time.Now()
	p := &Program{
		Comps:   make(map[string]*Comp, len(comps)),
		Globals: NewLayout(),
		Fields:  make(map[string]*Layout),
	}

	names := make([]string, 0, len(comps))
	for name := range comps {
		names = append(names, name)
	}
	sort.Strings(names)

	// The globals layout: the globals component's variables first, then
	// every other component's global variables, then initializer keys.
	// Assignment strays found in bodies are appended by the pre-scan.
	if gc := comps[core.GlobalsComponent]; gc != nil {
		for _, v := range gc.Vars {
			p.Globals.Add(v)
		}
	}
	for _, name := range names {
		if name == core.GlobalsComponent {
			continue
		}
		for _, v := range comps[name].Vars {
			if v.Kind == ir.VarGlobal {
				p.Globals.Add(v)
			}
		}
	}
	initVars := make([]*ir.Var, 0, len(globalInit))
	for v := range globalInit {
		initVars = append(initVars, v)
	}
	sort.Slice(initVars, func(i, j int) bool { return initVars[i].Name < initVars[j].Name })
	for _, v := range initVars {
		p.Globals.Add(v)
	}

	// Field layouts: declared hidden fields of every component that
	// belongs to a class.
	for _, name := range names {
		class := compClass(name)
		if class == "" {
			continue
		}
		fl := p.fieldLayout(class)
		for _, v := range comps[name].Vars {
			if v.Kind == ir.VarField {
				fl.Add(v)
			}
		}
	}

	// Component shells with activation layouts. The globals component's
	// activation IS the globals store, and a "$class:" component's
	// activation IS the per-object field store, so their Act layouts alias
	// the corresponding shared layout: slots stay consistent whichever
	// space an operand addresses the store through.
	for _, name := range names {
		src := comps[name]
		cc := &Comp{Name: name, Class: compClass(name), IsClass: isClassComp(name)}
		switch {
		case name == core.GlobalsComponent:
			cc.Act = p.Globals
		case cc.IsClass:
			cc.Act = p.fieldLayout(cc.Class)
		default:
			cc.Act = NewLayout()
			for _, v := range src.Vars {
				if v.Kind == ir.VarField || v.Kind == ir.VarGlobal {
					continue // routed to instance/globals stores
				}
				cc.Act.Add(v)
			}
		}
		p.Comps[name] = cc
	}

	// Pre-scan every body before compiling any: reads resolve against the
	// full set of slots any fragment can write (activation stores persist
	// across calls, so a variable one fragment assigns must be readable by
	// slot in every other fragment of the component). The scan also
	// decides TouchesGlobals from both declared variables and body
	// references.
	for _, name := range names {
		src, cc := comps[name], p.Comps[name]
		cc.TouchesGlobals = name == core.GlobalsComponent
		for _, v := range src.Vars {
			if v.Kind == ir.VarGlobal {
				cc.TouchesGlobals = true
			}
		}
		for _, id := range fragIDs(src) {
			ir.WalkStmts(src.Frags[id].Body, func(st ir.Stmt) bool {
				for _, v := range ir.UsedVars(st) {
					cc.TouchesGlobals = cc.TouchesGlobals || v.Kind == ir.VarGlobal
				}
				if as, ok := st.(*ir.AssignStmt); ok {
					if vt, ok := as.Lhs.(*ir.VarTarget); ok {
						p.writeLayout(cc, vt.Var).Add(vt.Var)
						cc.TouchesGlobals = cc.TouchesGlobals || vt.Var.Kind == ir.VarGlobal
					}
				}
				return true
			})
		}
	}

	// The initial globals image, full length so a fresh store is one copy.
	p.globalInit = p.Globals.NewVals()
	for v, val := range globalInit {
		if s, ok := p.Globals.Slot(v); ok {
			p.globalInit[s] = val
		}
	}

	// Compile fragment bodies.
	for _, name := range names {
		src, cc := comps[name], p.Comps[name]
		ids := fragIDs(src)
		if len(ids) == 0 {
			continue
		}
		cc.frags = make([]*Frag, ids[len(ids)-1]+1)
		for _, id := range ids {
			f := compileFrag(p, cc, src.Frags[id])
			cc.frags[id] = f
			if f.NTemps > p.MaxTemps {
				p.MaxTemps = f.NTemps
			}
		}
	}

	p.Hash = p.hash()
	p.CompileNS = time.Since(start).Nanoseconds()
	return p
}

func (p *Program) fieldLayout(class string) *Layout {
	fl := p.Fields[class]
	if fl == nil {
		fl = NewLayout()
		p.Fields[class] = fl
	}
	return fl
}

// writeLayout picks the store an assignment to v routes to, mirroring the
// tree-walking executor's store selection.
func (p *Program) writeLayout(cc *Comp, v *ir.Var) *Layout {
	switch {
	case v.Kind == ir.VarGlobal:
		return p.Globals
	case v.Kind == ir.VarField && cc.Class != "":
		return p.fieldLayout(cc.Class)
	default:
		return cc.Act
	}
}

func fragIDs(c *core.HiddenComponent) []int {
	ids := make([]int, 0, len(c.Frags))
	for id := range c.Frags {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

func compClass(name string) string {
	if rest, ok := strings.CutPrefix(name, core.ClassComponentPrefix); ok {
		return rest
	}
	if class, _, ok := strings.Cut(name, "."); ok {
		return class
	}
	return ""
}

func isClassComp(name string) bool { return strings.HasPrefix(name, core.ClassComponentPrefix) }

func compileFrag(p *Program, cc *Comp, fr *core.Fragment) *Frag {
	c := &compiler{pool: newPool(), prog: p, comp: cc, args: fr.ArgVars}
	c.stmts(fr.Body)
	for _, pc := range c.endJumps {
		c.patch(pc, len(c.code))
	}
	return &Frag{
		ID:     fr.ID,
		NArgs:  len(fr.ArgVars),
		Code:   c.code,
		Consts: c.consts,
		fails:  c.fails,
		NTemps: c.nTemps,
	}
}
