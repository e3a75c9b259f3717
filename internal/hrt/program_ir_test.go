package hrt

import (
	"reflect"
	"testing"

	"slicehide/internal/core"
	"slicehide/internal/corpus"
	"slicehide/internal/ir"
	"slicehide/internal/oracle"
	"slicehide/internal/slicer"
)

// TestProgramHoldsNoIR walks every value reachable from the compiled
// program of the programs the hrt goldens pin (the parent-written data dir
// fixture's, and the one with hidden globals and fields) and of every
// Table 5 kernel. The program describes itself, so nothing in it may
// reference the IR the split built it from: a serialized program has no
// IR to point into. Integer enums declared in package ir (ir.VarKind) are
// values, not references, and pass.
func TestProgramHoldsNoIR(t *testing.T) {
	progs := map[string]*core.Result{
		"stress":                    split(t, stressSrc, core.Spec{Func: "f", Seed: "a"}),
		"hidden globals and fields": durableSplit(t),
	}
	for _, k := range corpus.Kernels() {
		res, err := core.SplitProgram(oracle.MustCompile(k.Source(k.Inputs[0].Size)), k.Split, slicer.Policy{})
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		progs["kernel/"+k.Name] = res
	}
	for name, res := range progs {
		if path := irReference(reflect.ValueOf(res), "res", map[visit]bool{}); path == "" {
			t.Fatalf("%s: the walk finds no IR even in the split result", name)
		}
		if path := irReference(reflect.ValueOf(NewRegistry(res).Prog), "prog", map[visit]bool{}); path != "" {
			t.Errorf("%s: the compiled program references IR at %s", name, path)
		}
	}
}

var irPkg = reflect.TypeOf(ir.Var{}).PkgPath()

type visit struct {
	ptr uintptr
	typ reflect.Type
}

// irReference returns the path of the first non-nil pointer, interface,
// struct, map or slice reachable from v whose type is declared in package
// ir (for a pointer, whose element type is), or "" when there is none.
func irReference(v reflect.Value, path string, seen map[visit]bool) string {
	t := v.Type()
	declared := t.PkgPath() == irPkg
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return ""
		}
		if t.Elem().PkgPath() == irPkg {
			return path
		}
		key := visit{v.Pointer(), t}
		if seen[key] {
			return ""
		}
		seen[key] = true
		return irReference(v.Elem(), "(*"+path+")", seen)
	case reflect.Interface:
		if v.IsNil() {
			return ""
		}
		if declared {
			return path
		}
		return irReference(v.Elem(), path, seen)
	case reflect.Struct:
		if declared {
			return path
		}
		for i := 0; i < v.NumField(); i++ {
			if p := irReference(v.Field(i), path+"."+t.Field(i).Name, seen); p != "" {
				return p
			}
		}
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			return ""
		}
		if declared {
			return path
		}
		for i := 0; i < v.Len(); i++ {
			if p := irReference(v.Index(i), path+"[i]", seen); p != "" {
				return p
			}
		}
	case reflect.Map:
		if v.IsNil() {
			return ""
		}
		if declared {
			return path
		}
		for it := v.MapRange(); it.Next(); {
			if p := irReference(it.Key(), path+"{key}", seen); p != "" {
				return p
			}
			if p := irReference(it.Value(), path+"[k]", seen); p != "" {
				return p
			}
		}
	}
	return ""
}
