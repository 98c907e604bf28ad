package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"sigil/internal/lint/analysis"
)

// atomicfieldScope lists the packages whose atomic-bearing structs the
// analyzer guards. telemetry.Metrics is the shared single-writer counter
// block sampled from the interpreter's poll point. core holds no atomics
// (the tool state that feeds Metrics is plain, single-goroutine data); it
// stays in scope so any atomic added to it is held to the same contract.
var atomicfieldScope = []string{"internal/telemetry", "internal/core"}

// Atomicfield enforces the telemetry memory model: fields of sync/atomic
// type declared in internal/telemetry or internal/core must only be
// touched through their atomic methods (Load/Store/Add/...), and structs
// containing such fields must never be copied by value — a copy silently
// forks the counters, so readers watch a frozen snapshot while the run
// writes somewhere else. This is the lock-free Metrics contract from the
// run-telemetry PR, checked mechanically.
var Atomicfield = &analysis.Analyzer{
	Name: "atomicfield",
	Doc: "require atomic access to sync/atomic fields of telemetry/core structs " +
		"and forbid copying the structs that contain them",
	Run: runAtomicfield,
}

func runAtomicfield(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		checkAtomicSelections(pass, f)
		checkAtomicCopies(pass, f)
	}
	return nil, nil
}

// isAtomicType reports whether t is a named type from sync/atomic
// (atomic.Uint64, atomic.Int64, atomic.Value, ...).
func isAtomicType(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// guardedStruct returns the named struct type (with its name for
// diagnostics) if t is — or contains, recursively through embedded
// structs and arrays — an atomic field, and the struct is declared in one
// of the guarded packages. Pointers, slices, maps and channels do not
// propagate: copying a pointer to a Metrics is fine, copying a Metrics is
// not.
func guardedStruct(t types.Type) (string, bool) {
	return guardedStructRec(t, map[types.Type]bool{})
}

// fieldHoldsAtomic reports whether a field of this type embeds atomic
// state directly: an atomic itself or an array of them. Arrays are copied
// element-wise, so an array of atomics forks exactly like a single one.
func fieldHoldsAtomic(t types.Type) bool {
	t = types.Unalias(t)
	if isAtomicType(t) {
		return true
	}
	if arr, ok := t.(*types.Array); ok {
		return fieldHoldsAtomic(arr.Elem())
	}
	return false
}

func guardedStructRec(t types.Type, seen map[types.Type]bool) (string, bool) {
	t = types.Unalias(t)
	if seen[t] {
		return "", false
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Named:
		obj := u.Obj()
		if obj.Pkg() == nil || !inScope(obj.Pkg().Path(), atomicfieldScope) {
			return "", false
		}
		st, ok := u.Underlying().(*types.Struct)
		if !ok {
			return "", false
		}
		for i := 0; i < st.NumFields(); i++ {
			ft := st.Field(i).Type()
			if fieldHoldsAtomic(ft) {
				return obj.Name(), true
			}
			if _, ok := guardedStructRec(ft, seen); ok {
				return obj.Name(), true
			}
		}
	case *types.Array:
		return guardedStructRec(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if fieldHoldsAtomic(u.Field(i).Type()) {
				return "struct", true
			}
			if name, ok := guardedStructRec(u.Field(i).Type(), seen); ok {
				return name, true
			}
		}
	}
	return "", false
}

// checkAtomicSelections flags selections of atomic-typed fields used as
// plain values: anything other than an immediate method access
// (m.Instrs.Load()) or taking the address (&m.Instrs).
func checkAtomicSelections(pass *analysis.Pass, f *ast.File) {
	walkStack(f, func(n ast.Node, stack []ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s := pass.TypesInfo.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal || !isAtomicType(s.Obj().Type()) {
			return true
		}
		recv := s.Recv()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok || named.Obj().Pkg() == nil || !inScope(named.Obj().Pkg().Path(), atomicfieldScope) {
			return true
		}
		if len(stack) > 0 {
			switch parent := stack[len(stack)-1].(type) {
			case *ast.SelectorExpr:
				if parent.X == sel {
					// m.Field.Load() / .Store(...) — the atomic API.
					return true
				}
			case *ast.UnaryExpr:
				if parent.Op == token.AND {
					// &m.Field — passing the atomic by pointer is fine.
					return true
				}
			}
		}
		pass.Reportf(sel.Pos(),
			"field %s.%s has atomic type %s and must be accessed through its atomic methods (Load/Store/Add), not read or written directly",
			named.Obj().Name(), s.Obj().Name(), s.Obj().Type().String())
		return true
	})
}

// checkAtomicCopies flags by-value copies of guarded structs wherever a
// copy can happen: assignments, declarations, call arguments, returns,
// range values, composite-literal elements, and by-value parameters or
// receivers. Fresh composite literals are allowed — constructing a value
// is not copying one.
func checkAtomicCopies(pass *analysis.Pass, f *ast.File) {
	exprCopies := func(e ast.Expr) (string, bool) {
		if _, ok := e.(*ast.CompositeLit); ok {
			return "", false
		}
		tv, ok := pass.TypesInfo.Types[e]
		if !ok {
			return "", false
		}
		return guardedStruct(tv.Type)
	}
	report := func(pos token.Pos, name, how string) {
		pass.Reportf(pos,
			"%s %s by value: it contains sync/atomic fields, so a copy forks the live counters readers are watching; use a pointer",
			how, name)
	}
	checkFieldList := func(fl *ast.FieldList, how string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			tv, ok := pass.TypesInfo.Types[field.Type]
			if !ok {
				continue
			}
			if name, bad := guardedStruct(tv.Type); bad {
				report(field.Type.Pos(), name, how)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, rhs := range st.Rhs {
				if name, bad := exprCopies(rhs); bad {
					report(rhs.Pos(), name, "assignment copies")
				}
			}
		case *ast.ValueSpec:
			for _, v := range st.Values {
				if name, bad := exprCopies(v); bad {
					report(v.Pos(), name, "declaration copies")
				}
			}
		case *ast.CallExpr:
			if tv, ok := pass.TypesInfo.Types[st.Fun]; ok && tv.IsType() {
				return true // conversion, not a call
			}
			for _, arg := range st.Args {
				if name, bad := exprCopies(arg); bad {
					report(arg.Pos(), name, "call passes")
				}
			}
		case *ast.ReturnStmt:
			for _, res := range st.Results {
				if name, bad := exprCopies(res); bad {
					report(res.Pos(), name, "return copies")
				}
			}
		case *ast.RangeStmt:
			if st.Value != nil {
				// A `:=`-defined range variable is recorded in Defs, an
				// assigned one in Types; a copy happens either way.
				var vt types.Type
				if tv, ok := pass.TypesInfo.Types[st.Value]; ok {
					vt = tv.Type
				} else if id, ok := st.Value.(*ast.Ident); ok {
					if obj := pass.TypesInfo.Defs[id]; obj != nil {
						vt = obj.Type()
					}
				}
				if vt != nil {
					if name, bad := guardedStruct(vt); bad {
						report(st.Value.Pos(), name, "range copies")
					}
				}
			}
		case *ast.CompositeLit:
			for _, elt := range st.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if name, bad := exprCopies(elt); bad {
					report(elt.Pos(), name, "composite literal copies")
				}
			}
		case *ast.FuncDecl:
			checkFieldList(st.Recv, "method receiver takes")
			checkFieldList(st.Type.Params, "parameter takes")
			checkFieldList(st.Type.Results, "result returns")
		case *ast.FuncLit:
			checkFieldList(st.Type.Params, "parameter takes")
			checkFieldList(st.Type.Results, "result returns")
		}
		return true
	})
}
