package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeadExport enforces ROADMAP aim 2's deletion rule: every name needs a
// caller or must go. It flags an exported package-level name, or an
// exported method of a package-level type, declared in a non-test file
// of a package under internal/ that no non-test file of the module
// references. Callers are counted across the whole module (cmd/,
// examples/ and benchmark/ included), whatever packages were named.
//
// Not flagged:
//
//   - members of an iota const group, which name positions in a
//     sequence rather than values someone calls;
//   - methods reached through an instantiation of a generic type (the
//     use names the instantiated method; its origin is the declaration);
//   - methods that make a type satisfy an interface type in the type
//     info of the module or of a package it imports, directly or by
//     promotion through an embedded field — the interface is the caller.
//
// A name kept for another package's tests is waived with
// `//tclint:allow deadexport <reason>`.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc:  "an exported name under internal/ needs a caller in a non-test file of the module",
	Run:  runDeadExport,
}

func runDeadExport(pass *Pass) error {
	if !underInternal(pass.Pkg.Path()) {
		return nil
	}
	live := pass.callers.liveObjects()
	report := func(id *ast.Ident, kind string) {
		obj := pass.Info.Defs[id]
		if obj == nil || live[obj] {
			return
		}
		name := id.Name
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				name = typeName(recv.Type()) + "." + name
			}
		}
		pass.Reportf(id.Pos(), "exported %s %s has no caller in a non-test file of the module", kind, name)
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				kind := "func"
				if d.Recv != nil {
					kind = "method"
				}
				if d.Name.IsExported() {
					report(d.Name, kind)
				}
			case *ast.GenDecl:
				iotaGroup := false
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							report(s.Name, "type")
						}
					case *ast.ValueSpec:
						if d.Tok == token.CONST && len(s.Values) > 0 {
							iotaGroup = usesIota(pass.Info, s.Values)
						}
						if d.Tok == token.CONST && iotaGroup {
							continue
						}
						for _, id := range s.Names {
							if id.IsExported() {
								report(id, d.Tok.String())
							}
						}
					}
				}
			}
		}
	}
	return nil
}

// underInternal reports whether an import path lies under internal/,
// where deadexport, writeonly and neverset apply.
func underInternal(path string) bool {
	return strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/")
}

// A callerSet is the package set whose non-test files count as callers,
// with the objects they keep alive and the fields they read and set
// computed on first use.
type callerSet struct {
	pkgs        []*Package
	live        map[types.Object]bool
	reads, sets map[types.Object]bool
}

func (cs *callerSet) add(pkg *Package) {
	cs.pkgs = append(cs.pkgs, pkg)
	cs.live, cs.reads, cs.sets = nil, nil, nil
}

// liveObjects returns every object a non-test file of the set uses,
// plus every method that makes a named type of the set satisfy an
// interface type the set or its imports mention.
func (cs *callerSet) liveObjects() map[types.Object]bool {
	if cs.live != nil {
		return cs.live
	}
	live := make(map[types.Object]bool)
	ifaces := make(map[*types.Interface]bool)
	addIface := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > n.TypeArgs().Len() {
			return // uninstantiated generic interface
		}
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	var named []types.Type
	addIface(types.Universe.Lookup("error").Type())
	for _, pkg := range cs.pkgs {
		inTest := testPositions(pkg)
		for id, obj := range pkg.Info.Uses {
			if !inTest(id.Pos()) {
				live[origin(obj)] = true
			}
		}
		for e, tv := range pkg.Info.Types {
			if !inTest(e.Pos()) {
				addIface(tv.Type)
			}
		}
		for id, obj := range pkg.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() && !inTest(id.Pos()) {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					named = append(named, n)
				}
			}
		}
		for id, inst := range pkg.Info.Instances {
			if _, ok := inst.Type.(*types.Named); ok && !inTest(id.Pos()) {
				named = append(named, inst.Type)
			}
		}
		for _, imp := range pkg.Types.Imports() {
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					addIface(tn.Type())
				}
			}
		}
	}
	for _, t := range named {
		if types.IsInterface(t) {
			continue
		}
		for _, recv := range []types.Type{t, types.NewPointer(t)} {
			mset := types.NewMethodSet(recv)
			for it := range ifaces {
				first := it.Method(0)
				if mset.Lookup(first.Pkg(), first.Name()) == nil || !types.Implements(recv, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if obj, _, _ := types.LookupFieldOrMethod(recv, false, m.Pkg(), m.Name()); obj != nil {
						live[origin(obj)] = true
					}
				}
			}
		}
	}
	cs.live = live
	return live
}

// origin maps a method or field of an instantiated generic type back to
// its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// testPositions returns a predicate for "pos lies in one of pkg's
// _test.go files" (only fixtures load test files beside the package).
func testPositions(pkg *Package) func(token.Pos) bool {
	var tests []*ast.File
	for _, f := range pkg.Files {
		if isTestFile(pkg.Fset, f) {
			tests = append(tests, f)
		}
	}
	return func(pos token.Pos) bool {
		for _, f := range tests {
			if f.FileStart <= pos && pos <= f.FileEnd {
				return true
			}
		}
		return false
	}
}

func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go")
}

// usesIota reports whether a const spec's values mention iota.
func usesIota(info *types.Info, values []ast.Expr) bool {
	found := false
	for _, v := range values {
		ast.Inspect(v, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] == types.Universe.Lookup("iota") {
				found = true
			}
			return !found
		})
	}
	return found
}

// typeName renders a receiver type without its pointer or package.
func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}
