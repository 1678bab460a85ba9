package analysis

import (
	"go/ast"
	"go/types"
)

// isPtrToNamed reports whether t is *pkgPath.name.
func isPtrToNamed(t types.Type, pkgPath, name string) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	return isNamed(ptr.Elem(), pkgPath, name)
}

// isNamed reports whether t is the named type pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Name() == name && pathString(obj.Pkg()) == pkgPath
}

// pkgNameOf returns the imported package an identifier refers to when
// the identifier is a package qualifier (e.g. the `time` in time.Now),
// or nil.
func pkgNameOf(info *types.Info, x ast.Expr) *types.Package {
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return nil
	}
	return pn.Imported()
}

// useOf returns the object an identifier use resolves to, or nil.
func useOf(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return info.Uses[id]
}

// methodRecv returns the receiver type of a method call expressed as a
// selector (x.M(...)), or nil when sel is not a method selection.
func methodRecv(info *types.Info, sel *ast.SelectorExpr) types.Type {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil
	}
	return s.Recv()
}
