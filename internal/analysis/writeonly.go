package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// WriteOnly is deadexport's rule for struct fields: every field needs a
// reader or must go. It flags a field of a package-level named struct
// type declared in a non-test file under internal/ that no non-test file
// of the module reads, counting readers over deadexport's caller set.
//
// Writes are the left-hand side of an assignment or op-assignment, the
// operand of ++/--, and a composite-literal key; writing a field of a
// struct-valued field (s.stats.n++) writes both. Every other selector
// reads: the field it selects, each embedded field it is promoted
// through, and the struct-valued field it starts from (s.stats.n read
// reads stats). An embedded field that promotes a method is read by the
// method set. Fields of anonymous struct types are out of scope: each
// spelling of such a type declares fields of its own. A field kept for a
// reader the lint cannot see (encoding/json, another package's tests)
// is waived with `//tclint:allow writeonly <reason>`.
var WriteOnly = &Analyzer{
	Name: "writeonly",
	Doc:  "a field of a named struct type under internal/ needs a reader in a non-test file of the module",
	Run:  runWriteOnly,
}

func runWriteOnly(pass *Pass) error {
	read, _ := pass.callers.fieldUses()
	eachStruct(pass, func(name string, t types.Type, st *types.Struct) {
		promoting := promotingFields(t)
		for i := 0; i < st.NumFields(); i++ {
			if fld := st.Field(i); !read[fld] && !promoting[i] {
				pass.Reportf(fld.Pos(), "field %s.%s is written but never read in a non-test file of the module", name, fld.Name())
			}
		}
	})
	return nil
}

// eachStruct calls fn for each package-level named struct type declared
// in a non-test file of a package under internal/, where writeonly and
// neverset apply.
func eachStruct(pass *Pass, fn func(name string, t types.Type, st *types.Struct)) {
	if !underInternal(pass.Pkg.Path()) {
		return
	}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || strings.HasSuffix(pass.Fset.Position(tn.Pos()).Filename, "_test.go") {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			fn(name, tn.Type(), st)
		}
	}
}

// promotingFields returns the indices of the embedded fields a method of
// *t is promoted through.
func promotingFields(t types.Type) map[int]bool {
	out := make(map[int]bool)
	mset := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < mset.Len(); i++ {
		if idx := mset.At(i).Index(); len(idx) > 1 {
			out[idx[0]] = true
		}
	}
	return out
}

// fieldUses returns every field a non-test file of the set reads, and
// every field one sets.
func (cs *callerSet) fieldUses() (reads, sets map[types.Object]bool) {
	if cs.reads == nil {
		cs.reads, cs.sets = make(map[types.Object]bool), make(map[types.Object]bool)
		for _, pkg := range cs.pkgs {
			r := fieldReader{pkg.Info, cs.reads, cs.sets}
			for _, f := range pkg.Files {
				if !isTestFile(pkg.Fset, f) {
					ast.Inspect(f, r.visit)
				}
			}
		}
	}
	return cs.reads, cs.sets
}

// A fieldReader marks the fields an AST reads and the fields it sets,
// walking write targets with write and everything else with visit.
type fieldReader struct {
	info  *types.Info
	reads map[types.Object]bool
	sets  map[types.Object]bool
}

func (r fieldReader) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.SelectorExpr:
		sel := r.info.Selections[n]
		if sel == nil {
			break
		}
		r.markPath(sel, true)
		// A pointer-receiver method called on an addressable value takes
		// its address, as & does.
		if sel.Kind() == types.MethodVal && !sel.Indirect() {
			if _, ok := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ok {
				r.write(n.X)
			}
		}
	case *ast.AssignStmt:
		if n.Tok == token.DEFINE {
			break
		}
		for _, e := range n.Lhs {
			r.write(e)
		}
		for _, e := range n.Rhs {
			ast.Inspect(e, r.visit)
		}
		return false
	case *ast.IncDecStmt:
		r.write(n.X)
		return false
	case *ast.UnaryExpr:
		// &f sets f, and the walk below reads it.
		if n.Op == token.AND {
			r.write(n.X)
		}
	case *ast.SliceExpr:
		if isArray(r.info.TypeOf(n.X)) {
			r.write(n.X)
		}
	case *ast.CompositeLit:
		t := r.info.TypeOf(n).Underlying()
		if p, ok := t.(*types.Pointer); ok { // an elided &T in a []*T literal
			t = p.Elem().Underlying()
		}
		if st, ok := t.(*types.Struct); ok {
			for i, e := range n.Elts {
				fld := st.Field(i)
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					fld = r.info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
				}
				r.sets[origin(fld)] = true
			}
		}
	}
	return true
}

// markPath marks the embedded fields a selection is promoted through,
// and its field too when withField.
func (r fieldReader) markPath(sel *types.Selection, withField bool) {
	t, idx := sel.Recv(), sel.Index()
	if sel.Kind() != types.FieldVal {
		idx, withField = idx[:len(idx)-1], false // the last index is the method's
	}
	for i, j := range idx {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		fld := t.Underlying().(*types.Struct).Field(j)
		if i < len(idx)-1 || withField {
			r.reads[origin(fld)] = true
		}
		t = fld.Type()
	}
}

// write walks a write target. The field it selects is set; a field
// selected from a struct value, or an element of an array value, is
// written along with that value; an index, a pointer the selection goes
// through, or any other operand is read.
func (r fieldReader) write(e ast.Expr) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		r.write(x.X)
		return
	case *ast.SelectorExpr:
		if sel := r.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
			r.sets[origin(sel.Obj())] = true
			if sel.Indirect() {
				r.markPath(sel, false)
				ast.Inspect(x.X, r.visit)
			} else {
				r.write(x.X)
			}
			return
		}
	case *ast.IndexExpr:
		if isArray(r.info.TypeOf(x.X)) {
			r.write(x.X)
			ast.Inspect(x.Index, r.visit)
			return
		}
	}
	ast.Inspect(e, r.visit)
}

func isArray(t types.Type) bool {
	_, ok := t.Underlying().(*types.Array)
	return ok
}
