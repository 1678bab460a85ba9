package analysis

import (
	"go/ast"
	"go/types"
)

// ScratchEscape enforces the scratch-lifetime rules from the ROADMAP
// pooling tables: the *mailbox.Delivery handed to Handler/OnProcessed/
// OnError is the receiver's per-region scratch record (overwritten by
// the next frame), and a mem.View*/ViewMut/ViewDMA slice aliases
// address-space backing that the next Alloc may remap.
// Neither may outlive the function that received it: storing one to a
// struct field, global, map/slice element, or channel, appending it,
// returning it, or capturing it in a go/defer closure is an escape.
// Flow through locals and value copies (*d) is fine.
var ScratchEscape = &Analyzer{
	Name: "scratchescape",
	Doc:  "mailbox.Delivery callback args and mem.View* slices must not escape their callback",
	Run:  runScratchEscape,
}

// scratchKind labels the diagnostic: what kind of scratch value leaked.
type scratchKind string

const (
	kindDelivery scratchKind = "scratch *mailbox.Delivery"
	kindView     scratchKind = "mem view slice"
)

func runScratchEscape(pass *Pass) error {
	// Each top-level function (declaration, or literal in a package-var
	// initializer) is walked exactly once; closures nested inside it
	// share the walk, registering their own *Delivery params into the
	// same scratch set as the walk reaches them. One walk per root means
	// one diagnostic per escape, with closure capture of outer scratch
	// still visible.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					checkScratchEscapes(pass, d.Type, d.Body)
				}
			case *ast.GenDecl:
				ast.Inspect(d, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						checkScratchEscapes(pass, lit.Type, lit.Body)
						return false
					}
					return true
				})
			}
		}
	}
	return nil
}

// registerDeliveryParams adds params typed *mailbox.Delivery to scratch.
func registerDeliveryParams(pass *Pass, scratch map[types.Object]scratchKind, typ *ast.FuncType) {
	for _, field := range typ.Params.List {
		for _, name := range field.Names {
			obj := pass.Info.Defs[name]
			if obj != nil && isPtrToNamed(obj.Type(), mailboxPath, "Delivery") {
				scratch[obj] = kindDelivery
			}
		}
	}
}

func checkScratchEscapes(pass *Pass, typ *ast.FuncType, body *ast.BlockStmt) {
	scratch := map[types.Object]scratchKind{}
	registerDeliveryParams(pass, scratch, typ)

	// One in-order walk: scratch locals (view calls, aliases) are
	// registered as their definitions appear, escapes are reported as
	// their uses appear. Straight-line flow dominates this codebase;
	// a back-edge alias defined after its use is out of scope.
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			registerDeliveryParams(pass, scratch, st.Type)
		case *ast.AssignStmt:
			checkAssign(pass, scratch, st)
		case *ast.SendStmt:
			if kind, ok := scratch[useOf(pass.Info, st.Value)]; ok {
				pass.Reportf(st.Value.Pos(), "%s sent on a channel; it is valid only until the callback returns", kind)
			}
		case *ast.ReturnStmt:
			for _, res := range st.Results {
				if kind, ok := scratch[useOf(pass.Info, res)]; ok {
					pass.Reportf(res.Pos(), "%s returned from its callback; copy the value instead", kind)
				}
			}
		case *ast.CallExpr:
			if id, ok := st.Fun.(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
					for i, arg := range st.Args[1:] {
						// append(dst, v...) spreads and copies the
						// elements — that is the sanctioned way to
						// retain a view's bytes, not an escape.
						if st.Ellipsis.IsValid() && i == len(st.Args)-2 {
							continue
						}
						if kind, ok := scratch[useOf(pass.Info, arg)]; ok {
							pass.Reportf(arg.Pos(), "%s appended to a slice; it is valid only until the callback returns", kind)
						}
					}
				}
			}
		case *ast.GoStmt:
			reportCaptured(pass, scratch, st.Call, "goroutine")
			return false // captured uses reported once, not re-walked
		case *ast.DeferStmt:
			reportCaptured(pass, scratch, st.Call, "deferred call")
			return false
		}
		return true
	})
}

// checkAssign handles one assignment: registers aliases (v := d,
// v, err := as.View(...)) and reports escaping stores (x.f = d,
// m[k] = d, global = d).
func checkAssign(pass *Pass, scratch map[types.Object]scratchKind, st *ast.AssignStmt) {
	// View-call definitions: v, err := as.View/ViewMut/ViewDMA(...).
	if len(st.Rhs) == 1 {
		if call, ok := st.Rhs[0].(*ast.CallExpr); ok && isViewCall(pass.Info, call) && len(st.Lhs) > 0 {
			if id, ok := st.Lhs[0].(*ast.Ident); ok {
				if obj := pass.Info.Defs[id]; obj != nil {
					scratch[obj] = kindView
				} else if obj := pass.Info.Uses[id]; obj != nil && obj.Parent() != nil && obj.Parent() != pass.Pkg.Scope() {
					scratch[obj] = kindView
				}
			}
			return
		}
	}
	if len(st.Lhs) != len(st.Rhs) {
		return
	}
	for i, rhs := range st.Rhs {
		obj := useOf(pass.Info, rhs)
		kind, isScratch := scratch[obj]
		if !isScratch {
			continue
		}
		switch lhs := st.Lhs[i].(type) {
		case *ast.SelectorExpr:
			pass.Reportf(rhs.Pos(), "%s stored to field %s; it is valid only until the callback returns — copy the value instead", kind, lhs.Sel.Name)
		case *ast.IndexExpr:
			pass.Reportf(rhs.Pos(), "%s stored into a map or slice element; it is valid only until the callback returns", kind)
		case *ast.StarExpr:
			pass.Reportf(rhs.Pos(), "%s stored through a pointer; it is valid only until the callback returns", kind)
		case *ast.Ident:
			if target := pass.Info.Defs[lhs]; target != nil {
				scratch[target] = kind // v := d — local alias, fine, tracked
				continue
			}
			target := pass.Info.Uses[lhs]
			if target == nil {
				continue
			}
			if target.Parent() == pass.Pkg.Scope() {
				pass.Reportf(rhs.Pos(), "%s stored to package-level var %s; it is valid only until the callback returns", kind, lhs.Name)
			} else {
				scratch[target] = kind // v = d — local alias via plain assign
			}
		}
	}
}

// reportCaptured flags scratch identifiers referenced anywhere in a
// go/defer call (function, arguments, or closure body): the call runs
// after the callback has returned and the scratch has been reused.
func reportCaptured(pass *Pass, scratch map[types.Object]scratchKind, call *ast.CallExpr, what string) {
	ast.Inspect(call, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if kind, ok := scratch[pass.Info.Uses[id]]; ok {
			pass.Reportf(id.Pos(), "%s captured by a %s that outlives the callback", kind, what)
		}
		return true
	})
}

// isViewCall reports whether call is as.View/ViewMut/ViewDMA on a
// *mem.AddressSpace.
func isViewCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "View", "ViewMut", "ViewDMA":
	default:
		return false
	}
	recv := methodRecv(info, sel)
	return recv != nil && isPtrToNamed(recv, memPath, "AddressSpace")
}
