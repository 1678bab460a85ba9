package analysis

import (
	"go/ast"
	"go/types"
)

// PoolOwnership enforces the hand-off side of the ROADMAP pooling
// rules: Release hands a tc.Future back to its system's pool (touching
// it afterwards aliases the next Call that recycles it), and the same
// goes for address-space backings and cache-model tag arrays: Close on a
// tc.System, or Release on a mem.AddressSpace or a memsim.Hierarchy,
// puts node memory or tags on a process-wide shelf, and the next system
// built may already own them. The check is a straight-line reaching-uses
// pass over each block: any use of the handed-off variable in the
// statements after the hand-off is flagged until the variable is
// reassigned (fu = next starts a new ownership epoch).
var PoolOwnership = &Analyzer{
	Name: "poolownership",
	Doc:  "no use of a tc.Future, mem.AddressSpace or memsim.Hierarchy after Release, or of a tc.System after Close",
	Run:  runPoolOwnership,
}

func runPoolOwnership(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			block, ok := n.(*ast.BlockStmt)
			if !ok {
				return true
			}
			checkBlockHandoffs(pass, block)
			return true
		})
	}
	return nil
}

// handoff records one released object and the verb that released it.
type handoff struct {
	verb string // "Release" or "Close"
	what string // "tc.Future", "mem.AddressSpace", ...
}

func checkBlockHandoffs(pass *Pass, block *ast.BlockStmt) {
	killed := map[types.Object]handoff{}
	for _, stmt := range block.List {
		// Report uses of already-killed objects in this statement,
		// resetting ownership when the variable is plainly reassigned.
		if len(killed) > 0 {
			scanForKilledUses(pass, killed, stmt)
		}
		if obj, h, ok := handoffIn(pass, stmt); ok && obj != nil {
			killed[obj] = h
		}
	}
}

// scanForKilledUses walks one statement: every identifier resolving to
// a killed object is reported; a plain `v = ...` assignment to a killed
// object un-kills it (after its RHS — which may still use the old value
// illegally — has been scanned).
func scanForKilledUses(pass *Pass, killed map[types.Object]handoff, stmt ast.Stmt) {
	if as, ok := stmt.(*ast.AssignStmt); ok {
		for _, rhs := range as.Rhs {
			reportKilledUses(pass, killed, rhs)
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil {
					delete(killed, obj) // reassigned: new epoch
				}
			} else {
				reportKilledUses(pass, killed, lhs)
			}
		}
		return
	}
	reportKilledUses(pass, killed, stmt)
}

func reportKilledUses(pass *Pass, killed map[types.Object]handoff, n ast.Node) {
	ast.Inspect(n, func(c ast.Node) bool {
		id, ok := c.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			return true
		}
		if h, ok := killed[obj]; ok {
			pass.Reportf(id.Pos(), "use of %s %s after %s handed it back to the pool", h.what, id.Name, h.verb)
		}
		return true
	})
}

// handoffIn recognizes a hand-off statement and returns the object
// whose ownership leaves the caller.
func handoffIn(pass *Pass, stmt ast.Stmt) (types.Object, handoff, bool) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return nil, handoff{}, false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return nil, handoff{}, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, handoff{}, false
	}
	recv := methodRecv(pass.Info, sel)
	if recv == nil {
		return nil, handoff{}, false
	}
	switch {
	case sel.Sel.Name == "Release" && isPtrToNamed(recv, tcPath, "Future"):
		return useOf(pass.Info, sel.X), handoff{verb: "Release", what: "tc.Future"}, true
	case sel.Sel.Name == "Release" && isPtrToNamed(recv, memPath, "AddressSpace"):
		return useOf(pass.Info, sel.X), handoff{verb: "Release", what: "mem.AddressSpace"}, true
	case sel.Sel.Name == "Release" && isPtrToNamed(recv, memsimPath, "Hierarchy"):
		return useOf(pass.Info, sel.X), handoff{verb: "Release", what: "memsim.Hierarchy"}, true
	case sel.Sel.Name == "Close" && isPtrToNamed(recv, tcPath, "System"):
		return useOf(pass.Info, sel.X), handoff{verb: "Close", what: "tc.System"}, true
	}
	return nil, handoff{}, false
}
