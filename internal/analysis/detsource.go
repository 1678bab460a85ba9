package analysis

import (
	"go/ast"
	"go/types"
)

// DetSource polices the determinism contract inside the simulation
// packages (config.go's simPackages): equal seeds must give
// bit-identical digests and simulated times, so between plan generation
// and digest emission nothing may consult a nondeterministic source.
// Forbidden:
//
//   - time.Now / time.Since — simulated time comes from the engine;
//   - the global math/rand source (rand.Int, rand.Shuffle, ...) —
//     all randomness flows from seeded sim.RNG streams (rand.New over
//     an explicit source remains legal);
//   - map iteration with side effects — Go randomizes range order, so
//     a loop that emits events/digests/plan entries directly from a map
//     must snapshot and sort its keys first (pure collection loops,
//     e.g. gathering keys to sort, are fine);
//   - `go` statements — a simulation runs on one engine, on the
//     goroutine that called it; host parallelism belongs across runs.
var DetSource = &Analyzer{
	Name: "detsource",
	Doc:  "simulation packages must not read wall clocks, global rand, unsorted maps, or spawn goroutines",
	Run:  runDetSource,
}

// globalRandExempt are the math/rand package functions that do not
// touch the global source: constructors over explicit seeds.
var globalRandExempt = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func runDetSource(pass *Pass) error {
	if !inSimPackages(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.SelectorExpr:
				checkForbiddenSelector(pass, st)
			case *ast.GoStmt:
				pass.Reportf(st.Pos(), "go statement in a simulation package; a simulation runs on one engine, on its caller's goroutine")
			case *ast.RangeStmt:
				checkMapRange(pass, st)
			}
			return true
		})
	}
	return nil
}

func checkForbiddenSelector(pass *Pass, sel *ast.SelectorExpr) {
	pkg := pkgNameOf(pass.Info, sel.X)
	if pkg == nil {
		return
	}
	switch pkg.Path() {
	case "time":
		if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
			pass.Reportf(sel.Pos(), "wall-clock time.%s in a simulation package; simulated time comes from the engine (sim.Engine.Now)", sel.Sel.Name)
		}
	case "math/rand", "math/rand/v2":
		if globalRandExempt[sel.Sel.Name] {
			return
		}
		// Only functions draw from the global source; type and const
		// references (rand.Rand, rand.Source) are fine.
		if obj := pass.Info.Uses[sel.Sel]; obj != nil {
			if _, isFunc := obj.(*types.Func); !isFunc {
				return
			}
		}
		pass.Reportf(sel.Pos(), "global math/rand source (rand.%s) in a simulation package; draw from a seeded sim.RNG stream", sel.Sel.Name)
	}
}

// checkMapRange flags iteration over a map whose body has side effects
// beyond collecting into locals: Go randomizes range order, so any
// call/send inside the loop feeds downstream state in nondeterministic
// order. The sanctioned shape — append keys to a slice, sort, iterate
// the slice — has a call-free map loop and passes.
func checkMapRange(pass *Pass, st *ast.RangeStmt) {
	tv, ok := pass.Info.Types[st.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	var effect ast.Node
	ast.Inspect(st.Body, func(n ast.Node) bool {
		if effect != nil {
			return false
		}
		switch c := n.(type) {
		case *ast.CallExpr:
			if isPureCollectionCall(pass.Info, c) {
				return true
			}
			effect = c
			return false
		case *ast.SendStmt:
			effect = c
			return false
		}
		return true
	})
	if effect != nil {
		pass.Reportf(st.For, "map iteration with side effects in a simulation package; range order is randomized — snapshot the keys, sort, then iterate")
	}
}

// isPureCollectionCall reports whether call cannot observe iteration
// order downstream: builtins (append/len/cap/...) and type conversions.
func isPureCollectionCall(info *types.Info, call *ast.CallExpr) bool {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return true // type conversion
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}
