package analysis

import "go/types"

// NeverSet is writeonly's rule turned round: every option needs a
// setter. It flags a field of a package-level named struct type declared
// in a non-test file under internal/ that no non-test file of the module
// sets, counting setters over deadexport's caller set. Such a field is
// zero in every real run; tests and examples that set it are no users.
//
// A field is set by the left-hand side of an assignment or op-assignment
// (through a pointer too), the operand of ++/--, a composite-literal
// element (keyed or positional), & applied to it, slicing it when it is
// an array, and a pointer-receiver method called on it; a write to a
// field of a struct-valued field sets that field too (s.stats.n++ sets
// stats). Embedded fields, anonymous struct types and types declared in
// test files are out of scope, as for writeonly. A field filled by a
// setter the lint cannot see (encoding/json, another package's tests) is
// waived with `//tclint:allow neverset <reason>`.
var NeverSet = &Analyzer{
	Name: "neverset",
	Doc:  "a field of a named struct type under internal/ needs a setter in a non-test file of the module",
	Run:  runNeverSet,
}

func runNeverSet(pass *Pass) error {
	_, set := pass.callers.fieldUses()
	eachStruct(pass, func(name string, _ types.Type, st *types.Struct) {
		for i := 0; i < st.NumFields(); i++ {
			if fld := st.Field(i); !set[fld] && !fld.Embedded() {
				pass.Reportf(fld.Pos(), "field %s.%s is never set in a non-test file of the module", name, fld.Name())
			}
		}
	})
	return nil
}
