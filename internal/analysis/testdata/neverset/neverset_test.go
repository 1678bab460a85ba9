package fixture

// A _test.go file is no setter: testSet.field stays flagged.
var _ = testSet{field: 1}.get()

// A field declared in a _test.go file is no candidate.
type testOnly struct{ unset int }
