package fixture

// A _test.go file is no caller: TestOnly stays flagged.
func useTestOnly() int { return TestOnly() }

// A name declared in a _test.go file is no candidate.
func TestHelper() {}
