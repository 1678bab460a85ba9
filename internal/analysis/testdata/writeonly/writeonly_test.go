package fixture

// A _test.go file is no reader: testRead.field stays flagged.
func readInTest(t testRead) int { return t.field }

// A field declared in a _test.go file is no candidate.
type testOnly struct{ unread int }
