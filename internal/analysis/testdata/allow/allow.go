// Fixture: the //tclint:allow suppression path (this fixture claims a
// sim package path so detsource diagnostics are available to
// suppress). A well-formed directive with a reason suppresses exactly
// its analyzer on its own or the following line; malformed and stale
// directives are themselves lint errors.
package fixture

import "time"

// suppressed: the directive covers the next line, so the time.Now diag
// is swallowed and the directive is used — nothing reported.
func suppressed() int64 {
	//tclint:allow detsource startup banner timestamp, outside the engine's event horizon
	return time.Now().UnixNano()
}

// suppressedTrailing: same-line (trailing) directive form.
func suppressedTrailing() int64 {
	return time.Now().UnixNano() //tclint:allow detsource startup banner timestamp, outside the engine's event horizon
}

// stale: a directive whose analyzer reports nothing here must fail the
// staleness check instead of rotting silently.
func stale() int {
	//tclint:allow detsource nothing nondeterministic left on this line // want `stale //tclint:allow: no detsource diagnostic here to suppress`
	return 1
}

// unknown: a typo'd analyzer name cannot silently waive a contract.
func unknown() int {
	//tclint:allow determsource typo'd analyzer // want `unknown analyzer "determsource" in //tclint:allow`
	return 2
}

// reasonless: an allow without a reason is not an allow.
func reasonless() int {
	//tclint:allow detsource // want `//tclint:allow detsource needs a reason`
	return 3
}

// wrongAnalyzer: a directive for another analyzer does not suppress —
// the detsource diagnostic still fires, and the directive is stale.
func wrongAnalyzer() int64 {
	//tclint:allow poolownership wrong analyzer named here // want `stale //tclint:allow: no poolownership diagnostic here to suppress`
	return time.Now().UnixNano() // want `wall-clock time\.Now in a simulation package`
}
