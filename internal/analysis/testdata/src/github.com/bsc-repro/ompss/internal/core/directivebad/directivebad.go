// Package directivebad is the golden case for ompssdirective: the
// escape hatch cannot be used silently or misspelled.
package directivebad

// Bare directive: no reason, so it suppresses nothing and is an error.
func Bare() int {
	/* want "//ompss:wallclock-ok needs a reason" */ //ompss:wallclock-ok
	return 1
}

// Unknown directive kind.
func Unknown() int {
	/* want "unknown directive //ompss:frobnicate" */ //ompss:frobnicate because reasons
	return 2
}

// A kind whose analyzer is gone is unknown again, reason or not.
func Retired() int {
	/* want "unknown directive //ompss:lockorder-ok" */ //ompss:lockorder-ok both paths run under the admission lock
	return 4
}

// So is the dependence-clause kind, whose contract is now checked where
// tasks run.
func RetiredDep() int {
	/* want "unknown directive //ompss:depverify-ok" */ //ompss:depverify-ok clauses come from a registered table
	return 5
}

// Reasoned directives of known kinds are fine anywhere.
func Fine() int {
	//ompss:maporder-ok documented: pure count
	return 3
}
