// Package suppressfix seeds suppression comments next to live ones: a key
// that names no analyzer is orphaned whichever analyzers run.
package suppressfix

func stale() int {
	//nsmac:retired-ok the analyzer this key named is gone // want "orphaned //nsmac:retired-ok: no analyzer has the suppression key"
	x := 1
	//nsmac:nondeterminism-ok a key of an analyzer outside the selection is live
	x++
	//nsmac:rngstream-ok a live key that suppresses nothing is not orphaned
	return x
}
