package lintframe

// UnitcheckerMain exposes the vet-unit entry point to the external test
// package, which runs it with a real analyzer (an analyzer package imports
// lintframe, so that test cannot live in this one).
var UnitcheckerMain = unitcheckerMain
