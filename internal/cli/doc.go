// Package cli holds the testable core of the command-line tools: parsing
// protocol settings, byte sizes and split names, and instantiating the
// bundled protocol models and their liveness properties for cmd/mpcheck
// and cmd/mpbench.
//
// The package parses and builds; it does not judge option combinations.
// Both CLIs turn their flags into an mpbasset.Options and let
// Options.Validate — the facade's single rule set — refuse what no engine
// can honour, so a request is accepted or refused with the same reasoning
// whether it arrives through the Go API or a command line. The one flag
// rule kept here is BuildProperty's: -fair modifies a property and means
// nothing without one. The package runs before any engine does and sits
// outside the determinism contract.
package cli
