//go:build race

package sim

// GoRace reports whether the binary was built with Go's race detector
// (-race). Tests that pin allocation counts skip themselves under it:
// the instrumented build allocates differently.
const GoRace = true
