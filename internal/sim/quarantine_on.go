//go:build quarantinepools

package sim

// quarantineDefault is QuarantinePools' value when a binary starts. Built
// with -tags quarantinepools it is true, so `go test -tags
// quarantinepools ./...` runs the whole suite with every released record
// quarantined.
const quarantineDefault = true
