package bench

import (
	"encoding/json"
	"io"
)

// Sweeps is the results/sweeps.json document: the three regression
// sweeps at their committed options. Every number in it is virtual-time
// model output, so it regenerates byte for byte and
// `go run ./cmd/figures -check` compares it whole.
type Sweeps struct {
	Coalesce CoalesceReport
	Load     LoadReport
	Recovery RecoveryReport
}

// RunSweeps runs the coalescing, load and recovery sweeps at their
// default options.
func RunSweeps() (Sweeps, error) {
	var s Sweeps
	var err error
	if s.Coalesce, err = Coalesce(DefaultCoalesce()); err != nil {
		return s, err
	}
	if s.Load, err = Load(DefaultLoad()); err != nil {
		return s, err
	}
	s.Recovery, err = Recovery(DefaultRecovery())
	return s, err
}

// WriteJSON emits the document as indented JSON.
func (s Sweeps) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
