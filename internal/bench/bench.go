// Package bench regenerates the paper's figures (12, 13, 14, 16, 17, 18)
// plus the Figs. 2/3 steal-round-trip motivation, on the simulated
// machine. Each FigNN function runs the workload across its parameter
// sweep and returns a Figure holding gnuplot-ready series; cmd/figures
// writes them under results/. Scales default to simulation-friendly
// sizes and stretch to the paper's full configurations via options.
package bench

import (
	"fmt"
	"io"
	"sort"

	caf "caf2go"
)

// Series is one labelled curve.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure is a reproducible figure: metadata plus its series.
type Figure struct {
	Name   string // e.g. "fig12"
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Render writes a human-readable table of the figure. Series sharing one
// X grid are printed as columns of a single table; otherwise each series
// is printed as its own gnuplot-style block.
func (f Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "# %s — %s\n", f.Name, f.Title)
	for _, n := range f.Notes {
		fmt.Fprintf(w, "# note: %s\n", n)
	}
	if len(f.Series) == 0 {
		return
	}
	if f.aligned() {
		fmt.Fprintf(w, "# %s", f.XLabel)
		for _, s := range f.Series {
			fmt.Fprintf(w, "\t%s", s.Label)
		}
		fmt.Fprintln(w)
		for i := range f.Series[0].X {
			fmt.Fprintf(w, "%g", f.Series[0].X[i])
			for _, s := range f.Series {
				fmt.Fprintf(w, "\t%.6g", s.Y[i])
			}
			fmt.Fprintln(w)
		}
		return
	}
	for _, s := range f.Series {
		fmt.Fprintf(w, "\n# series: %s\n# %s\t%s\n", s.Label, f.XLabel, f.YLabel)
		for i := range s.X {
			fmt.Fprintf(w, "%g\t%.6g\n", s.X[i], s.Y[i])
		}
	}
}

// aligned reports whether all series share the first series' X grid.
func (f Figure) aligned() bool {
	x0 := f.Series[0].X
	for _, s := range f.Series[1:] {
		if len(s.X) != len(x0) {
			return false
		}
		for i := range x0 {
			if s.X[i] != x0[i] {
				return false
			}
		}
	}
	return true
}

// Lookup finds a series by label (testing convenience).
func (f Figure) Lookup(label string) (Series, bool) {
	for _, s := range f.Series {
		if s.Label == label {
			return s, true
		}
	}
	return Series{}, false
}

// sortedRelative returns per-image work normalized by the mean, sorted
// ascending — the Fig. 16 presentation.
func sortedRelative(perImage []int64) []float64 {
	var total int64
	for _, c := range perImage {
		total += c
	}
	mean := float64(total) / float64(len(perImage))
	out := make([]float64, len(perImage))
	for i, c := range perImage {
		out[i] = float64(c) / mean
	}
	sort.Float64s(out)
	return out
}

func seconds(t caf.Time) float64 { return t.Seconds() }
