package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compareDirs reads two result sets and prints, per result file and
// metric, B against A. End-to-end metrics are held to their bound, and
// are UNRESOLVED when either side's reps were noisy; an exact metric that
// differs is an error, because two runs of one seed must agree on it.
func compareDirs(w io.Writer, dirA, dirB string) error {
	a, err := loadResults(dirA)
	if err != nil {
		return err
	}
	b, err := loadResults(dirB)
	if err != nil {
		return err
	}
	var names []string
	for name := range a {
		if _, ok := b[name]; ok {
			names = append(names, name)
		} else {
			fmt.Fprintf(w, "%s: only in %s\n", name, dirA)
		}
	}
	for name := range b {
		if _, ok := a[name]; !ok {
			fmt.Fprintf(w, "%s: only in %s\n", name, dirB)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no result file is in both %s and %s", dirA, dirB)
	}
	sort.Strings(names)
	var differing []string
	for _, name := range names {
		differing = append(differing, compareResults(w, name, a[name], b[name])...)
	}
	if len(differing) > 0 {
		return fmt.Errorf("exact metrics differ: %s", strings.Join(differing, ", "))
	}
	return nil
}

// loadResults reads every result file of dir, keyed by file name.
func loadResults(dir string) (map[string]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]*result{}
	for _, p := range paths {
		if strings.HasSuffix(p, ".spans.json") {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Workload == "" || r.Metrics == nil {
			return nil, fmt.Errorf("%s: not a benchmark result", p)
		}
		out[filepath.Base(p)] = &r
	}
	if len(out) == 0 {
		return nil, errors.New("no result files in " + dir)
	}
	return out, nil
}

// compareResults prints one file's rows and returns the exact metrics
// that differ, qualified by file.
func compareResults(w io.Writer, file string, a, b *result) (differing []string) {
	fmt.Fprintf(w, "\n%s  (rep IQR/median: A %.3f, B %.3f)\n", file, a.Reps.IQRFrac, b.Reps.IQRFrac)
	fmt.Fprintf(w, "  %-32s %14s %14s %9s %7s  %s\n", "metric", "A", "B", "B vs A", "bound", "verdict")
	noisy := a.noisy() || b.noisy()
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range table {
			va, okA := a.Metrics[m.Name]
			vb, okB := b.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			// worse > 0 means B is worse than A by that share of A.
			worse := 0.0
			if va.Value != 0 {
				worse = (vb.Value - va.Value) / va.Value
				if m.Better == "higher" {
					worse = -worse
				}
			}
			bound, verdict := "", ""
			switch {
			case m.Exact:
				bound, verdict = "exact", "="
				if va.Value != vb.Value {
					verdict = "DIFFERS"
					differing = append(differing, file+":"+m.Name)
				}
			case m.Bound > 0:
				bound = fmt.Sprintf("%.0f%%", m.Bound*100)
				switch {
				case noisy && m.Timed:
					verdict = "UNRESOLVED (noisy host)"
				case worse > m.Bound:
					verdict = "WORSE"
				default:
					verdict = "within bound"
				}
			}
			fmt.Fprintf(w, "  %-32s %14.6g %14.6g %+8.2f%% %7s  %s\n", m.Name, va.Value, vb.Value, worse*100, bound, verdict)
		}
	}
	return differing
}
