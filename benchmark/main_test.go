package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is generated (`-manifest`); a metric added to the tables
// without regenerating it fails here.
func TestManifestIsCommitted(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the metric tables; regenerate it with `bash benchmark/run.sh -manifest > BENCHMARK.json`")
	}
}

func TestManifestKeepsTheContract(t *testing.T) {
	doc, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(doc) > 64<<10 {
		t.Errorf("manifest is %d bytes, over 64 KiB", len(doc))
	}
	if n := len(workloadList); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadList {
		name(w.name)
		if w.why == "" || len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	var setupBound, maxBound float64
	for _, m := range concat(endToEnd, perLayer) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	for _, m := range perLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s has bound %v, want the largest (%v)", setupBound, maxBound)
	}
}

// shortRun pushes one workload through the whole pipeline at 8 images.
func shortRun(t *testing.T, w *workload, trace bool) *result {
	t.Helper()
	res, stacks, err := run(runConfig{
		workload: w, seed: 7, seconds: 0.02, trace: trace, short: true, probeBudget: 200 * time.Microsecond,
	}, newSpanLog(time.Now()))
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if trace != (stacks != nil) {
		t.Errorf("%s: trace=%v but profile stacks nil=%v", w.name, trace, stacks == nil)
	}
	if res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: failed=%d attempted=%d", w.name, res.Failed, res.Attempted)
	}
	return res
}

// The names a run emits are the names BENCHMARK.json declares, each with
// its unit, for every workload and both values of --trace.
func TestEveryWorkloadEmitsTheDeclaredMetrics(t *testing.T) {
	for i := range workloadList {
		w := &workloadList[i]
		for _, trace := range []bool{false, true} {
			res := shortRun(t, w, trace)
			table := endToEnd
			if trace {
				table = perLayer
			}
			line, err := json.Marshal(res.driverLine(table))
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct   *bool
				Attempted *int64
				Failed    *int64
				Metrics   map[string]metricValue
			}
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("%s: result line: %v", w.name, err)
			}
			if got.Correct == nil || got.Attempted == nil || got.Failed == nil {
				t.Errorf("%s: result line lacks a key: %s", w.name, line)
			}
			if len(got.Metrics) != len(table) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.name, trace, len(got.Metrics), len(table))
			}
			for _, m := range table {
				v, ok := got.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", w.name, trace, m.Name)
				} else if v.Unit != m.Unit {
					t.Errorf("%s: metric %s has unit %q, declared %q", w.name, m.Name, v.Unit, m.Unit)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: metric %s = %v", w.name, m.Name, v.Value)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, m.Name, v.Value)
				}
			}
			if !trace {
				continue
			}
			if res.Metrics["profile.samples"].Value > 0 {
				sum := 0.0
				for _, m := range exclusiveShares {
					sum += res.Metrics[m.Name].Value
				}
				if math.Abs(sum-1) > 0.01 {
					t.Errorf("%s: exclusive CPU shares sum to %.4f, want 1.00 ± 0.01", w.name, sum)
				}
			}
			if w.reference != "" {
				if _, ok := res.Metrics["trace.enabled_overhead_frac"]; !ok {
					t.Errorf("%s: no trace.enabled_overhead_frac against %s", w.name, w.reference)
				}
			}
		}
	}
}

// Same seed, same bytes: a rep whose output differs from the first in any
// field is a hard failure, and a wrong answer counts as failed operations.
func TestCorruptedResultsAreCaught(t *testing.T) {
	for i := range workloadList {
		w := &workloadList[i]
		in, err := w.generate(3, true)
		if err != nil {
			t.Fatal(err)
		}
		out, err := in.run()
		if err != nil {
			t.Fatal(err)
		}
		again, err := in.run()
		if err != nil {
			t.Fatal(err)
		}
		if err := sameOutput(out, again); err != nil {
			t.Errorf("%s: two honest reps differ: %v", w.name, err)
		}
		if failed, err := in.verify(out); err != nil || failed != 0 {
			t.Errorf("%s: honest output: failed=%d err=%v", w.name, failed, err)
		}

		again.Report.EventsRun++
		if sameOutput(out, again) == nil {
			t.Errorf("%s: a Report differing in EventsRun passed the determinism check", w.name)
		}
		again.Report.EventsRun--
		again.Report.VirtualTime++
		if sameOutput(out, again) == nil {
			t.Errorf("%s: a Report differing in VirtualTime passed the determinism check", w.name)
		}

		bad := *out
		switch w.name {
		case "ra-fs":
			bad.Mismatches = 5 // function shipping is atomic: any mismatch fails
		case "ra-gup":
			bad.Mismatches = (shortImages<<raGUPTableBits)/10 + 1 // past the tolerated tenth of the table
		case "uts":
			bad.Nodes--
			bad.NodeSum--
		default:
			bad.SLO.Completed--
		}
		if failed, err := in.verify(&bad); err != nil || failed == 0 {
			t.Errorf("%s: corrupted answer: failed=%d err=%v, want failed > 0", w.name, failed, err)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(values, n=4) for these inputs
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, med, q3 := quartiles(c.in)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	mk := func(ops, events, iqr float64) *result {
		r := &result{Workload: "ra-fs", Seed: 1, Metrics: map[string]metricValue{}, Reps: repStats{IQRFrac: iqr}}
		r.set("ops_per_s", ops)
		r.set("sim.events", events)
		return r
	}
	write := func(r *result) string {
		dir := t.TempDir()
		if err := writeJSON(filepath.Join(dir, "ra-fs.seed1.trace0.json"), r); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	base := write(mk(1000, 500, 0.02))

	var buf bytes.Buffer
	if err := compareDirs(&buf, base, write(mk(980, 500, 0.03))); err != nil {
		t.Errorf("2%% slower, same events: %v", err)
	}
	if !strings.Contains(buf.String(), "within bound") {
		t.Errorf("2%% slower not reported within bound:\n%s", buf.String())
	}

	buf.Reset()
	if err := compareDirs(&buf, base, write(mk(500, 500, 0.03))); err != nil {
		t.Errorf("half the speed is WORSE, not an error: %v", err)
	}
	if !strings.Contains(buf.String(), "WORSE") {
		t.Errorf("half the speed not reported WORSE:\n%s", buf.String())
	}

	buf.Reset()
	if err := compareDirs(&buf, base, write(mk(500, 500, 0.30))); err != nil {
		t.Errorf("noisy side: %v", err)
	}
	if !strings.Contains(buf.String(), "UNRESOLVED") || strings.Contains(buf.String(), "WORSE") {
		t.Errorf("noisy side not reported UNRESOLVED:\n%s", buf.String())
	}

	buf.Reset()
	if err := compareDirs(&buf, base, write(mk(1000, 501, 0.02))); err == nil {
		t.Errorf("an exact metric differs and -compare returned nil:\n%s", buf.String())
	}
}
