// Command figures is the one generator, and the one check, of every
// committed virtual-time number: the paper's figures (Figs. 2/3, 12–14,
// 16–18), the regression sweeps and two large UTS outputs, one file each
// under results/. Each output is one registry line: a name, a file and
// the function that renders it.
//
//	go run ./cmd/figures                      # rewrite the default set in results/
//	go run ./cmd/figures -only fig13,fig14    # rewrite two outputs
//	go run ./cmd/figures -check               # regenerate, compare with results/
//	go run ./cmd/figures -check -only fig17-large,uts-1024-d12
//
// Every output is model output in virtual time, so it regenerates byte
// for byte at any GOMAXPROCS: a -check that fails means the model moved.
// The large outputs (tens of seconds each) run only when -only names
// them.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	caf "caf2go"
	"caf2go/internal/bench"
)

// output is one committed file and the function that renders it.
type output struct {
	name   string
	file   string // under -out
	large  bool   // run only when -only names it
	render func(w io.Writer) error
}

var outputs = []output{
	{"fig2-3", "fig2-3.tsv", false, figure(func() (bench.Figure, error) { return bench.StealRoundTrips(bench.DefaultSteal()) })},
	{"fig12", "fig12.tsv", false, figure(func() (bench.Figure, error) { return bench.Fig12(bench.DefaultFig12()) })},
	{"fig13", "fig13.tsv", false, figure(func() (bench.Figure, error) { return bench.Fig13(bench.DefaultFig13()) })},
	{"fig14", "fig14.tsv", false, figure(func() (bench.Figure, error) { return bench.Fig14(bench.DefaultFig14()) })},
	{"fig16", "fig16.tsv", false, figure(func() (bench.Figure, error) { return bench.Fig16(bench.DefaultFig16()) })},
	{"fig17", "fig17.tsv", false, figure(func() (bench.Figure, error) { return bench.Fig17(bench.DefaultFig17()) })},
	{"fig18", "fig18.tsv", false, figure(func() (bench.Figure, error) { return bench.Fig18(bench.DefaultFig18()) })},
	{"sweeps", "sweeps.json", false, func(w io.Writer) error {
		s, err := bench.RunSweeps()
		if err != nil {
			return err
		}
		return s.WriteJSON(w)
	}},
	{"fig17-large", "fig17-large.tsv", true, figure(func() (bench.Figure, error) {
		return bench.Fig17(bench.UTSOpts{Cores: []int{64, 128, 256, 512, 1024}, MaxDepth: 11, Seed: 1})
	})},
	{"uts-1024-d12", "uts-1024-d12.txt", true, func(w io.Writer) error {
		_, err := bench.RunUTS(w, caf.Config{Images: 1024, Seed: 1}, 12, true)
		return err
	}},
}

func figure(run func() (bench.Figure, error)) func(io.Writer) error {
	return func(w io.Writer) error {
		fig, err := run()
		if err != nil {
			return err
		}
		fig.Render(w)
		return nil
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is the testable CLI body: it returns the process exit code (0 ok,
// 1 a failed run or check, 2 bad usage) and logs to stderr, one line per
// output and one per file a check finds different or missing.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("out", "results", "directory of the committed outputs")
	only := fs.String("only", "", "comma-separated outputs to run (default: all but the large ones)")
	check := fs.Bool("check", false, "regenerate into a temp dir and compare each file byte for byte with -out")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "figures: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	sel, err := selectOutputs(*only)
	if err != nil {
		fmt.Fprintf(stderr, "figures: %v\n", err)
		return 2
	}

	gen, differ := *dir, 0
	if *check {
		if gen, err = os.MkdirTemp("", "figures-check-"); err != nil {
			fmt.Fprintf(stderr, "figures: %v\n", err)
			return 1
		}
		defer func() {
			if differ == 0 { // keep the regenerated copies of a failed check
				os.RemoveAll(gen)
			}
		}()
	} else if err := os.MkdirAll(gen, 0o755); err != nil {
		fmt.Fprintf(stderr, "figures: %v\n", err)
		return 1
	}
	for _, o := range sel {
		start := time.Now()
		var buf bytes.Buffer
		if err := o.render(&buf); err != nil {
			fmt.Fprintf(stderr, "figures: %s: %v\n", o.name, err)
			return 1
		}
		path := filepath.Join(gen, o.file)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			fmt.Fprintf(stderr, "figures: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "figures: %s -> %s (%v)\n", o.name, path, time.Since(start).Round(time.Millisecond))
		if !*check {
			continue
		}
		committed := filepath.Join(*dir, o.file)
		switch old, err := os.ReadFile(committed); {
		case err != nil:
			fmt.Fprintf(stderr, "figures: %s is missing: %v\n", committed, err)
			differ++
		case !bytes.Equal(old, buf.Bytes()):
			fmt.Fprintf(stderr, "figures: %s differs from the regenerated %s\n", committed, path)
			differ++
		}
	}
	if differ > 0 {
		fmt.Fprintf(stderr, "figures: %d of %d files differ or are missing; regenerated copies kept in %s\n", differ, len(sel), gen)
		return 1
	}
	return 0
}

// selectOutputs returns the outputs only names, in its order, or every
// output but the large ones when only is empty.
func selectOutputs(only string) ([]output, error) {
	var sel []output
	if only == "" {
		for _, o := range outputs {
			if !o.large {
				sel = append(sel, o)
			}
		}
		return sel, nil
	}
next:
	for _, n := range strings.Split(only, ",") {
		for _, o := range outputs {
			if o.name == n {
				sel = append(sel, o)
				continue next
			}
		}
		names := make([]string, len(outputs))
		for i, o := range outputs {
			names[i] = o.name
		}
		return nil, fmt.Errorf("unknown output %q in -only (valid: %s)", n, strings.Join(names, ", "))
	}
	return sel, nil
}
