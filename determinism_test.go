package caf_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// Same seed ⇒ same bytes rests on the model never consulting anything
// the seed does not fix. TestDeterminism enforces that on the source:
// every non-test package outside benchmark/ is parsed and type-checked,
// and
//
//   - no package ranges over a map (Go randomizes map iteration order);
//
// and, in every package but the exporters (determinismExporters),
//
//   - nothing reads the wall clock (time.Now, time.Since, time.Until);
//   - nothing draws from math/rand's global source (its package-level
//     functions other than the New* constructors);
//   - nothing starts a goroutine or selects on channels (go, select);
//   - nothing imports sync or sync/atomic;
//
// and, in every package but internal/sim,
//
//   - nothing calls (*sim.Proc).Park: a proc waits in WaitWith, whose
//     Waker re-tests the wait's condition in the events that wake it.
//
// A file in determinismExempt is not checked at all, and a finding that
// matches a determinismAllow line is accepted for the reason it gives.
// DESIGN §4.16 "Determinism" says how to add one.

// determinismExporters are the packages that only write out what a run
// recorded. They may use the wall clock, goroutines and locks, and a map
// range in one needs an allowlist line.
var determinismExporters = []string{
	"internal/trace", "internal/metrics", "internal/prof", "internal/path",
	"internal/bench", "cmd/",
}

// determinismExempt are files no rule applies to.
var determinismExempt = []string{
	// Proc bodies run on coroutines leased from iter.Pull: this file is
	// the one place the simulator touches goroutines.
	"internal/sim/coro.go",
}

// determinismAllowed accepts one finding: the file, the enclosing
// function, the finding as reported, and why it does not make a run's
// output depend on more than its seed.
type determinismAllowed struct{ file, fn, what, why string }

var determinismAllow = []determinismAllowed{
	{"internal/sim/engine.go", "", "import sync/atomic",
		"onStrand is read by AssertStrand to catch a stray goroutine; it orders nothing"},

	{"internal/bench/load.go", "Load", "range over map cells",
		"each cell writes its own key of P99LocksOverShipping, also a map"},
	{"internal/metrics/metrics.go", "(*Registry).Snapshot", "range over map r.counters",
		"collects family names, sorted before use"},
	{"internal/metrics/metrics.go", "(*Registry).Snapshot", "range over map r.gauges",
		"collects family names, sorted before use"},
	{"internal/metrics/metrics.go", "(*Registry).Snapshot", "range over map r.hists",
		"collects family names, sorted before use"},
	{"internal/prof/prof.go", "StageLatencies", "range over map acc",
		"rows sorted by (kind, stage) before return"},
	{"internal/prof/prof.go", "StageLatencies", "range over map counts[k]",
		"bucket indexes sorted before use"},
	{"internal/prof/prof.go", "Blockers", "range over map rows",
		"rows sorted by (total, primitive) before return"},
	{"internal/prof/prof.go", "Blockers", "range over map shares[prim]",
		"ops sorted by (share, op id) before use"},
	{"internal/prof/prof.go", "Utilization", "range over map byPrim[i]",
		"primitives sorted by (time, name) before use"},
	{"internal/prof/render.go", "Render", "range over map p.Dropped",
		"category names sorted before printing"},
}

// determinismFinding is one rule violation.
type determinismFinding struct {
	pos  token.Position
	file string // slash-separated, relative to the module root
	fn   string // enclosing function ("" at package level)
	what string
}

func (f determinismFinding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.file, f.pos.Line, f.fn, f.what)
}

func hasPathPrefix(rel string, prefixes []string) bool {
	for _, p := range prefixes {
		if rel == strings.TrimSuffix(p, "/") || strings.HasPrefix(rel, strings.TrimSuffix(p, "/")+"/") {
			return true
		}
	}
	return false
}

// checkDeterminism type-checks one package's files and reports every
// rule violation in them; model selects the rules beyond the map one.
func checkDeterminism(fset *token.FileSet, imp types.Importer, pkgPath string, files []*ast.File, model bool) ([]determinismFinding, error) {
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(pkgPath, fset, files, info); err != nil {
		return nil, err
	}
	var out []determinismFinding
	for _, f := range files {
		report := func(n ast.Node, fn, what string) {
			pos := fset.Position(n.Pos())
			out = append(out, determinismFinding{pos: pos, file: filepath.ToSlash(pos.Filename), fn: fn, what: what})
		}
		if model {
			for _, im := range f.Imports {
				if p := strings.Trim(im.Path.Value, `"`); p == "sync" || p == "sync/atomic" {
					report(im, "", "import "+p)
				}
			}
		}
		inspect := func(root ast.Node, fn string) {
			ast.Inspect(root, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.RangeStmt:
					if _, ok := info.TypeOf(n.X).Underlying().(*types.Map); ok {
						report(n, fn, "range over map "+types.ExprString(n.X))
					}
				case *ast.GoStmt:
					if model {
						report(n, fn, "go statement")
					}
				case *ast.SelectStmt:
					if model {
						report(n, fn, "select statement")
					}
				case *ast.SelectorExpr:
					fun, ok := info.Uses[n.Sel].(*types.Func)
					if ok && fun.FullName() == "(*caf2go/internal/sim.Proc).Park" && pkgPath != "caf2go/internal/sim" {
						report(n, fn, "call of (*sim.Proc).Park")
					}
					if !model || !ok || fun.Pkg() == nil || fun.Type().(*types.Signature).Recv() != nil {
						break
					}
					switch path, name := fun.Pkg().Path(), fun.Name(); {
					case path == "time" && (name == "Now" || name == "Since" || name == "Until"):
						report(n, fn, "wall clock time."+name)
					case (path == "math/rand" || path == "math/rand/v2") && !strings.HasPrefix(name, "New"):
						report(n, fn, "global source "+path+"."+name)
					}
				}
				return true
			})
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				inspect(d, "")
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				name = "(" + types.ExprString(fd.Recv.List[0].Type) + ")." + name
			}
			inspect(fd, name)
		}
	}
	return out, nil
}

// parsePackage parses the Go files build selects in dir, plus the
// source plantedSrc, when not empty, as a file named planted.go.
func parsePackage(fset *token.FileSet, dir, plantedSrc string) ([]*ast.File, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if plantedSrc != "" {
		f, err := parser.ParseFile(fset, filepath.Join(dir, "planted.go"), plantedSrc, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// moduleDirs lists every directory of the module that may hold a
// non-test package, benchmark/ and testdata excluded.
func moduleDirs(t *testing.T) []string {
	var dirs []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || p == "benchmark") {
			return filepath.SkipDir
		}
		dirs = append(dirs, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

func TestDeterminism(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	used := make([]bool, len(determinismAllow))
	modelMapRanges := 0
	for _, dir := range moduleDirs(t) {
		files, err := parsePackage(fset, dir, "")
		if _, ok := err.(*build.NoGoError); ok {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		rel := filepath.ToSlash(dir)
		pkgPath := "caf2go"
		if rel != "." {
			pkgPath += "/" + rel
		}
		model := !hasPathPrefix(rel, determinismExporters)
		found, err := checkDeterminism(fset, imp, pkgPath, files, model)
		if err != nil {
			t.Fatalf("%s: %v", pkgPath, err)
		}
	findings:
		for _, f := range found {
			if hasPathPrefix(f.file, determinismExempt) {
				continue
			}
			if model && strings.HasPrefix(f.what, "range over map") {
				modelMapRanges++
			}
			for i, a := range determinismAllow {
				if a.file == f.file && a.fn == f.fn && a.what == f.what {
					used[i] = true
					continue findings
				}
			}
			t.Errorf("%v", f)
		}
	}
	for i, a := range determinismAllow {
		if !used[i] {
			t.Errorf("stale allowlist line: %s: %s: %s", a.file, a.fn, a.what)
		}
	}
	t.Logf("map ranges in model packages: %d", modelMapRanges)
}

// TestDeterminismCheckerCatchesPlanted plants one violation of each rule
// in the fabric package's sources and requires the checker to report
// exactly those.
func TestDeterminismCheckerCatchesPlanted(t *testing.T) {
	const planted = `package fabric

import (
	"math/rand"
	"sync"
	"time"
)

func plantedRange(m map[int]int) (n int) {
	for k := range m {
		n += k
	}
	return n
}

func plantedRest(ch chan int, mu *sync.Mutex) time.Time {
	go func() { ch <- rand.Intn(3) }()
	select {
	case <-ch:
	}
	_ = rand.New(rand.NewSource(1))
	return time.Now()
}
`
	fset := token.NewFileSet()
	files, err := parsePackage(fset, filepath.Join("internal", "fabric"), planted)
	if err != nil {
		t.Fatal(err)
	}
	found, err := checkDeterminism(fset, importer.ForCompiler(fset, "source", nil), "caf2go/internal/fabric", files, true)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range found {
		got = append(got, f.fn+": "+f.what)
	}
	want := []string{
		": import sync",
		"plantedRange: range over map m",
		"plantedRest: go statement",
		"plantedRest: global source math/rand.Intn",
		"plantedRest: select statement",
		"plantedRest: wall clock time.Now",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("checker found\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestDeterminismCheckerCatchesPlantedPark plants a Park call in the
// collect package, where it is a finding, and in the sim package, where
// it is not.
func TestDeterminismCheckerCatchesPlantedPark(t *testing.T) {
	for _, pkg := range []string{"collect", "sim"} {
		planted := "package " + pkg + `

import "caf2go/internal/sim"

func plantedPark(p *sim.Proc) { p.Park("planted") }
`
		if pkg == "sim" {
			planted = strings.ReplaceAll(strings.Replace(planted, `import "caf2go/internal/sim"`, "", 1), "sim.", "")
		}
		fset := token.NewFileSet()
		files, err := parsePackage(fset, filepath.Join("internal", pkg), planted)
		if err != nil {
			t.Fatal(err)
		}
		found, err := checkDeterminism(fset, importer.ForCompiler(fset, "source", nil), "caf2go/internal/"+pkg, files, true)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, f := range found {
			if filepath.Base(f.file) == "planted.go" {
				got = append(got, f.fn+": "+f.what)
			}
		}
		want := []string{"plantedPark: call of (*sim.Proc).Park"}
		if pkg == "sim" {
			want = nil
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: checker found %q, want %q", pkg, got, want)
		}
	}
}
