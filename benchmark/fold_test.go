package main

import (
	"bytes"
	"crypto/sha1"
	"math"
	"os/exec"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

const (
	fnSend   = "caf2go/internal/fabric.(*Endpoint).Send"
	fnSpawn  = "caf2go.(*Image).Spawn"
	fnRunFS  = "caf2go/internal/ra.runFS.func1"
	fnRun    = "caf2go/internal/sim.(*Engine).RunUntil"
	fnResume = "caf2go/internal/sim.(*Engine).resumeProc"
	fnYield  = "caf2go/internal/sim.(*Proc).yieldToEngine"
	fnPush   = "caf2go/internal/sim.(*eventHeap).push"
	fnGet    = "caf2go.Get[go.shape.uint64]"
)

// A synthetic profile of 100 ticks with known stacks, leaf first.
var syntheticStacks = []stack{
	// mallocgc under fabric's Send is fabric's cost, and an allocation
	{frames: []string{"runtime.mallocgc", "runtime.newobject", fnSend, fnSpawn, fnRunFS, procRun}, count: 20},
	// an assist inside that allocation is GC, still charged to fabric
	{frames: []string{"runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", fnSend, fnSpawn}, count: 5},
	// the workload's own body, with crypto/sha1 beneath it
	{frames: []string{"crypto/sha1.block", "crypto/sha1.Sum", "caf2go/internal/uts.Child", procRun}, count: 25},
	// proc handoff, engine side and proc side
	{frames: []string{"runtime.chansend1", fnResume, fnRun, "caf2go.(*Machine).RunToCompletion", "main.rep"}, count: 10},
	{frames: []string{"runtime.gopark", "runtime.chanrecv1", fnYield, "caf2go/internal/sim.(*Proc).Sleep", fnGet, procRun}, count: 5},
	// a new proc waiting to be started: handoff by adjacency to Proc.run
	{frames: []string{"runtime.gopark", "runtime.chanrecv", "runtime.chanrecv1", procRun}, count: 5},
	// the event heap
	{frames: []string{fnPush, "caf2go/internal/sim.(*Engine).AtShard", fnSend}, count: 10},
	// no module frame: background GC, the scheduler, and neither
	{frames: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, count: 8},
	{frames: []string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, count: 7},
	{frames: []string{"runtime.memclrNoHeapPointers", "runtime.unknown"}, count: 3},
	// the benchmark's own verification
	{frames: []string{"reflect.deepValueEqual", "reflect.DeepEqual", "main.sameOutput", "main.rep", "main.run"}, count: 2},
}

func TestFoldSyntheticProfile(t *testing.T) {
	b := foldStacks(syntheticStacks)
	if b.samples != 100 {
		t.Fatalf("samples = %d, want 100", b.samples)
	}
	wantExclusive := map[string]float64{
		"fabric": 0.25, "workload": 0.25, "sim": 0.30,
		"gc_bg": 0.08, "sched": 0.07, "other": 0.05,
	}
	sum := 0.0
	for row, share := range b.exclusive {
		sum += share
		if math.Abs(share-wantExclusive[row]) > 1e-9 {
			t.Errorf("exclusive[%s] = %.3f, want %.3f", row, share, wantExclusive[row])
		}
	}
	for row := range wantExclusive {
		if _, ok := b.exclusive[row]; !ok {
			t.Errorf("exclusive[%s] missing", row)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("exclusive shares sum to %.6f, want 1", sum)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"alloc", b.alloc, 0.25},
		{"gc", b.gc, 0.13},
		{"handoff", b.handoff, 0.20},
		{"heap", b.heap, 0.10},
	} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("overlapping cut %s = %.3f, want %.3f", c.name, c.got, c.want)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		fnSend:                                "caf2go/internal/fabric",
		fnGet:                                 "caf2go",
		"caf2go.NewCoarray[caf2go/x.T]":       "caf2go",
		"caf2go/examples/workloads.run.func1": "caf2go/examples/workloads",
		"runtime.mallocgc":                    "runtime",
		"crypto/sha1.block":                   "crypto/sha1",
		"main.rep":                            "main",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// A package of the module that maps to no layer would be charged to
// other.cpu_share without anyone noticing; this fails instead.
func TestEveryPackageHasALayer(t *testing.T) {
	out, err := exec.Command("go", "list", module+"/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	pkgs := strings.Fields(string(out))
	if len(pkgs) < 20 {
		t.Fatalf("go list %s/... found only %d packages: %v", module, len(pkgs), pkgs)
	}
	known := map[string]bool{"other": true}
	for _, l := range layers {
		known[l] = true
	}
	for _, pkg := range pkgs {
		if l := layerOfPackage(pkg); !known[l] {
			t.Errorf("package %s maps to layer %q: add it to layerOfPackage in fold.go", pkg, l)
		}
	}
}

var hashSink [sha1.Size]byte

//go:noinline
func spinForProfile(d time.Duration) {
	var buf [64]byte
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			hashSink = sha1.Sum(buf[:])
			copy(buf[:], hashSink[:])
		}
	}
}

// The in-tree pprof reader against what runtime/pprof really writes.
func TestDecodeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spinning int64
	for _, s := range stacks {
		total += s.count
		for _, fn := range s.frames {
			if fn == "caf2go/benchmark.spinForProfile" || fn == "main.spinForProfile" {
				spinning += s.count
				break
			}
		}
	}
	if total < 10 {
		t.Skipf("only %d samples in 300 ms: the host gave the profiler no signal", total)
	}
	if spinning*2 < total {
		t.Errorf("%d of %d samples pass through spinForProfile, want most; stacks: %v", spinning, total, stacks)
	}
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("decodeProfile accepted garbage")
	}
}
