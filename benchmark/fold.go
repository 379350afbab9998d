package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// A stack is one CPU-profile sample: function names leaf first, and the
// number of profiler ticks that landed on it.
type stack struct {
	frames []string
	count  int64
}

// Layers of the repository, in the order the budget is printed. Every
// caf2go package maps to exactly one (layerOfPackage); the Go runtime's
// own rows and "other" complete the exclusive budget.
var layers = []string{"sim", "fabric", "rt", "collect", "core", "caf", "load", "trace", "workload"}

const module = "caf2go"

// layerOfPackage maps an import path of the caf2go module to its layer,
// or "" when the package is not part of the module or has no layer yet.
// fold_test.go walks `go list caf2go/...` and fails on "", so a new
// package cannot fall silently into other.cpu_share.
func layerOfPackage(pkg string) string {
	if pkg == module {
		return "caf"
	}
	rest, ok := strings.CutPrefix(pkg, module+"/")
	if !ok {
		return ""
	}
	switch rest {
	case "internal/sim":
		return "sim"
	case "internal/fabric", "internal/gasnet":
		return "fabric"
	case "internal/rt", "internal/failure":
		return "rt"
	case "internal/collect", "internal/team":
		return "collect"
	case "internal/core":
		return "core"
	case "internal/repl":
		return "caf"
	case "internal/load":
		return "load"
	case "internal/trace", "internal/metrics", "internal/path", "internal/prof", "internal/race":
		return "trace"
	case "internal/ra", "internal/uts", "internal/baseline", "internal/bench", "internal/chaos":
		return "workload"
	case "benchmark":
		// The benchmark's own frames (package main in the binary) are
		// the measuring instrument, not a layer: they land in other.
		return "other"
	}
	if strings.HasPrefix(rest, "examples/") || strings.HasPrefix(rest, "cmd/") {
		return "workload"
	}
	return ""
}

// packageOf extracts the import path from a symbol name as the Go linker
// writes it: "caf2go/internal/sim.(*Engine).After" → "caf2go/internal/sim",
// "caf2go.Get[go.shape.uint64]" → "caf2go".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold slashes and dots of their own
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// Scheduler entry points that run on g0 and therefore carry no module
// frame: mostly the far half of a proc handoff.
var schedFuncs = map[string]bool{
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.park_m": true,
	"runtime.mcall": true, "runtime.goschedImpl": true, "runtime.gosched_m": true,
	"runtime.goexit0": true, "runtime.mstart": true, "runtime.mstart1": true,
	"runtime.stopm": true, "runtime.startm": true, "runtime.wakep": true,
	"runtime.futex": true, "runtime.futexsleep": true, "runtime.futexwakeup": true,
	"runtime.notesleep": true, "runtime.notewakeup": true, "runtime.usleep": true,
	"runtime.osyield": true, "runtime.runqgrab": true, "runtime.stealWork": true,
	"runtime.ready": true, "runtime.goready": true, "runtime.execute": true,
	"runtime.sysmon": true, "runtime.exitsyscall": true, "runtime.morestack": true,
}

var gcBackgroundFuncs = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.bgsweep": true, "runtime.bgscavenge": true,
	"runtime.gcMarkDone": true, "runtime.gcMarkTermination": true, "runtime.gcStart": true,
}

var allocFuncs = map[string]bool{
	"runtime.mallocgc": true, "runtime.newobject": true, "runtime.growslice": true,
	"runtime.makeslice": true, "runtime.makechan": true, "runtime.makemap": true,
	"runtime.newarray": true, "runtime.malg": true,
}

const (
	simPkg  = module + "/internal/sim."
	procRun = simPkg + "(*Proc).run"
)

// A budget is the fold of one CPU profile: exclusive shares that sum to 1
// and the overlapping cuts reported beside them.
type budget struct {
	samples   int64
	exclusive map[string]float64 // "sim" … "workload", "gc_bg", "sched", "other"
	alloc     float64            // any stack through the allocator
	gc        float64            // background GC plus assists
	handoff   float64            // proc yield/resume/start
	heap      float64            // eventHeap push/pop/sift
}

// foldStacks charges every sample to the layer of its deepest caf2go
// frame, so mallocgc under fabric.(*Endpoint).Send is fabric's cost.
// Samples with no module frame are the runtime's own: background GC, the
// scheduler on g0, or other.
func foldStacks(stacks []stack) budget {
	b := budget{exclusive: map[string]float64{}}
	var alloc, gc, handoff, heap int64
	counts := map[string]int64{}
	for _, s := range stacks {
		b.samples += s.count
		counts[exclusiveRow(s.frames)] += s.count
		var sawAlloc, sawGC, sawHandoff, sawHeap bool
		for i, fn := range s.frames {
			switch {
			case allocFuncs[fn]:
				sawAlloc = true
			case gcBackgroundFuncs[fn] || fn == "runtime.gcAssistAlloc" || fn == "runtime.gcDrain" || fn == "runtime.gcDrainN":
				sawGC = true
			case fn == simPkg+"(*Proc).yieldToEngine" || fn == simPkg+"(*Engine).resumeProc":
				sawHandoff = true
			case strings.HasPrefix(fn, simPkg+"(*eventHeap)."):
				sawHeap = true
			case i > 0 && fn == procRun && strings.HasPrefix(s.frames[i-1], "runtime.chan"):
				// a new proc's first wait for the engine, and its last yield
				sawHandoff = true
			case i > 0 && fn == simPkg+"(*Engine).GoAtOn" && strings.HasPrefix(s.frames[i-1], "runtime.newproc"):
				sawHandoff = true
			}
		}
		if sawAlloc {
			alloc += s.count
		}
		if sawGC {
			gc += s.count
		}
		if sawHandoff {
			handoff += s.count
		}
		if sawHeap {
			heap += s.count
		}
	}
	if b.samples == 0 {
		return b
	}
	n := float64(b.samples)
	for row, c := range counts {
		b.exclusive[row] = float64(c) / n
	}
	b.alloc, b.gc = float64(alloc)/n, float64(gc)/n
	b.handoff, b.heap = float64(handoff)/n, float64(heap)/n
	return b
}

// exclusiveRow names the one budget row a stack (leaf first) is charged to.
func exclusiveRow(frames []string) string {
	for _, fn := range frames {
		if l := layerOfPackage(packageOf(fn)); l != "" {
			return l
		}
		if strings.HasPrefix(fn, "main.") {
			return "other" // the benchmark binary's own package
		}
	}
	for _, fn := range frames {
		if gcBackgroundFuncs[fn] {
			return "gc_bg"
		}
	}
	for _, fn := range frames {
		if schedFuncs[fn] {
			return "sched"
		}
	}
	return "other"
}

// foldedText renders stacks in the collapsed format flame-graph tools
// read: root;…;leaf count, heaviest first.
func foldedText(stacks []stack) string {
	lines := make([]string, 0, len(stacks))
	sorted := append([]stack(nil), stacks...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].count > sorted[j].count })
	for _, s := range sorted {
		rev := make([]string, len(s.frames))
		for i, fn := range s.frames {
			rev[len(s.frames)-1-i] = fn
		}
		lines = append(lines, fmt.Sprintf("%s %d", strings.Join(rev, ";"), s.count))
	}
	return strings.Join(lines, "\n") + "\n"
}

// ---------------------------------------------------------------------
// A reader for the subset of the pprof wire format (gzip-compressed
// protobuf, github.com/google/pprof/proto/profile.proto) that
// runtime/pprof writes for CPU profiles. In-tree so the benchmark adds no
// module dependency.
// ---------------------------------------------------------------------

// decodeProfile returns the profile's samples with inlined frames
// expanded, using the first sample value (the tick count).
func decodeProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sample
		locations = map[uint64][]uint64{} // location id → function ids, innermost first
		functions = map[uint64]int64{}    // function id → name's string index
		strs      []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var values []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					values = appendPacked(values, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locations[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			functions[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, loc := range s.locs {
			for _, fid := range locations[loc] {
				idx := functions[fid]
				if idx < 0 || int(idx) >= len(strs) {
					return nil, errors.New("pprof: function name outside string table")
				}
				st.frames = append(st.frames, strs[idx])
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with the field number
// and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: bad length")
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated integer field that arrived either as
// one varint (packed == nil) or as a packed run of them.
func appendPacked(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
