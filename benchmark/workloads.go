package main

import (
	"fmt"
	"reflect"

	caf "caf2go"
	"caf2go/examples/workloads"
	"caf2go/internal/load"
	"caf2go/internal/ra"
	"caf2go/internal/uts"
)

// A workload is one frozen set of inputs. The seed reaches the simulator
// only through what generate returns: caf.Config.Seed and, for the kv
// workloads, the arrival schedule derived from it.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json
	op   string // the unit of application work ops_per_s counts
	// generate builds the inputs and the reference answers for a seed.
	// short selects the 8-image size the unit tests run.
	generate func(seed int64, short bool) (*input, error)
	// reference, when set, names the workload whose configuration differs
	// from this one only by having every observability hook off; a traced
	// run measures this workload against it in one process.
	reference string
}

// input is what generate hands to a rep: the simulation to run, and the
// check that holds its output against reference answers computed outside
// the program.
type input struct {
	ops int64 // application operations one rep performs
	run func() (*output, error)
	// verify returns how many of the rep's operations failed. An error
	// means the output is wrong in a way no count of failed operations
	// describes.
	verify func(out *output) (failed int64, err error)
}

// output is everything one simulation returns. Two reps of one input must
// produce reflect.DeepEqual outputs: same seed, same bytes.
type output struct {
	Report    caf.Report
	Fabric    caf.FabricStats // zero for uts, whose Run keeps its machine private
	HasFabric bool
	SLO       load.SLO // kv only
	Check     string   // kv only: the workload's own answer digest

	Updates    int64 // ra
	Mismatches int64 // ra: table entries differing from the race-free reference
	Nodes      int64 // uts
	NodeSum    int64 // uts: Σ per-image counts
}

var workloadList = []workload{
	{
		name: "ra-fs", op: "table update",
		why:      "RandomAccess by function shipping: a fresh proc per update under finish, so spawn/handoff, per-send allocation and finish tracking dominate",
		generate: func(seed int64, short bool) (*input, error) { return raInput(seed, short, ra.FunctionShipping) },
	},
	{
		name: "ra-gup", op: "table update",
		why:      "the same update stream by blocking Get/Put from long-lived procs: park/unpark and fabric round trips, no per-op goroutine",
		generate: func(seed int64, short bool) (*input, error) { return raInput(seed, short, ra.GetUpdatePut) },
	},
	{
		name: "uts", op: "tree node",
		why:      "body-dominated control: SHA-1 tree search with lifelines, where heap, fabric and allocation work should not show, only proc handoff",
		generate: utsInput,
	},
	{
		name: "kv-shipping", op: "request",
		why:      "open-loop Poisson KV service below saturation: load driver ticks, collector, spawn plus reply; highest GC share; hooks off",
		generate: func(seed int64, short bool) (*input, error) { return kvInput(seed, short, false) },
	},
	{
		name: "kv-traced", op: "request", reference: "kv-shipping",
		why:      "kv-shipping with metrics, trace ring and path tracing all on: the enabled cost of every observability hook",
		generate: func(seed int64, short bool) (*input, error) { return kvInput(seed, short, true) },
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloadList {
		if workloadList[i].name == name {
			return &workloadList[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Frozen sizes. Every rep is one complete simulation of this size.
const (
	raFSImages, raFSTableBits, raFSUpdates, raFSBunch      = 256, 8, 256, 256
	raGUPImages, raGUPTableBits, raGUPUpdates, raGUPWorker = 128, 9, 512, 16
	utsImages, utsDepth, utsMachineSeed                    = 64, 10, 1
	kvImages, kvServers, kvRequests                        = 32, 16, 50_000
	kvRatePerServer, kvWriteFrac                           = 100_000.0, 0.5
	kvTraceCapacity                                        = 1 << 16
	shortImages                                            = 8
)

func raInput(seed int64, short bool, version ra.Version) (*input, error) {
	cfg := ra.DefaultConfig(version)
	images := raGUPImages
	if version == ra.FunctionShipping {
		images = raFSImages
		cfg.LocalTableBits, cfg.UpdatesPerImage, cfg.BunchSize = raFSTableBits, raFSUpdates, raFSBunch
	} else {
		cfg.LocalTableBits, cfg.UpdatesPerImage, cfg.Workers = raGUPTableBits, raGUPUpdates, raGUPWorker
	}
	if short {
		images, cfg.UpdatesPerImage = shortImages, 128
	}
	mcfg := caf.Config{Images: images, Seed: seed}
	updates := cfg.UpdatesPerImage * int64(images)
	// The reference Get/Put protocol loses an update whenever a Put lands
	// between another image's Get and Put; HPCC tolerates 1 % of the table
	// on a real machine. The simulated machine keeps Workers updates in
	// flight per image against a table thousands of times smaller, so the
	// limit here is a tenth of the table. The exact count is reported as
	// workload.ra_mismatches and must repeat bit for bit. Function
	// shipping is atomic: no entry may differ.
	var mismatchLimit int64
	if version == ra.GetUpdatePut {
		mismatchLimit = (int64(images) << cfg.LocalTableBits) / 10
	}
	in := &input{ops: updates}
	in.verify = func(out *output) (int64, error) {
		if out.Updates != updates {
			return updates, fmt.Errorf("ra: %d updates applied, want %d", out.Updates, updates)
		}
		if out.Mismatches > mismatchLimit {
			return out.Mismatches, nil
		}
		return 0, nil
	}
	in.run = func() (*output, error) {
		var m *caf.Machine
		res, err := ra.RunCapture(mcfg, cfg, &m)
		if err != nil {
			return nil, err
		}
		return &output{
			Report: res.Report, Fabric: m.FabricStats(), HasFabric: true,
			Updates: res.Updates, Mismatches: res.Errors,
		}, nil
	}
	return in, nil
}

// utsInput ignores the seed. The tree is fixed by its spec (root seed 19,
// the paper's), as RandomAccess's update stream is fixed by HPCC; the only
// thing caf.Config.Seed would vary is the victim a thief picks, and that
// moves the steal count, hence allocs_per_op, by 7 % between seeds: more
// than the metric's bound, from no change to the program.
func utsInput(_ int64, short bool) (*input, error) {
	spec := uts.Scaled(utsDepth)
	images := utsImages
	if short {
		spec, images = uts.Scaled(6), shortImages
	}
	cfg := uts.DefaultConfig(spec)
	mcfg := caf.Config{Images: images, Seed: utsMachineSeed}
	want := uts.CountSequential(spec).Nodes
	return &input{
		ops: want,
		run: func() (*output, error) {
			res, err := uts.Run(mcfg, cfg)
			if err != nil {
				return nil, err
			}
			out := &output{Report: res.Report, Nodes: res.TotalNodes}
			for _, n := range res.PerImage {
				out.NodeSum += n
			}
			return out, nil
		},
		verify: func(out *output) (int64, error) {
			if out.NodeSum != out.Nodes {
				return want, fmt.Errorf("uts: per-image counts sum to %d, total says %d", out.NodeSum, out.Nodes)
			}
			return abs64(out.Nodes - want), nil
		},
	}, nil
}

func kvInput(seed int64, short bool, traced bool) (*input, error) {
	images, servers, requests := kvImages, kvServers, kvRequests
	if short {
		images, servers, requests = shortImages, shortImages/2, 2000
	}
	mcfg := caf.Config{Images: images, Seed: seed}
	if traced {
		mcfg.Metrics, mcfg.TraceCapacity, mcfg.PathTracing = true, kvTraceCapacity, true
	}
	opts := workloads.ServiceOpts{
		Servers:   servers,
		Requests:  requests,
		Rate:      kvRatePerServer * float64(servers),
		Arrival:   load.Poisson,
		Keys:      16 * servers,
		WriteFrac: kvWriteFrac,
		Shipping:  true,
		Start:     20 * caf.Microsecond,
	}
	// The same schedule KVService derives from mcfg.Seed, generated here
	// so the reference answers do not come from the program under test.
	sched := load.Schedule(load.ArrivalConfig{
		Kind: opts.Arrival, Seed: seed, Clients: images - servers, Requests: opts.Requests,
		Rate: opts.Rate, Keys: opts.Keys, WriteFrac: opts.WriteFrac, Start: opts.Start,
	})
	if len(sched) != requests {
		return nil, fmt.Errorf("kv: schedule has %d requests, want %d", len(sched), requests)
	}
	first, last := load.Span(sched)
	offeredRPS := float64(len(sched)-1) / (last - first).Seconds()
	in := &input{ops: int64(requests)}
	in.verify = func(out *output) (int64, error) {
		if out.SLO.Requests != in.ops {
			return in.ops, fmt.Errorf("kv: %d requests scheduled, want %d", out.SLO.Requests, in.ops)
		}
		if out.SLO.OfferedRPS != offeredRPS {
			return in.ops, fmt.Errorf("kv: offered %v req/s, the generated schedule offers %v", out.SLO.OfferedRPS, offeredRPS)
		}
		return out.SLO.Requests - out.SLO.Completed, nil
	}
	in.run = func() (*output, error) {
		var m *caf.Machine
		o := opts
		out := &output{HasFabric: true}
		o.SLOOut = &out.SLO
		res, err := workloads.KVService(mcfg, o, workloads.CaptureMachine(&m))
		if err != nil {
			return nil, err
		}
		out.Report, out.Check, out.Fabric = res.Report, res.Check, m.FabricStats()
		return out, nil
	}
	return in, nil
}

// sameOutput enforces the repo's contract that one seed gives one result:
// any field of a rep's output differing from the first rep's is an error.
func sameOutput(first, again *output) error {
	if reflect.DeepEqual(first, again) {
		return nil
	}
	if !reflect.DeepEqual(first.Report, again.Report) {
		return fmt.Errorf("caf.Report differs between reps of one seed:\n first %+v\n again %+v", first.Report, again.Report)
	}
	if !reflect.DeepEqual(first.SLO, again.SLO) || first.Check != again.Check {
		return fmt.Errorf("SLO/Check differs between reps of one seed:\n first %s\n again %s", first.Check, again.Check)
	}
	return fmt.Errorf("output differs between reps of one seed:\n first %+v\n again %+v", first, again)
}

// sameModel checks that a workload and its hooks-off reference simulated
// the same thing: observability must be byte-inert. The Reports cannot be
// DeepEqual (the traced one carries the metrics snapshot), so the check
// covers every model-level count and the workload's answer digest.
func sameModel(traced, ref *output) error {
	a, b := traced.Report, ref.Report
	a.Metrics, b.Metrics = nil, nil
	a.TraceDropped, b.TraceDropped = nil, nil
	if !reflect.DeepEqual(a, b) || traced.Check != ref.Check || !reflect.DeepEqual(traced.SLO, ref.SLO) || traced.Fabric != ref.Fabric {
		return fmt.Errorf("observability hooks changed the simulation:\n traced %+v %s\n plain  %+v %s", a, traced.Check, b, ref.Check)
	}
	return nil
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
