package uts

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	caf "caf2go"
	"caf2go/internal/sim"
)

func TestTreeDeterministic(t *testing.T) {
	s := Scaled(6)
	a, b := CountSequential(s), CountSequential(s)
	if a != b {
		t.Fatalf("sequential counts differ: %+v vs %+v", a, b)
	}
	if a.Nodes <= 1 {
		t.Fatalf("degenerate tree: %+v", a)
	}
}

func TestTreeGrowsWithDepth(t *testing.T) {
	prev := int64(0)
	for _, d := range []int{4, 6, 8} {
		n := CountSequential(Scaled(d)).Nodes
		if n <= prev {
			t.Errorf("depth %d: %d nodes, not larger than shallower tree (%d)", d, n, prev)
		}
		prev = n
	}
}

func TestTreeShapeMatchesGeometricExpectation(t *testing.T) {
	// A geometric tree with linear decay and b0=4 at depth 10 (T1) has
	// ~4.1M nodes per the UTS paper. Exact counts depend on the RNG, but
	// the order of magnitude must hold — this catches distribution bugs.
	if testing.Short() {
		t.Skip("short mode")
	}
	n := CountSequential(T1()).Nodes
	if n < 1_000_000 || n > 20_000_000 {
		t.Errorf("T1 node count %d outside sane range around 4.1M", n)
	}
}

func TestChildDerivation(t *testing.T) {
	root := T1().Root()
	c0, c1 := Child(root, 0), Child(root, 1)
	if c0.State == c1.State {
		t.Fatal("sibling descriptors identical")
	}
	if c0.Depth != 1 || c1.Depth != 1 {
		t.Fatal("child depth wrong")
	}
	if Child(root, 0) != c0 {
		t.Fatal("child derivation not deterministic")
	}
}

func TestBinomialSpec(t *testing.T) {
	s := T3()
	s.B0 = 8 // shrink the root fan-out so the test stays fast
	s.Q = 0.1
	res := CountSequential(s)
	if res.Nodes < 9 {
		t.Fatalf("binomial tree degenerate: %+v", res)
	}
	root := s.Root()
	if got := s.NumChildren(root); got != 8 {
		t.Errorf("binomial root children = %d, want ceil(B0)", got)
	}
}

func TestMaxDepthRespected(t *testing.T) {
	s := Scaled(5)
	res := CountSequential(s)
	if res.MaxDepth > 5 {
		t.Errorf("max depth %d exceeds spec %d", res.MaxDepth, 5)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	spec := Scaled(7)
	want := CountSequential(spec).Nodes
	for _, p := range []int{1, 2, 4, 8, 16} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			cfg := DefaultConfig(spec)
			res, err := Run(caf.Config{Images: p, Seed: int64(p)}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalNodes != want {
				t.Fatalf("parallel counted %d nodes, sequential %d", res.TotalNodes, want)
			}
			var per int64
			for _, c := range res.PerImage {
				per += c
			}
			if per != want {
				t.Fatalf("per-image sum %d != total %d", per, want)
			}
		})
	}
}

func TestParallelWithoutLifelinesStillCorrect(t *testing.T) {
	spec := Scaled(7)
	want := CountSequential(spec).Nodes
	cfg := DefaultConfig(spec)
	cfg.Lifelines = false
	res, err := Run(caf.Config{Images: 8, Seed: 3}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalNodes != want {
		t.Fatalf("no-lifeline run counted %d, want %d", res.TotalNodes, want)
	}
}

func TestLifelinesImproveBalance(t *testing.T) {
	spec := Scaled(8)
	imbalance := func(lifelines bool) float64 {
		cfg := DefaultConfig(spec)
		cfg.Lifelines = lifelines
		cfg.StealRetry = 1 // single steal attempt in both modes
		res, err := Run(caf.Config{Images: 16, Seed: 5}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mean := float64(res.TotalNodes) / float64(len(res.PerImage))
		worst := 0.0
		for _, c := range res.PerImage {
			dev := float64(c)/mean - 1
			if dev < 0 {
				dev = -dev
			}
			if dev > worst {
				worst = dev
			}
		}
		return worst
	}
	with, without := imbalance(true), imbalance(false)
	if with >= without {
		t.Errorf("lifelines did not improve balance: with=%.3f without=%.3f", with, without)
	}
}

func TestStealsHappen(t *testing.T) {
	spec := Scaled(8)
	res, err := Run(caf.Config{Images: 8, Seed: 2}, DefaultConfig(spec))
	if err != nil {
		t.Fatal(err)
	}
	if res.Steals+res.LifelinePushes == 0 {
		t.Error("no work ever moved between images")
	}
	if res.Rounds < 1 {
		t.Errorf("finish rounds = %d", res.Rounds)
	}
	if res.Time <= 0 {
		t.Errorf("finish region time = %v", res.Time)
	}
}

func TestParallelSpeedup(t *testing.T) {
	spec := Scaled(8)
	timeFor := func(p int) caf.Time {
		res, err := Run(caf.Config{Images: p, Seed: 1}, DefaultConfig(spec))
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	t1, t8 := timeFor(1), timeFor(8)
	if t8 >= t1 {
		t.Errorf("no speedup: t1=%v t8=%v", t1, t8)
	}
	speedup := float64(t1) / float64(t8)
	if speedup < 3 {
		t.Errorf("8-image speedup only %.2fx", speedup)
	}
}

func TestDeterministicRuns(t *testing.T) {
	spec := Scaled(6)
	once := func() Result {
		res, err := Run(caf.Config{Images: 8, Seed: 11}, DefaultConfig(spec))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := once(), once()
	if a.TotalNodes != b.TotalNodes || a.Time != b.Time || a.Steals != b.Steals ||
		a.Rounds != b.Rounds || !reflect.DeepEqual(a.Report, b.Report) {
		t.Errorf("nondeterministic UTS runs:\n%+v\n%+v", a, b)
	}
}

func TestEfficiency(t *testing.T) {
	// Parallel efficiency on a small machine should be substantial — the
	// property Fig. 17 quantifies at scale.
	spec := Scaled(9)
	cfg := DefaultConfig(spec)
	seq := CountSequential(spec)
	res, err := Run(caf.Config{Images: 8, Seed: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t1 := caf.Time(seq.Nodes) * cfg.WorkPerNode
	eff := float64(t1) / (8 * float64(res.Time))
	if eff < 0.4 || eff > 1.01 {
		t.Errorf("parallel efficiency %.2f out of plausible range", eff)
	}
	t.Logf("8-image efficiency: %.1f%% (%d nodes)", eff*100, seq.Nodes)
}

func BenchmarkSequentialCount(b *testing.B) {
	spec := Scaled(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CountSequential(spec)
	}
}

func TestBinomialTreeParallel(t *testing.T) {
	// The UTS binomial variant (T3-shaped, shrunk) must also count
	// exactly under the parallel implementation.
	s := T3()
	s.B0 = 64
	s.Q = 0.12
	s.M = 8
	want := CountSequential(s)
	if want.Nodes < 65 {
		t.Fatalf("binomial tree too small to be interesting: %+v", want)
	}
	cfg := DefaultConfig(s)
	res, err := Run(caf.Config{Images: 8, Seed: 4}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalNodes != want.Nodes {
		t.Fatalf("parallel binomial counted %d, want %d", res.TotalNodes, want.Nodes)
	}
}

func TestStealCapRespectsMediumLimit(t *testing.T) {
	// Steal payloads must never exceed the fabric medium-AM cap — the
	// paper's 9-item GASNet limit, §IV-C1a. Use a tight cap and verify
	// the run still completes and counts correctly.
	fab := caf.DefaultFabric()
	fab.MaxMedium = 9*NodeBytes + 32 // exactly 9 items, like the paper
	spec := Scaled(7)
	want := CountSequential(spec).Nodes
	res, err := Run(caf.Config{Images: 8, Seed: 2, Fabric: fab}, DefaultConfig(spec))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalNodes != want {
		t.Fatalf("capped-steal run counted %d, want %d", res.TotalNodes, want)
	}
}

func TestInitialShareScalesDistribution(t *testing.T) {
	spec := Scaled(7)
	cfg := DefaultConfig(spec)
	cfg.InitialShare = 1
	resSmall, err := Run(caf.Config{Images: 8, Seed: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.InitialShare = 64
	resBig, err := Run(caf.Config{Images: 8, Seed: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resSmall.TotalNodes != resBig.TotalNodes {
		t.Fatal("initial share changed the node count")
	}
}

// What a search allocates per node, the machine included, on a small
// shape of the benchmark's: each shipped chunk is copied once, into its
// spawn, and each shipped function is one object with its proc in it; the
// worker queues reuse the front that steals free before they grow. It was
// 0.0539 objects and 15.6 B per node while a chunk was copied twice, a
// shipped function's proc was an object of its own and a queue dropped
// what its steals freed. Pinned at what the run allocates plus 5 %.
func TestPoolAllocsPerNode(t *testing.T) {
	if sim.GoRace || sim.QuarantinePools {
		t.Skip("allocation counts are pinned without -race, pools on")
	}
	cfg := DefaultConfig(Scaled(8))
	mcfg := caf.Config{Images: 16, Seed: 1}
	if _, err := Run(mcfg, cfg); err != nil { // warm-up
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Run(mcfg, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	nodes := float64(res.TotalNodes)
	objects := float64(after.Mallocs-before.Mallocs) / nodes
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / nodes
	t.Logf("%.4f objects, %.2f B per node over %d nodes", objects, bytes, res.TotalNodes)
	if limit := 0.0372 * 1.05; objects > limit {
		t.Errorf("%.4f objects per node, want ≤ %.4f", objects, limit)
	}
	if limit := 9.78 * 1.05; bytes > limit {
		t.Errorf("%.2f B per node, want ≤ %.2f", bytes, limit)
	}
}
