package collect

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"caf2go/internal/fabric"
	"caf2go/internal/rt"
	"caf2go/internal/sim"
	"caf2go/internal/team"
)

// runSPMD spins up an n-image machine, runs body on every image in its own
// proc, and returns the engine's final virtual time.
func runSPMD(t testing.TB, n int, seed int64, body func(p *sim.Proc, img *rt.ImageKernel, c *Comm, w *team.Team)) sim.Time {
	t.Helper()
	eng := sim.NewEngine(seed)
	k := rt.NewKernel(eng, n, fabric.DefaultConfig())
	c := New(k)
	w := team.World(n)
	for i := 0; i < n; i++ {
		img := k.Image(i)
		img.Go("main", func(p *sim.Proc) { body(p, img, c, w) })
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return eng.Now()
}

var teamSizes = []int{1, 2, 3, 4, 5, 7, 8, 16, 33}

func TestBarrierSynchronizes(t *testing.T) {
	for _, n := range teamSizes {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			exits := make([]sim.Time, n)
			var lastEnter sim.Time
			runSPMD(t, n, 1, func(p *sim.Proc, img *rt.ImageKernel, c *Comm, w *team.Team) {
				// Stagger arrivals.
				p.Sleep(sim.Time(img.Rank()) * 10 * sim.Microsecond)
				if p.Now() > lastEnter {
					lastEnter = p.Now()
				}
				c.Barrier(p, img, w)
				exits[img.Rank()] = p.Now()
			})
			for i, e := range exits {
				if e < lastEnter {
					t.Errorf("image %d exited barrier at %v before last entry %v", i, e, lastEnter)
				}
			}
		})
	}
}

func TestBroadcastAllRootsAllSizes(t *testing.T) {
	for _, n := range teamSizes {
		for root := 0; root < n; root += 1 + n/3 {
			n, root := n, root
			t.Run(fmt.Sprintf("n=%d root=%d", n, root), func(t *testing.T) {
				got := make([]any, n)
				runSPMD(t, n, 1, func(p *sim.Proc, img *rt.ImageKernel, c *Comm, w *team.Team) {
					var val any
					if img.Rank() == root {
						val = "payload-from-" + fmt.Sprint(root)
					}
					got[img.Rank()] = c.Broadcast(p, img, w, root, val, 64)
				})
				want := "payload-from-" + fmt.Sprint(root)
				for i, g := range got {
					if g != want {
						t.Errorf("image %d got %v", i, g)
					}
				}
			})
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range teamSizes {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			root := n / 2
			var atRoot []int64
			runSPMD(t, n, 1, func(p *sim.Proc, img *rt.ImageKernel, c *Comm, w *team.Team) {
				r := img.Rank()
				res := c.Reduce(p, img, w, root, Sum, []int64{int64(r), 1})
				if r == root {
					atRoot = res
				} else if res != nil {
					t.Errorf("non-root %d got result %v", r, res)
				}
			})
			wantSum := int64(n*(n-1)) / 2
			if atRoot == nil || atRoot[0] != wantSum || atRoot[1] != int64(n) {
				t.Errorf("reduce = %v, want [%d %d]", atRoot, wantSum, n)
			}
		})
	}
}

func TestAllreduceOps(t *testing.T) {
	cases := []struct {
		op   Op
		want func(n int) int64
	}{
		{Sum, func(n int) int64 { return int64(n*(n-1)) / 2 }},
		{Max, func(n int) int64 { return int64(n - 1) }},
		{Min, func(n int) int64 { return 0 }},
		{BOr, func(n int) int64 {
			var v int64
			for i := 0; i < n; i++ {
				v |= int64(i)
			}
			return v
		}},
		{BXor, func(n int) int64 {
			var v int64
			for i := 0; i < n; i++ {
				v ^= int64(i)
			}
			return v
		}},
	}
	for _, n := range []int{1, 2, 5, 8, 16} {
		for _, tc := range cases {
			n, tc := n, tc
			t.Run(fmt.Sprintf("n=%d op=%v", n, tc.op), func(t *testing.T) {
				results := make([][]int64, n)
				runSPMD(t, n, 1, func(p *sim.Proc, img *rt.ImageKernel, c *Comm, w *team.Team) {
					results[img.Rank()] = c.Allreduce(p, img, w, tc.op, []int64{int64(img.Rank())})
				})
				for i, res := range results {
					if res[0] != tc.want(n) {
						t.Errorf("image %d: allreduce(%v) = %d, want %d", i, tc.op, res[0], tc.want(n))
					}
				}
			})
		}
	}
}

func TestProdAndBAnd(t *testing.T) {
	results := make([][]int64, 4)
	runSPMD(t, 4, 1, func(p *sim.Proc, img *rt.ImageKernel, c *Comm, w *team.Team) {
		r := int64(img.Rank())
		v := c.Allreduce(p, img, w, Prod, []int64{r + 1})
		v2 := c.Allreduce(p, img, w, BAnd, []int64{r | 8})
		results[img.Rank()] = []int64{v[0], v2[0]}
	})
	for i, res := range results {
		if res[0] != 24 {
			t.Errorf("image %d: prod = %d, want 24", i, res[0])
		}
		if res[1] != 8 {
			t.Errorf("image %d: band = %d, want 8", i, res[1])
		}
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	for _, n := range teamSizes {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			root := n - 1
			got := make([]any, n)
			runSPMD(t, n, 1, func(p *sim.Proc, img *rt.ImageKernel, c *Comm, w *team.Team) {
				r := img.Rank()
				gathered := c.Gather(p, img, w, root, r*r, 8)
				var vals []any
				if r == root {
					if len(gathered) != n {
						t.Errorf("gather len = %d", len(gathered))
					}
					vals = make([]any, n)
					for i, g := range gathered {
						vals[i] = g.(int) + 1 // transform to prove data flows through root
					}
				}
				got[r] = c.Scatter(p, img, w, root, vals, 8)
			})
			for i, g := range got {
				if g != i*i+1 {
					t.Errorf("image %d got %v, want %d", i, g, i*i+1)
				}
			}
		})
	}
}

func TestAlltoall(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7, 9} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			got := make([][]any, n)
			runSPMD(t, n, 1, func(p *sim.Proc, img *rt.ImageKernel, c *Comm, w *team.Team) {
				r := img.Rank()
				vals := make([]any, n)
				for i := range vals {
					vals[i] = fmt.Sprintf("%d->%d", r, i)
				}
				got[r] = c.Alltoall(p, img, w, vals, 16)
			})
			for dst := 0; dst < n; dst++ {
				for src := 0; src < n; src++ {
					if want := fmt.Sprintf("%d->%d", src, dst); got[dst][src] != want {
						t.Errorf("alltoall[%d][%d] = %v, want %v", dst, src, got[dst][src], want)
					}
				}
			}
		})
	}
}

func TestScanInclusivePrefix(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			got := make([][]int64, n)
			runSPMD(t, n, 1, func(p *sim.Proc, img *rt.ImageKernel, c *Comm, w *team.Team) {
				got[img.Rank()] = c.Scan(p, img, w, Sum, []int64{int64(img.Rank() + 1)})
			})
			for i, res := range got {
				want := int64((i + 1) * (i + 2) / 2)
				if res[0] != want {
					t.Errorf("scan at %d = %d, want %d", i, res[0], want)
				}
			}
		})
	}
}

func TestSortRedistributes(t *testing.T) {
	n := 4
	got := make([][]int64, n)
	runSPMD(t, n, 1, func(p *sim.Proc, img *rt.ImageKernel, c *Comm, w *team.Team) {
		r := img.Rank()
		// Image r contributes descending keys interleaved across images.
		keys := []int64{int64(100 - r), int64(10 - r), int64(50 + r)}
		got[r] = c.Sort(p, img, w, keys)
	})
	var flat []int64
	for _, g := range got {
		if len(g) != 3 {
			t.Fatalf("sort changed per-image count: %v", got)
		}
		flat = append(flat, g...)
	}
	for i := 1; i < len(flat); i++ {
		if flat[i-1] > flat[i] {
			t.Fatalf("global order violated: %v", flat)
		}
	}
}

func TestSubteamCollectives(t *testing.T) {
	// Split world into even/odd teams and run disjoint allreduces.
	n := 8
	results := make([]int64, n)
	eng := sim.NewEngine(1)
	k := rt.NewKernel(eng, n, fabric.DefaultConfig())
	c := New(k)
	w := team.World(n)
	specs := make([]team.SplitSpec, n)
	for i := 0; i < n; i++ {
		specs[i] = team.SplitSpec{World: i, Color: i % 2, Key: i}
	}
	teams, err := team.Split(w, specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		img := k.Image(i)
		img.Go("main", func(p *sim.Proc) {
			tm := teams[img.Rank()%2]
			res := c.Allreduce(p, img, tm, Sum, []int64{int64(img.Rank())})
			results[img.Rank()] = res[0]
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		want := int64(0 + 2 + 4 + 6)
		if i%2 == 1 {
			want = 1 + 3 + 5 + 7
		}
		if r != want {
			t.Errorf("image %d: team allreduce = %d, want %d", i, r, want)
		}
	}
}

func TestAsyncBroadcastCompletionStages(t *testing.T) {
	// Paper Fig. 4: on a participant, local data completion (data ready)
	// precedes local operation completion (forwarding done) when the
	// participant has children to forward to.
	n := 8
	var ldAt, loAt sim.Time
	runSPMD(t, n, 1, func(p *sim.Proc, img *rt.ImageKernel, c *Comm, w *team.Team) {
		var val any
		if img.Rank() == 0 {
			val = 99
		}
		h := new(Handle)
		c.BroadcastAsync(h, img, w, 0, val, 32, 0)
		h.WaitLocalData(p)
		if h.Result() != 99 {
			t.Errorf("image %d: result %v", img.Rank(), h.Result())
		}
		if img.Rank() == 1 {
			// Team rank 1 is an interior node (children 3,5 at n=8 via
			// binomial rel ranks)? rank 1 rel=1: leaf. Use rank 2 (rel 2,
			// child 3) instead — recorded below.
		}
		if img.Rank() == 2 {
			ldAt = p.Now()
		}
		h.WaitLocalOp(p)
		if img.Rank() == 2 {
			loAt = p.Now()
		}
	})
	if !(ldAt > 0 && loAt > ldAt) {
		t.Errorf("interior node: local data at %v, local op at %v; want data strictly earlier", ldAt, loAt)
	}
}

func TestAsyncOverlapsComputation(t *testing.T) {
	// An async allreduce must let the caller compute while in flight:
	// total time ≈ max(compute, collective), not the sum.
	n := 16
	compute := 5 * sim.Millisecond
	syncTime := runSPMD(t, n, 1, func(p *sim.Proc, img *rt.ImageKernel, c *Comm, w *team.Team) {
		c.Allreduce(p, img, w, Sum, []int64{1})
		p.Sleep(compute)
	})
	asyncTime := runSPMD(t, n, 1, func(p *sim.Proc, img *rt.ImageKernel, c *Comm, w *team.Team) {
		h := new(Handle)
		c.AllreduceAsync(h, img, w, Sum, []int64{1}, 0)
		p.Sleep(compute) // overlap
		h.WaitLocalData(p)
		if h.Result().([]int64)[0] != int64(n) {
			t.Errorf("allreduce = %v", h.Result())
		}
	})
	if asyncTime >= syncTime {
		t.Errorf("async (%v) did not beat sync-then-compute (%v)", asyncTime, syncTime)
	}
}

func TestManySequentialCollectivesGC(t *testing.T) {
	// Instances must be garbage-collected; run enough rounds that leaks
	// would be obvious via the insts maps.
	n := 4
	eng := sim.NewEngine(1)
	k := rt.NewKernel(eng, n, fabric.DefaultConfig())
	c := New(k)
	w := team.World(n)
	const rounds = 200
	for i := 0; i < n; i++ {
		img := k.Image(i)
		img.Go("main", func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				res := c.Allreduce(p, img, w, Sum, []int64{1})
				if res[0] != int64(n) {
					t.Errorf("round %d: %v", r, res)
				}
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, node := range c.nodes {
		if len(node.insts) != 0 {
			t.Errorf("image %d leaked %d collective instances", i, len(node.insts))
		}
	}
}

func TestBarrierScalesLogarithmically(t *testing.T) {
	// Critical path of a binomial barrier is O(log p): time for p=256
	// must be far less than 256/8 × time for p=8.
	t8 := runSPMD(t, 8, 1, func(p *sim.Proc, img *rt.ImageKernel, c *Comm, w *team.Team) {
		c.Barrier(p, img, w)
	})
	t256 := runSPMD(t, 256, 1, func(p *sim.Proc, img *rt.ImageKernel, c *Comm, w *team.Team) {
		c.Barrier(p, img, w)
	})
	if t256 > 4*t8 {
		t.Errorf("barrier at 256 images (%v) more than 4x barrier at 8 (%v): not log-scaling", t256, t8)
	}
}

// Property: allreduce(SUM) over random vectors equals the element-wise sum,
// for random team sizes.
func TestPropertyAllreduceSum(t *testing.T) {
	prop := func(seed int64, raw []int8, width uint8) bool {
		n := len(raw)
		if n == 0 || n > 24 {
			return true
		}
		wlen := int(width%4) + 1
		contribs := make([][]int64, n)
		want := make([]int64, wlen)
		for i, b := range raw {
			v := make([]int64, wlen)
			for j := range v {
				v[j] = int64(b) * int64(j+1)
				want[j] += v[j]
			}
			contribs[i] = v
		}
		okAll := true
		runSPMD(t, n, seed, func(p *sim.Proc, img *rt.ImageKernel, c *Comm, w *team.Team) {
			res := c.Allreduce(p, img, w, Sum, contribs[img.Rank()])
			for j := range want {
				if res[j] != want[j] {
					okAll = false
				}
			}
		})
		return okAll
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: gather preserves every contribution at the right index.
func TestPropertyGather(t *testing.T) {
	prop := func(seed int64, sz uint8) bool {
		n := int(sz%20) + 1
		root := int(seed%int64(n)+int64(n)) % n
		ok := true
		runSPMD(t, n, seed, func(p *sim.Proc, img *rt.ImageKernel, c *Comm, w *team.Team) {
			res := c.Gather(p, img, w, root, img.Rank()*7, 8)
			if img.Rank() == root {
				for i, v := range res {
					if v != i*7 {
						ok = false
					}
				}
			}
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTreeHelpers(t *testing.T) {
	if p := parentRel(6); p != 4 {
		t.Errorf("parent(6) = %d", p)
	}
	if p := parentRel(5); p != 4 {
		t.Errorf("parent(5) = %d", p)
	}
	bin := &node{c: &Comm{tree: Binomial}}
	childrenRel := func(r, size int) []int { return childrenOf(bin, r, size) }
	kids := childrenRel(0, 8)
	if len(kids) != 3 || kids[0] != 1 || kids[1] != 2 || kids[2] != 4 {
		t.Errorf("children(0,8) = %v", kids)
	}
	kids = childrenRel(4, 8)
	if len(kids) != 2 || kids[0] != 5 || kids[1] != 6 {
		t.Errorf("children(4,8) = %v", kids)
	}
	flat := &node{c: &Comm{tree: Flat}}
	if kids := childrenOf(flat, 0, 5); !slices.Equal(kids, []int{1, 2, 3, 4}) {
		t.Errorf("flat children(0,5) = %v", kids)
	}
	if kids := childrenOf(flat, 3, 5); len(kids) != 0 {
		t.Errorf("flat children(3,5) = %v", kids)
	}
	if s := bin.spanOf(0, 8); s != 8 {
		t.Errorf("subtree(0,8) = %d", s)
	}
	if s := bin.spanOf(4, 6); s != 2 {
		t.Errorf("subtree(4,6) = %d", s)
	}
	// Each subtree is contiguous: r's children tile (r, r+span) in order.
	for size := 1; size <= 33; size++ {
		for r := 0; r < size; r++ {
			next := r + 1
			for _, c := range childrenRel(r, size) {
				if c != next {
					t.Fatalf("size %d: child %d of %d, want %d", size, c, r, next)
				}
				next += bin.spanOf(c, size)
			}
			if next != r+bin.spanOf(r, size) {
				t.Fatalf("size %d: subtree of %d ends at %d, span says %d", size, r, next, r+bin.spanOf(r, size))
			}
		}
	}
	// Every non-root rel rank's parent must have it as a child.
	for size := 1; size <= 33; size++ {
		for r := 1; r < size; r++ {
			p := parentRel(r)
			found := false
			for _, c := range childrenRel(p, size) {
				if c == r {
					found = true
				}
			}
			if !found {
				t.Fatalf("size %d: %d not a child of its parent %d", size, r, p)
			}
		}
	}
}

// childrenOf lists a relative rank's children under n's tree, in the
// order the tree walks them.
func childrenOf(n *node, rel, size int) []int {
	var out []int
	for c := n.firstChild(rel, size); c >= 0; c = n.nextChild(rel, c, size) {
		out = append(out, c)
	}
	return out
}

func BenchmarkAllreduce64(b *testing.B) {
	eng := sim.NewEngine(1)
	k := rt.NewKernel(eng, 64, fabric.DefaultConfig())
	c := New(k)
	w := team.World(64)
	rounds := b.N
	for i := 0; i < 64; i++ {
		img := k.Image(i)
		img.Go("main", func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				c.Allreduce(p, img, w, Sum, []int64{1})
			}
		})
	}
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

func TestFlatTreeCorrectness(t *testing.T) {
	// All collectives must remain correct with the flat (star) tree.
	n := 9
	eng := sim.NewEngine(1)
	k := rt.NewKernel(eng, n, fabric.DefaultConfig())
	c := NewWithTree(k, Flat)
	if c.TreeShape() != Flat {
		t.Fatal("tree shape not recorded")
	}
	w := team.World(n)
	sums := make([]int64, n)
	gathered := make([][]any, n)
	for i := 0; i < n; i++ {
		img := k.Image(i)
		img.Go("main", func(p *sim.Proc) {
			c.Barrier(p, img, w)
			sums[img.Rank()] = c.Allreduce(p, img, w, Sum, []int64{int64(img.Rank())})[0]
			got := c.Broadcast(p, img, w, 2, "flat", 8)
			if got != "flat" {
				t.Errorf("image %d: broadcast = %v", img.Rank(), got)
			}
			gathered[img.Rank()] = c.Gather(p, img, w, 0, img.Rank()*3, 8)
			scanned := c.Scan(p, img, w, Sum, []int64{1})
			if scanned[0] != int64(img.Rank()+1) {
				t.Errorf("image %d: scan = %v", img.Rank(), scanned)
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, s := range sums {
		if s != 36 {
			t.Errorf("image %d: allreduce = %d", i, s)
		}
	}
	for i, g := range gathered[0] {
		if g != i*3 {
			t.Errorf("gather[%d] = %v", i, g)
		}
	}
}

func TestFlatTreeSlowerAtScale(t *testing.T) {
	// The ablation's point: a flat barrier's critical path is O(p), a
	// binomial one O(log p).
	timeFor := func(tree Tree) sim.Time {
		eng := sim.NewEngine(1)
		k := rt.NewKernel(eng, 128, fabric.DefaultConfig())
		c := NewWithTree(k, tree)
		w := team.World(128)
		for i := 0; i < 128; i++ {
			img := k.Image(i)
			img.Go("main", func(p *sim.Proc) {
				for r := 0; r < 4; r++ {
					c.Barrier(p, img, w)
				}
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng.Now()
	}
	flat, binomial := timeFor(Flat), timeFor(Binomial)
	if flat <= binomial {
		t.Errorf("flat barrier (%v) not slower than binomial (%v) at 128 images", flat, binomial)
	}
}

// Property: scan over random vectors equals the locally computed prefix,
// and sort produces a globally ordered permutation of the inputs.
func TestPropertyScanAndSort(t *testing.T) {
	prop := func(seed int64, sz uint8, raw []int8) bool {
		n := int(sz%10) + 1
		if len(raw) == 0 {
			return true
		}
		contribs := make([]int64, n)
		for i := range contribs {
			contribs[i] = int64(raw[i%len(raw)])
		}
		scanOK, sortOK := true, true
		sorted := make([][]int64, n)
		runSPMD(t, n, seed, func(p *sim.Proc, img *rt.ImageKernel, c *Comm, w *team.Team) {
			r := img.Rank()
			res := c.Scan(p, img, w, Sum, []int64{contribs[r]})
			var want int64
			for i := 0; i <= r; i++ {
				want += contribs[i]
			}
			if res[0] != want {
				scanOK = false
			}
			keys := []int64{contribs[r], -contribs[r]}
			sorted[r] = c.Sort(p, img, w, keys)
		})
		var flat []int64
		for _, s := range sorted {
			flat = append(flat, s...)
		}
		for i := 1; i < len(flat); i++ {
			if flat[i-1] > flat[i] {
				sortOK = false
			}
		}
		return scanOK && sortOK && len(flat) == 2*n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
