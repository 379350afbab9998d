package collect

import (
	"fmt"
	"slices"
	"testing"

	"caf2go/internal/fabric"
	"caf2go/internal/rt"
	"caf2go/internal/sim"
	"caf2go/internal/team"
)

// perRankPin is one pinned run of a collective that carries per-rank
// data: the virtual time the run ended at and what the fabric carried.
type perRankPin struct {
	name  string
	end   sim.Time
	msgs  uint64
	bytes uint64
}

// perRankPins holds every case of TestPerRankCollectivesPinned in the
// order the test generates them. A change to how the collectives route
// per-rank payloads must leave every row as it is.
var perRankPins = []perRankPin{
	{"gather/binomial/n=1/root=0", 0, 0, 0},
	{"gather/binomial/n=2/root=0", 4324, 1, 24},
	{"gather/binomial/n=2/root=1", 3324, 1, 24},
	{"gather/binomial/n=3/root=0", 5324, 2, 48},
	{"gather/binomial/n=3/root=2", 4324, 2, 48},
	{"gather/binomial/n=5/root=0", 8156, 4, 104},
	{"gather/binomial/n=5/root=4", 7156, 4, 104},
	{"gather/binomial/n=8/root=0", 10004, 7, 208},
	{"gather/binomial/n=8/root=7", 9004, 7, 208},
	{"gather/binomial/n=13/root=0", 10304, 12, 368},
	{"gather/binomial/n=13/root=12", 9304, 12, 368},
	{"scatter/binomial/n=1/root=0", 0, 0, 0},
	{"scatter/binomial/n=2/root=0", 3324, 1, 24},
	{"scatter/binomial/n=2/root=1", 4324, 1, 24},
	{"scatter/binomial/n=3/root=0", 3348, 2, 48},
	{"scatter/binomial/n=3/root=2", 5348, 2, 48},
	{"scatter/binomial/n=5/root=0", 5180, 4, 104},
	{"scatter/binomial/n=5/root=4", 5180, 4, 104},
	{"scatter/binomial/n=8/root=0", 7084, 7, 208},
	{"scatter/binomial/n=8/root=7", 10084, 7, 208},
	{"scatter/binomial/n=13/root=0", 7140, 12, 368},
	{"scatter/binomial/n=13/root=12", 7140, 12, 368},
	{"scan/binomial/n=1/root=0", 0, 0, 0},
	{"scan/binomial/n=2/root=0", 6164, 2, 64},
	{"scan/binomial/n=3/root=0", 7196, 4, 128},
	{"scan/binomial/n=5/root=0", 11892, 8, 288},
	{"scan/binomial/n=8/root=0", 15732, 14, 608},
	{"scan/binomial/n=13/root=0", 16128, 24, 1088},
	{"sort/binomial/n=1/root=0", 0, 0, 0},
	{"sort/binomial/n=2/root=0", 6148, 2, 48},
	{"sort/binomial/n=3/root=0", 7180, 4, 104},
	{"sort/binomial/n=5/root=0", 11860, 8, 232},
	{"sort/binomial/n=8/root=0", 15588, 14, 448},
	{"sort/binomial/n=13/root=0", 15968, 24, 848},
	{"alltoall/binomial/n=1/root=0", 0, 0, 0},
	{"alltoall/binomial/n=2/root=0", 4324, 2, 48},
	{"alltoall/binomial/n=3/root=0", 5348, 6, 144},
	{"alltoall/binomial/n=5/root=0", 6396, 20, 480},
	{"alltoall/binomial/n=8/root=0", 6744, 56, 1344},
	{"alltoall/binomial/n=13/root=0", 7188, 156, 3744},
	{"gather/flat/n=1/root=0", 0, 0, 0},
	{"gather/flat/n=2/root=0", 4324, 1, 24},
	{"gather/flat/n=2/root=1", 3324, 1, 24},
	{"gather/flat/n=3/root=0", 5324, 2, 48},
	{"gather/flat/n=3/root=2", 4324, 2, 48},
	{"gather/flat/n=5/root=0", 6324, 4, 96},
	{"gather/flat/n=5/root=4", 6324, 4, 96},
	{"gather/flat/n=8/root=0", 6624, 7, 168},
	{"gather/flat/n=8/root=7", 6324, 7, 168},
	{"gather/flat/n=13/root=0", 6924, 12, 288},
	{"gather/flat/n=13/root=12", 6924, 12, 288},
	{"scatter/flat/n=1/root=0", 0, 0, 0},
	{"scatter/flat/n=2/root=0", 3324, 1, 24},
	{"scatter/flat/n=2/root=1", 4324, 1, 24},
	{"scatter/flat/n=3/root=0", 3348, 2, 48},
	{"scatter/flat/n=3/root=2", 5348, 2, 48},
	{"scatter/flat/n=5/root=0", 3396, 4, 96},
	{"scatter/flat/n=5/root=4", 3396, 4, 96},
	{"scatter/flat/n=8/root=0", 3468, 7, 168},
	{"scatter/flat/n=8/root=7", 6468, 7, 168},
	{"scatter/flat/n=13/root=0", 3588, 12, 288},
	{"scatter/flat/n=13/root=12", 3588, 12, 288},
	{"scan/flat/n=1/root=0", 0, 0, 0},
	{"scan/flat/n=2/root=0", 6164, 2, 64},
	{"scan/flat/n=3/root=0", 7196, 4, 128},
	{"scan/flat/n=5/root=0", 8260, 8, 256},
	{"scan/flat/n=8/root=0", 8656, 14, 448},
	{"scan/flat/n=13/root=0", 9116, 24, 768},
	{"sort/flat/n=1/root=0", 0, 0, 0},
	{"sort/flat/n=2/root=0", 6148, 2, 48},
	{"sort/flat/n=3/root=0", 7180, 4, 104},
	{"sort/flat/n=5/root=0", 8220, 8, 200},
	{"sort/flat/n=8/root=0", 8592, 14, 352},
	{"sort/flat/n=13/root=0", 9012, 24, 608},
	{"alltoall/flat/n=1/root=0", 0, 0, 0},
	{"alltoall/flat/n=2/root=0", 4324, 2, 48},
	{"alltoall/flat/n=3/root=0", 5348, 6, 144},
	{"alltoall/flat/n=5/root=0", 6396, 20, 480},
	{"alltoall/flat/n=8/root=0", 6744, 56, 1344},
	{"alltoall/flat/n=13/root=0", 7188, 156, 3744},
}

// perRankCase runs one collective on an n-image machine with the given
// tree, checks every image's result against the sequential answer, and
// returns the run's pin.
func perRankCase(t *testing.T, kd kind, tree Tree, n, root int) perRankPin {
	t.Helper()
	eng := sim.NewEngine(1)
	k := rt.NewKernel(eng, n, fabric.DefaultConfig())
	c := NewWithTree(k, tree)
	w := team.World(n)
	got := make([]any, n)
	keysOf := func(r int) []int64 {
		keys := make([]int64, r%3)
		for j := range keys {
			keys[j] = int64((r*7919+j*104729)%1000 - 500)
		}
		return keys
	}
	for i := 0; i < n; i++ {
		img := k.Image(i)
		img.Go("main", func(p *sim.Proc) {
			r := img.Rank()
			p.Sleep(sim.Time(r%4) * sim.Microsecond)
			switch kd {
			case kGather:
				got[r] = c.Gather(p, img, w, root, r*10+1, 8)
			case kScatter:
				var vals []any
				if r == root {
					vals = make([]any, n)
					for i := range vals {
						vals[i] = 100 + i
					}
				}
				got[r] = c.Scatter(p, img, w, root, vals, 8)
			case kScan:
				got[r] = c.Scan(p, img, w, Sum, []int64{int64(r + 1), int64(2 * r)})
			case kSort:
				got[r] = c.Sort(p, img, w, keysOf(r))
			case kAlltoall:
				vals := make([]any, n)
				for i := range vals {
					vals[i] = r*100 + i
				}
				got[r] = c.Alltoall(p, img, w, vals, 8)
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	switch kd {
	case kGather:
		for r, g := range got {
			if r != root {
				if g.([]any) != nil {
					t.Errorf("image %d: gather result %v off the root", r, g)
				}
				continue
			}
			want := make([]any, n)
			for i := range want {
				want[i] = i*10 + 1
			}
			if !slices.Equal(g.([]any), want) {
				t.Errorf("root gathered %v, want %v", g, want)
			}
		}
	case kScatter:
		for r, g := range got {
			if g != 100+r {
				t.Errorf("image %d: scatter got %v, want %d", r, g, 100+r)
			}
		}
	case kScan:
		var a, b int64
		for r, g := range got {
			a, b = a+int64(r+1), b+int64(2*r)
			if !slices.Equal(g.([]int64), []int64{a, b}) {
				t.Errorf("image %d: scan got %v, want [%d %d]", r, g, a, b)
			}
		}
	case kSort:
		var all, flat []int64
		for r, g := range got {
			all = append(all, keysOf(r)...)
			if len(g.([]int64)) != r%3 {
				t.Errorf("image %d: sort kept %d keys, contributed %d", r, len(g.([]int64)), r%3)
			}
			flat = append(flat, g.([]int64)...)
		}
		slices.Sort(all)
		if !slices.Equal(flat, all) {
			t.Errorf("sort = %v, want %v", flat, all)
		}
	case kAlltoall:
		for r, g := range got {
			for src, v := range g.([]any) {
				if v != src*100+r {
					t.Errorf("image %d: alltoall[%d] = %v, want %d", r, src, v, src*100+r)
				}
			}
		}
	}
	st := k.Fabric().Stats()
	return perRankPin{
		name:  fmt.Sprintf("%v/%v/n=%d/root=%d", kd, tree, n, root),
		end:   eng.Now(),
		msgs:  st.MsgsSent,
		bytes: st.BytesSent,
	}
}

// TestPerRankCollectivesPinned pins gather, scatter, scan, sort and
// alltoall — the collectives whose payloads are per-rank tables — on
// both tree shapes, at team sizes that cover a lone image, powers of
// two and ragged binomial trees, rooted at both ends of the team: each
// case's results are checked against the sequential answer, and its end
// time, message count and bytes against perRankPins.
func TestPerRankCollectivesPinned(t *testing.T) {
	var rows []perRankPin
	for _, tree := range []Tree{Binomial, Flat} {
		for _, kd := range []kind{kGather, kScatter, kScan, kSort, kAlltoall} {
			for _, n := range []int{1, 2, 3, 5, 8, 13} {
				roots := []int{0}
				if (kd == kGather || kd == kScatter) && n > 1 {
					roots = append(roots, n-1)
				}
				for _, root := range roots {
					rows = append(rows, perRankCase(t, kd, tree, n, root))
				}
			}
		}
	}
	for i, got := range rows {
		if i >= len(perRankPins) || perRankPins[i] != got {
			t.Errorf("row %d: got %s", i, fmt.Sprintf("{%q, %d, %d, %d},", got.name, int64(got.end), got.msgs, got.bytes))
		}
	}
	if len(perRankPins) != len(rows) {
		t.Errorf("%d pinned rows, %d cases", len(perRankPins), len(rows))
	}
}
