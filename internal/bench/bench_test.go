package bench

import (
	"strings"
	"testing"

	caf "caf2go"
	"caf2go/internal/sim"
)

func TestFig12Shape(t *testing.T) {
	o := Fig12Opts{Cores: []int{8, 32}, Iters: 100, Fan: 5, Bytes: 80, Seed: 1}
	fig, err := Fig12(o)
	if err != nil {
		t.Fatal(err)
	}
	fin, _ := fig.Lookup("copy_async w/ finish")
	ev, _ := fig.Lookup("copy_async w/ events")
	cf, _ := fig.Lookup("copy_async w/ cofence")
	for i := range o.Cores {
		if !(cf.Y[i] < ev.Y[i] && ev.Y[i] < fin.Y[i]) {
			t.Errorf("p=%d: want cofence < events < finish, got %.3g %.3g %.3g",
				o.Cores[i], cf.Y[i], ev.Y[i], fin.Y[i])
		}
	}
	// finish cost grows with machine size (log p allreduce); cofence
	// stays flat.
	if fin.Y[1] <= fin.Y[0] {
		t.Errorf("finish variant did not grow with p: %.3g -> %.3g", fin.Y[0], fin.Y[1])
	}
	if cf.Y[1] > cf.Y[0]*1.5 {
		t.Errorf("cofence variant grew with p: %.3g -> %.3g", cf.Y[0], cf.Y[1])
	}
}

func TestFig13Shape(t *testing.T) {
	o := Fig13Opts{Cores: []int{4, 8}, LocalTableBits: 7, Bunches: []int{32, 64}, Workers: 8, Seed: 1}
	fig, err := Fig13(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	gup := fig.Series[0]
	for _, s := range fig.Series[1:] {
		for i := range s.Y {
			ratio := s.Y[i] / gup.Y[i]
			if ratio > 5 || ratio < 0.1 {
				t.Errorf("%s at p=%g is %.1fx of GUP — not comparable", s.Label, s.X[i], ratio)
			}
		}
	}
	// The two FS bunch sizes should be close (finish count immaterial).
	a, b := fig.Series[1], fig.Series[2]
	for i := range a.Y {
		r := a.Y[i] / b.Y[i]
		if r < 0.5 || r > 2 {
			t.Errorf("bunch sizes diverge at p=%g: %.3g vs %.3g", a.X[i], a.Y[i], b.Y[i])
		}
	}
}

func TestFig14Shape(t *testing.T) {
	o := Fig14Opts{Cores: []int{8}, BunchSizes: []int{8, 64, 512}, LocalTableBits: 8, Seed: 1}
	fig, err := Fig14(o)
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	// Left side of the U: tiny bunches pay for synchronization.
	if s.Y[0] <= s.Y[1] {
		t.Errorf("bunch=8 (%.3g) should cost more than bunch=64 (%.3g)", s.Y[0], s.Y[1])
	}
}

func TestFig16Shape(t *testing.T) {
	o := UTSOpts{Cores: []int{8, 16}, MaxDepth: 7, Seed: 1}
	fig, err := Fig16(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		lo, hi := s.Y[0], s.Y[len(s.Y)-1]
		if lo > 1 || hi < 1 {
			t.Errorf("%s: relative fractions [%.3f, %.3f] do not bracket 1.0", s.Label, lo, hi)
		}
		if lo < 0.2 || hi > 3 {
			t.Errorf("%s: load balance wildly off: [%.3f, %.3f]", s.Label, lo, hi)
		}
	}
}

func TestFig17Shape(t *testing.T) {
	o := UTSOpts{Cores: []int{2, 4, 8}, MaxDepth: 8, Seed: 1}
	fig, err := Fig17(o)
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	for i, eff := range s.Y {
		if eff < 0.35 || eff > 1.01 {
			t.Errorf("efficiency at p=%g is %.2f", s.X[i], eff)
		}
	}
}

func TestFig18Shape(t *testing.T) {
	o := UTSOpts{Cores: []int{8, 16}, MaxDepth: 7, Seed: 1}
	fig, err := Fig18(o)
	if err != nil {
		t.Fatal(err)
	}
	ours, _ := fig.Lookup("Our algorithm")
	unb, _ := fig.Lookup("Algorithm w/o upper bound")
	for i := range ours.Y {
		if unb.Y[i] < ours.Y[i] {
			t.Errorf("p=%g: unbounded variant used fewer rounds (%.0f) than ours (%.0f)",
				ours.X[i], unb.Y[i], ours.Y[i])
		}
	}
}

func TestStealRoundTripsShape(t *testing.T) {
	o := StealOpts{Steals: 20, ItemsSwept: []int{1, 4}, Seed: 1}
	fig, err := StealRoundTrips(o)
	if err != nil {
		t.Fatal(err)
	}
	gp, fs := fig.Series[0], fig.Series[1]
	for i := range gp.Y {
		if fs.Y[i] >= gp.Y[i] {
			t.Errorf("items=%g: function shipping (%.3g) not faster than get/put (%.3g)",
				gp.X[i], fs.Y[i], gp.Y[i])
		}
		// 5 round trips vs ~1: expect at least 2x.
		if gp.Y[i]/fs.Y[i] < 2 {
			t.Errorf("items=%g: speedup only %.2fx, expected ≥2x", gp.X[i], gp.Y[i]/fs.Y[i])
		}
	}
}

func TestRenderOutput(t *testing.T) {
	fig := Figure{
		Name: "test", Title: "t", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Label: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Label: "b", X: []float64{1, 2}, Y: []float64{30, 40}},
		},
		Notes: []string{"hello"},
	}
	var sb strings.Builder
	fig.Render(&sb)
	out := sb.String()
	for _, want := range []string{"# test — t", "# note: hello", "a\tb", "1\t10\t30", "2\t20\t40"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

func TestLookupMissing(t *testing.T) {
	fig := Figure{}
	if _, ok := fig.Lookup("nope"); ok {
		t.Error("lookup found a phantom series")
	}
}

// Fig. 12's default shape resumes a proc only when what it waits for
// holds: the parent's 989 524 resumes less the 4 that found their
// condition still false there, over the parent's events.
func TestFig12ProcResumesPinned(t *testing.T) {
	if sim.GoRace {
		t.Skip("the twelve machines take a minute under -race")
	}
	o := DefaultFig12()
	var events, resumes uint64
	for _, v := range []fig12Variant{variantFinish, variantEvents, variantCofence} {
		for _, p := range o.Cores {
			m := fig12Machine(o, p, v, caf.Coalescing{})
			if _, err := m.RunToCompletion(); err != nil {
				t.Fatal(err)
			}
			events += m.Engine().EventsRun()
			resumes += m.Engine().Resumes()
		}
	}
	if events != 8016720 || resumes != 989524-4 {
		t.Errorf("%d events and %d resumes, want %d and %d", events, resumes, 8016720, 989524-4)
	}
}
