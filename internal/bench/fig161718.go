package bench

import (
	"fmt"
	"io"

	caf "caf2go"
	"caf2go/internal/trace"
	"caf2go/internal/uts"
)

// UTSOpts parameterizes the UTS figures.
type UTSOpts struct {
	Cores    []int
	MaxDepth int // tree depth of the T1WL-shaped spec (paper: 18)
	Seed     int64
}

// DefaultFig16 returns simulation-scaled options (paper: 2048/4096/8192
// cores on the full T1WL tree). Load-balance quality depends on work per
// image: sweeping more cores needs a deeper tree (MaxDepth).
func DefaultFig16() UTSOpts {
	return UTSOpts{Cores: []int{32, 64, 128}, MaxDepth: 10, Seed: 1}
}

// Fig16 regenerates the load-balance figure: the sorted relative work
// fraction per image for each machine size. Expected shape (paper): a
// flat curve through 1.0 whose spread widens with machine size
// (0.989–1.008 at 2048 cores, 0.980–1.037 at 8192).
func Fig16(o UTSOpts) (Figure, error) {
	fig := Figure{
		Name:   "fig16",
		Title:  "UTS load balance: relative work fraction by sorted image rank",
		XLabel: "normalized image rank (sorted)",
		YLabel: "relative fraction of work",
		Notes: []string{
			fmt.Sprintf("T1WL-shaped geometric tree, depth %d (paper: 18)", o.MaxDepth),
			"expected: spread around 1.0 widening with machine size",
		},
	}
	spec := uts.Scaled(o.MaxDepth)
	for _, p := range o.Cores {
		cfg := uts.DefaultConfig(spec)
		res, err := uts.Run(caf.Config{Images: p, Seed: o.Seed}, cfg)
		if err != nil {
			return fig, fmt.Errorf("fig16 p=%d: %w", p, err)
		}
		rel := sortedRelative(res.PerImage)
		s := Series{Label: fmt.Sprintf("%d cores", p)}
		for i, v := range rel {
			s.X = append(s.X, float64(i)/float64(len(rel)-1))
			s.Y = append(s.Y, v)
		}
		fig.Series = append(fig.Series, s)
		fig.Notes = append(fig.Notes,
			fmt.Sprintf("%d cores: min %.3fx max %.3fx", p, rel[0], rel[len(rel)-1]))
	}
	return fig, nil
}

// DefaultFig17 returns simulation-scaled options (paper: 256…32768 cores,
// 74–80% efficiency). Efficiency is a weak property of work-per-image:
// to sweep larger machines, grow the tree depth with the core count
// (each depth level ≈ 4x nodes).
func DefaultFig17() UTSOpts {
	return UTSOpts{Cores: []int{16, 32, 64, 128, 256}, MaxDepth: 10, Seed: 1}
}

// Fig17 regenerates the parallel-efficiency figure. Efficiency is
// T1/(p·Tp) where T1 is the pure single-image work time for the same
// tree. Expected shape (paper): high and nearly flat across machine
// sizes (0.80 → 0.74 from 256 to 32768 cores).
func Fig17(o UTSOpts) (Figure, error) {
	fig := Figure{
		Name:   "fig17",
		Title:  "UTS parallel efficiency (T1WL-shaped tree)",
		XLabel: "cores",
		YLabel: "parallel efficiency",
		Notes: []string{
			fmt.Sprintf("tree depth %d (paper: 18)", o.MaxDepth),
			"expected: 0.7–0.85, roughly flat in machine size",
		},
	}
	spec := uts.Scaled(o.MaxDepth)
	cfg := uts.DefaultConfig(spec)
	seq := uts.CountSequential(spec)
	t1 := caf.Time(seq.Nodes) * cfg.WorkPerNode
	s := Series{Label: "UTS (T1WL-shaped)"}
	for _, p := range o.Cores {
		res, err := uts.Run(caf.Config{Images: p, Seed: o.Seed}, cfg)
		if err != nil {
			return fig, fmt.Errorf("fig17 p=%d: %w", p, err)
		}
		if res.TotalNodes != seq.Nodes {
			return fig, fmt.Errorf("fig17 p=%d: counted %d nodes, want %d", p, res.TotalNodes, seq.Nodes)
		}
		eff := float64(t1) / (float64(p) * float64(res.Time))
		s.X = append(s.X, float64(p))
		s.Y = append(s.Y, eff)
	}
	fig.Series = append(fig.Series, s)
	return fig, nil
}

// DefaultFig18 returns simulation-scaled options (paper: 128…2048 cores).
func DefaultFig18() UTSOpts {
	return UTSOpts{Cores: []int{16, 32, 64, 128, 256}, MaxDepth: 8, Seed: 1}
}

// Fig18 regenerates the termination-detection round-count comparison:
// the paper's algorithm (with the wait-until quiescence bound) vs the
// speculative wave algorithm without it, counting allreduce rounds
// during a UTS run. Expected shape (paper): the bounded algorithm uses
// roughly half the rounds.
func Fig18(o UTSOpts) (Figure, error) {
	fig := Figure{
		Name:   "fig18",
		Title:  "Rounds of termination detection during UTS",
		XLabel: "cores",
		YLabel: "allreduce rounds",
		Notes: []string{
			"expected: our algorithm ≈ half the rounds of the unbounded wave variant",
		},
	}
	spec := uts.Scaled(o.MaxDepth)
	ours := Series{Label: "Our algorithm"}
	unbounded := Series{Label: "Algorithm w/o upper bound"}
	for _, p := range o.Cores {
		cfg := uts.DefaultConfig(spec)
		res, err := uts.Run(caf.Config{Images: p, Seed: o.Seed}, cfg)
		if err != nil {
			return fig, fmt.Errorf("fig18 p=%d: %w", p, err)
		}
		ours.X = append(ours.X, float64(p))
		ours.Y = append(ours.Y, float64(res.Rounds))

		resNW, err := uts.Run(caf.Config{Images: p, Seed: o.Seed, FinishNoWait: true}, cfg)
		if err != nil {
			return fig, fmt.Errorf("fig18 no-wait p=%d: %w", p, err)
		}
		if resNW.TotalNodes != res.TotalNodes {
			return fig, fmt.Errorf("fig18 p=%d: variants disagree on node count", p)
		}
		unbounded.X = append(unbounded.X, float64(p))
		unbounded.Y = append(unbounded.Y, float64(resNW.Rounds))
	}
	fig.Series = append(fig.Series, ours, unbounded)
	return fig, nil
}

// RunUTS runs UTS on a depth-d T1WL-shaped tree on the machine mcfg
// describes, checks the node count against the sequential count, and
// writes the run's report to w: nodes, virtual time, parallel
// efficiency, steals, termination rounds and traffic. The recorder is
// nil unless mcfg.TraceCapacity > 0.
func RunUTS(w io.Writer, mcfg caf.Config, depth int, lifelines bool) (*trace.Recorder, error) {
	spec := uts.Scaled(depth)
	seq := uts.CountSequential(spec)
	cfg := uts.DefaultConfig(spec)
	cfg.Lifelines = lifelines
	res, tr, err := uts.RunTraced(mcfg, cfg)
	if err != nil {
		return nil, err
	}
	if res.TotalNodes != seq.Nodes {
		return nil, fmt.Errorf("parallel run counted %d nodes, sequential count %d", res.TotalNodes, seq.Nodes)
	}
	t1 := caf.Time(seq.Nodes) * cfg.WorkPerNode
	eff := float64(t1) / (float64(mcfg.Images) * float64(res.Time))
	fmt.Fprintf(w, "UTS depth=%d: %d nodes on %d images in %v virtual\n", depth, res.TotalNodes, mcfg.Images, res.Time)
	fmt.Fprintf(w, "parallel efficiency: %.1f%%  (T1=%v)\n", eff*100, t1)
	fmt.Fprintf(w, "steals: %d ok / %d attempts; lifeline pushes: %d\n", res.Steals, res.StealAttempts, res.LifelinePushes)
	fmt.Fprintf(w, "termination detection: %d allreduce rounds (noWait=%v)\n", res.Rounds, mcfg.FinishNoWait)
	fmt.Fprintf(w, "traffic: %d msgs, %d bytes, %d spawns\n", res.Report.Msgs, res.Report.Bytes, res.Report.SpawnsExecuted)
	return tr, nil
}
