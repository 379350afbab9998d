package bench

import (
	"fmt"

	caf "caf2go"
)

// Fig12Opts parameterizes the cofence micro-benchmark (paper Figs. 11-12):
// a producer/consumer loop where rank 0 sends FanOut copies of Bytes
// bytes to random images per iteration and synchronizes with one of
// three strategies.
type Fig12Opts struct {
	Cores []int // paper: 128, 256, 512, 1024
	Iters int   // paper: 1e6; scaled default 2000
	Fan   int   // paper: 5
	Bytes int   // paper: 80
	Seed  int64
}

// DefaultFig12 returns simulation-scaled options.
func DefaultFig12() Fig12Opts {
	return Fig12Opts{Cores: []int{128, 256, 512, 1024}, Iters: 500, Fan: 5, Bytes: 80, Seed: 1}
}

type fig12Variant uint8

const (
	variantFinish fig12Variant = iota
	variantEvents
	variantCofence
)

func (v fig12Variant) String() string {
	return [...]string{"copy_async w/ finish", "copy_async w/ events", "copy_async w/ cofence"}[v]
}

// fig12Run runs one Fig. 12 variant and returns the run report. A
// non-zero coal batches small AMs (the coalescing regression harness
// re-runs the cofence variant with it).
func fig12Run(o Fig12Opts, p int, v fig12Variant, coal caf.Coalescing) (caf.Report, error) {
	m := fig12Machine(o, p, v, coal)
	rep, err := m.RunToCompletion()
	if err != nil {
		m.Shutdown()
	}
	return rep, err
}

// fig12Machine is the machine fig12Run runs, launched.
func fig12Machine(o Fig12Opts, p int, v fig12Variant, coal caf.Coalescing) *caf.Machine {
	m := caf.NewMachine(caf.Config{Images: p, Seed: o.Seed, Fabric: caf.FabricConfig{Coalescing: coal}})
	m.Launch(func(img *caf.Image) {
		ca := caf.NewCoarray[byte](img, nil, o.Bytes*o.Fan)
		src := make([]byte, o.Bytes)
		produce := func() {
			// produce_work_next_rnd: refill the source buffer.
			img.Compute(200 * caf.Nanosecond)
			src[0]++
		}
		rng := img.Random()
		switch v {
		case variantFinish:
			// Every image participates in the per-iteration finish —
			// the global completion strategy of the sketch.
			for i := 0; i < o.Iters; i++ {
				img.Finish(nil, func() {
					if img.Rank() != 0 {
						return
					}
					for j := 0; j < o.Fan; j++ {
						dst := 1 + rng.Intn(p-1)
						caf.CopyAsync(img, ca.Sec(dst, 0, o.Bytes), caf.Local(src))
					}
				})
				if img.Rank() == 0 {
					produce()
				}
			}
		case variantEvents:
			if img.Rank() != 0 {
				return
			}
			ev := img.NewEvent()
			for i := 0; i < o.Iters; i++ {
				for j := 0; j < o.Fan; j++ {
					dst := 1 + rng.Intn(p-1)
					caf.CopyAsync(img, ca.Sec(dst, 0, o.Bytes), caf.Local(src), caf.DestEvent(ev))
				}
				for j := 0; j < o.Fan; j++ {
					img.EventWait(ev) // local operation completion
				}
				produce()
			}
		case variantCofence:
			if img.Rank() != 0 {
				return
			}
			for i := 0; i < o.Iters; i++ {
				for j := 0; j < o.Fan; j++ {
					dst := 1 + rng.Intn(p-1)
					caf.CopyAsync(img, ca.Sec(dst, 0, o.Bytes), caf.Local(src))
				}
				img.Cofence(caf.AllowNone, caf.AllowNone) // local data completion
				produce()
			}
		}
	})
	return m
}

// Fig12 regenerates the cofence micro-benchmark figure: execution time of
// the producer/consumer loop under finish, events, and cofence
// synchronization across core counts. Expected shape (paper): cofence <
// events < finish, with finish growing with log p.
func Fig12(o Fig12Opts) (Figure, error) {
	fig := Figure{
		Name:   "fig12",
		Title:  "cofence micro-benchmark: producer/consumer synchronization cost",
		XLabel: "cores",
		YLabel: "execution time (simulated seconds)",
		Notes: []string{
			fmt.Sprintf("iters=%d fan=%d bytes=%d (paper: 1e6 iters)", o.Iters, o.Fan, o.Bytes),
			"expected: cofence < events < finish; finish grows with log p",
		},
	}
	for _, v := range []fig12Variant{variantFinish, variantEvents, variantCofence} {
		s := Series{Label: v.String()}
		for _, p := range o.Cores {
			rep, err := fig12Run(o, p, v, caf.Coalescing{})
			if err != nil {
				return fig, fmt.Errorf("fig12 %v p=%d: %w", v, p, err)
			}
			s.X = append(s.X, float64(p))
			s.Y = append(s.Y, seconds(rep.VirtualTime))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}
