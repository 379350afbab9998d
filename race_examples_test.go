package caf_test

// The example programs, re-run under the happens-before race detector.
// Expected counts are part of the contract:
//
//   - transpose's strided column pushes under finish: 0 (the stride
//     intersection must prove interleaved columns disjoint, and the
//     finish/barrier edges must order the phases);
//   - work stealing via get/put/lock (paper Fig. 2): nonzero — the
//     protocol's first metadata read is deliberately outside the lock;
//   - work stealing via function shipping (Fig. 3): 0;
//   - RandomAccess get-update-put (§IV-B): nonzero — unsynchronized
//     read-modify-write of random table words;
//   - RandomAccess function shipping: 0.

import (
	"testing"

	caf "caf2go"
	"caf2go/internal/ra"
)

// TestRaceExamplesTranspose mirrors examples/transpose at reduced scale:
// every image pushes strided column segments of its row block into every
// other image's block of the transpose, inside one finish. It must be
// clean.
func TestRaceExamplesTranspose(t *testing.T) {
	const images, n = 4, 16
	blk := n / images
	m := caf.NewMachine(caf.Config{Images: images, Seed: 1, Races: true})
	m.Launch(func(img *caf.Image) {
		me := img.Rank()
		a := caf.NewCoarray2D[int64](img, nil, blk, n)
		b := caf.NewCoarray2D[int64](img, nil, blk, n)
		for r := 0; r < blk; r++ {
			for c := 0; c < n; c++ {
				*a.At(img, r, c) = int64((me*blk+r)*n + c)
			}
		}
		img.Barrier(nil)
		img.Finish(nil, func() {
			globalRow := me * blk
			for r := 0; r < blk; r++ {
				for dst := 0; dst < images; dst++ {
					caf.CopyAsync(img,
						b.ColSeg(dst, globalRow+r, 0, blk),
						a.RowSeg(me, r, dst*blk, (dst+1)*blk))
				}
			}
		})
		img.Barrier(nil)
		for r := 0; r < blk; r++ {
			for c := 0; c < n; c++ {
				want := int64(c*n + me*blk + r)
				if got := *b.At(img, r, c); got != want {
					t.Errorf("image %d: b[%d][%d] = %d, want %d", me, r, c, got, want)
					return
				}
			}
		}
	})
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if n := m.Conflicts(); n != 0 {
		t.Errorf("transpose flagged %d conflicts: %v", n, m.ConflictLog())
	}
}

// runStealWorkload is examples/worksteal at reduced scale: image 0 seeds
// tasks, the rest steal — either with the five-round-trip get/put/lock
// protocol (whose first metadata read is intentionally dirty) or by
// shipping the steal to the victim.
func runStealWorkload(t *testing.T, shipping bool) *caf.Machine {
	t.Helper()
	const (
		images    = 4
		tasks     = 16
		stealSize = 2
	)
	pools := make([][]int64, images)
	m := caf.NewMachine(caf.Config{Images: images, Seed: 3, Races: true})
	m.Launch(func(img *caf.Image) {
		me := img.Rank()
		meta := caf.NewCoarray[int64](img, nil, 1)
		queue := caf.NewCoarray[int64](img, nil, tasks)
		if me == 0 {
			for i := 0; i < tasks; i++ {
				pools[0] = append(pools[0], int64(i))
				queue.Local(img)[i] = int64(i)
			}
			meta.Local(img)[0] = tasks
		}
		img.Barrier(nil)

		work := func(self *caf.Image) {
			q := &pools[self.Rank()]
			for len(*q) > 0 {
				*q = (*q)[:len(*q)-1]
				self.Compute(50 * caf.Microsecond)
				meta.Local(self)[0] = int64(len(*q))
			}
		}

		img.Finish(nil, func() {
			work(img)
			for attempt := 0; attempt < 3 && me != 0; attempt++ {
				if shipping {
					got := img.NewEvent()
					var stolen int64
					img.Spawn(0, func(v *caf.Image) {
						n := stealSize
						if n > len(pools[0]) {
							n = len(pools[0])
						}
						stolen = int64(n)
						pools[0] = pools[0][:len(pools[0])-n]
						meta.Local(v)[0] = int64(len(pools[0]))
						v.EventNotify(got)
					})
					img.EventWait(got)
					for i := int64(0); i < stolen; i++ {
						pools[me] = append(pools[me], i)
					}
				} else {
					// Fig. 2's protocol: the first read is outside the
					// lock — a benign race the detector must surface.
					v := caf.Get(img, meta.Sec(0, 0, 1))
					if v[0] == 0 {
						continue
					}
					img.Lock(0, 1)
					v = caf.Get(img, meta.Sec(0, 0, 1))
					n := int64(stealSize)
					if n > v[0] {
						n = v[0]
					}
					caf.Put(img, meta.Sec(0, 0, 1), []int64{v[0] - n})
					w := caf.Get(img, queue.Sec(0, 0, int(n)))
					img.Unlock(0, 1)
					img.Spawn(0, func(v *caf.Image) {
						k := int(n)
						if k > len(pools[0]) {
							k = len(pools[0])
						}
						pools[0] = pools[0][:len(pools[0])-k]
					})
					pools[me] = append(pools[me], w[:n]...)
				}
				work(img)
			}
		})
	})
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRaceExamplesWorkstealGetPut(t *testing.T) {
	m := runStealWorkload(t, false)
	if m.Conflicts() == 0 {
		t.Error("get/put/lock stealing's dirty metadata read not flagged")
	}
}

func TestRaceExamplesWorkstealShipping(t *testing.T) {
	m := runStealWorkload(t, true)
	if n := m.Conflicts(); n != 0 {
		t.Errorf("function-shipped stealing flagged %d conflicts: %v", n, m.ConflictLog())
	}
}

// TestRaceExamplesRandomAccess runs the paper's §IV-B benchmark both
// ways: get-update-put loses updates to unsynchronized read-modify-write
// (the races the reference implementation tolerates by design), while
// function shipping serializes updates at the owner.
func TestRaceExamplesRandomAccess(t *testing.T) {
	cfg := ra.DefaultConfig(ra.GetUpdatePut)
	cfg.LocalTableBits = 6
	cfg.UpdatesPerImage = 128
	res, err := ra.Run(caf.Config{Images: 4, Seed: 1, Races: true}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Conflicts == 0 {
		t.Error("get-update-put produced no races although updates collide")
	}

	cfg = ra.DefaultConfig(ra.FunctionShipping)
	cfg.LocalTableBits = 6
	cfg.UpdatesPerImage = 128
	cfg.BunchSize = 32
	res, err = ra.Run(caf.Config{Images: 4, Seed: 1, Races: true}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Conflicts != 0 {
		t.Errorf("function shipping flagged %d conflicts: %v", res.Conflicts, res.ConflictLog)
	}
	if res.Errors != 0 {
		t.Errorf("function shipping lost %d updates", res.Errors)
	}
}
