package caf_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	caf "caf2go"
)

// finishShape is a program whose finish blocks the contract pins; record
// is called after every finish the image's main leaves.
// want is the record of the Fig. 7 run and of the no-wait run.
type finishShape struct {
	name   string
	images int
	want   [2]finishRecord
	cfg    func(*caf.Config)
	main   func(img *caf.Image, record func())
}

// spawnChain ships a function hops images to the right, each hop
// computing a little and shipping the next.
func spawnChain(img *caf.Image, hops int) {
	if hops == 0 {
		return
	}
	img.Spawn((img.Rank()+1)%img.NumImages(), func(r *caf.Image) {
		r.Compute(300)
		spawnChain(r, hops-1)
	})
}

var finishShapes = []finishShape{
	{"empty-1", 1, [2]finishRecord{{1, 1, 10844561474576962042}, {1, 2, 9725399063770489012}}, nil, func(img *caf.Image, record func()) {
		img.Finish(nil, func() {})
		record()
	}},
	{"empty-3", 3, [2]finishRecord{{18, 3, 13691041875750596978}, {34, 6, 4279940563269715980}}, nil, func(img *caf.Image, record func()) {
		img.Finish(nil, func() {})
		record()
	}},
	{"empty-64", 64, [2]finishRecord{{1454, 192, 17545314780180568851}, {2876, 384, 10711776358299547967}}, nil, func(img *caf.Image, record func()) {
		for i := 0; i < 3; i++ {
			img.Finish(nil, func() {})
			record()
		}
	}},
	{"machine-1024", 1024, [2]finishRecord{{13306, 1024, 17875888682491672399}, {27630, 3072, 4733630178832661639}}, nil, func(img *caf.Image, record func()) {
		machineShape(img)
		record()
	}},
	{"chains", 5, [2]finishRecord{{338, 25, 12041215208762290322}, {480, 50, 17967800812976309480}}, nil, func(img *caf.Image, record func()) {
		for hops := 1; hops <= 3; hops++ {
			img.Finish(nil, func() {
				img.Compute(caf.Time(100 * img.Rank()))
				spawnChain(img, hops)
			})
			record()
		}
	}},
	{"nested", 4, [2]finishRecord{{162, 12, 3493401894448173464}, {250, 28, 10053400904223741768}}, nil, func(img *caf.Image, record func()) {
		right := (img.Rank() + 1) % img.NumImages()
		img.Finish(nil, func() {
			img.Spawn(right, func(r *caf.Image) { r.Compute(2000) })
			img.Finish(nil, func() { spawnChain(img, 2) })
			record()
			img.Spawn(right, func(r *caf.Image) { r.Compute(500) })
		})
		record()
	}},
	{"subteam", 6, [2]finishRecord{{275, 24, 15079031019094195133}, {337, 36, 17240991898465837289}}, nil, func(img *caf.Image, record func()) {
		sub := img.TeamSplit(nil, img.Rank()%2, img.Rank())
		me := img.Rank()
		img.Finish(sub, func() {
			// The next member of the same parity, wrapping.
			next := (me + 2) % img.NumImages()
			img.Spawn(next, func(r *caf.Image) { r.Compute(caf.Time(700 + 100*me)) })
		})
		record()
		img.Finish(nil, func() { spawnChain(img, 1) })
		record()
	}},
	{"coalescing", 4, [2]finishRecord{{138, 4, 14024429613962344467}, {182, 12, 13938448350488118431}}, func(c *caf.Config) {
		c.Fabric = caf.FabricConfig{Coalescing: caf.Coalescing{MaxMsgs: 4}}
	}, func(img *caf.Image, record func()) {
		img.Finish(nil, func() {
			for i := 0; i < 6; i++ {
				img.Spawn((img.Rank()+1+i)%img.NumImages(), func(r *caf.Image) { r.Compute(100) })
			}
		})
		record()
	}},
	{"relaxed", 4, [2]finishRecord{{154, 8, 2025493262247594074}, {174, 12, 16581507891059022858}}, func(c *caf.Config) { c.Relaxed = true }, func(img *caf.Image, record func()) {
		ca := caf.NewCoarray[int64](img, nil, 16)
		right := (img.Rank() + 1) % img.NumImages()
		src := []int64{1, 2, 3, 4}
		img.Finish(nil, func() {
			caf.CopyAsync(img, ca.Sec(right, 0, 4), caf.Local(src))
			img.Spawn(right, func(r *caf.Image) { r.Compute(400) })
			spawnChain(img, 2)
		})
		record()
	}},
}

// finishRecord is the comparable part of a run of one shape: the events
// it ran, its detection rounds, and a digest of each image's finish exit
// times and round-completion times, in rank order.
type finishRecord struct {
	EventsRun    uint64
	ReduceRounds int64
	Digest       uint64
}

func runFinishShape(t *testing.T, sh finishShape, noWait, detector bool) finishRecord {
	t.Helper()
	cfg := caf.Config{Images: sh.images, Seed: 1, FinishNoWait: noWait}
	if detector {
		cfg.FailureDetector = caf.FailureDetectorConfig{Enabled: true, Heartbeat: 5 * caf.Microsecond}
	}
	if sh.cfg != nil {
		sh.cfg(&cfg)
	}
	m := caf.NewMachine(cfg)
	seen := make([][]caf.Time, sh.images)
	m.Launch(func(img *caf.Image) {
		sh.main(img, func() {
			r := img.Rank()
			rounds := m.FinishRoundTimes(r)
			seen[r] = append(seen[r], img.Now(), caf.Time(len(rounds)))
			seen[r] = append(seen[r], rounds...)
		})
	})
	rep, err := m.RunToCompletion()
	if err != nil {
		m.Shutdown()
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, times := range seen {
		fmt.Fprint(h, times, ";")
	}
	return finishRecord{rep.EventsRun, rep.ReduceRounds, h.Sum64()}
}

// The finish contract: on every shape, each variant of termination
// detection (Fig. 7 and the no-wait four-counter loop) runs the events,
// takes the rounds and lets each image leave each finish at the times,
// with the round-completion times, recorded on the two blocking
// detection loops the step function replaced — with and without a
// failure detector, which sees no crash here and so must change nothing.
func TestFinishContractReports(t *testing.T) {
	for _, sh := range finishShapes {
		for v, noWait := range []bool{false, true} {
			for _, det := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/nowait=%v/detector=%v", sh.name, noWait, det), func(t *testing.T) {
					if got := runFinishShape(t, sh, noWait, det); got != sh.want[v] {
						t.Errorf("got %+v, want %+v", got, sh.want[v])
					}
				})
			}
		}
	}
}
