package caf_test

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
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
// On the crash shapes, with images declared dead before, during and after
// each point of detection, each variant also lets each image leave with
// the error recorded on the survivor poll that ran as a loop on the
// image's main.
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
	for _, sh := range finishCrashShapes {
		for v, noWait := range []bool{false, true} {
			t.Run(fmt.Sprintf("crash/%s/nowait=%v", sh.name, noWait), func(t *testing.T) {
				cfg := withCrash(caf.Config{Images: sh.images, Seed: 1, FinishNoWait: noWait}, sh.crash)
				_, rep, seen, errs := runRecorded(t, cfg, sh.main, (*caf.Machine).FinishRoundTimes)
				h := fnv.New64a()
				for _, times := range seen {
					fmt.Fprint(h, times, ";")
				}
				got := crashRecord{finishRecord{rep.EventsRun, rep.ReduceRounds, h.Sum64()}, errs}
				if got != sh.want[v] {
					t.Errorf("got %#v, want %#v", got, sh.want[v])
				}
			})
		}
	}
}

// finishCrashShape is a finish program in which images die: each rank in
// crash loses its NIC at the time given, and the failure detector (1µs
// heartbeat, 2µs lease) declares it dead at the next beat plus the lease.
// want is the record of the Fig. 7 run and of the no-wait run.
type finishCrashShape struct {
	name   string
	images int
	crash  map[int]caf.Time
	want   [2]crashRecord
	main   func(img *caf.Image)
}

// crashRecord is a finishRecord whose digest holds each image's exit
// time, taken also when a primitive aborts the image, and the round
// times of its last finish; Errs is each image's error in rank order.
type crashRecord struct {
	finishRecord
	Errs string
}

// withCrash returns cfg with the ranks of crash dying at their times and
// a detector on a 1µs heartbeat.
func withCrash(cfg caf.Config, crash map[int]caf.Time) caf.Config {
	cfg.Fabric.Faults = &caf.FaultPlan{Seed: cfg.Seed, Crash: crash}
	cfg.FailureDetector = caf.FailureDetectorConfig{Enabled: true, Heartbeat: caf.Microsecond}
	return cfg
}

// runRecorded runs main on every image of cfg and returns the machine,
// the report, the times each image's exit appended (its exit time, then
// what more adds), and each image's error ("-" for none), in rank order.
// A deadlock fails the test.
func runRecorded(t *testing.T, cfg caf.Config, main func(img *caf.Image), more func(m *caf.Machine, rank int) []caf.Time) (*caf.Machine, caf.Report, [][]caf.Time, string) {
	t.Helper()
	m := caf.NewMachine(cfg)
	seen := make([][]caf.Time, cfg.Images)
	m.Launch(func(img *caf.Image) {
		r := img.Rank()
		defer func() {
			seen[r] = append(seen[r], img.Now())
			if more != nil {
				seen[r] = append(seen[r], more(m, r)...)
			}
		}()
		main(img)
	})
	rep, err := m.RunToCompletion()
	var derr *caf.DeadlockError
	if errors.As(err, &derr) {
		m.Shutdown()
		t.Fatal(err)
	}
	var errs []string
	for _, e := range m.ImageErrors() {
		s := "-"
		if e != nil {
			s = fmt.Sprintf("%d@%d:%s/%d", e.Rank, int64(e.At), e.Op, e.Lost)
		}
		errs = append(errs, s)
	}
	return m, rep, seen, strings.Join(errs, " ")
}

var finishCrashShapes = []finishCrashShape{
	// Every image is still in its body when rank 1 is declared dead at
	// 7µs: the survivors enter End with the death on the books.
	{"death-in-body", 4, map[int]caf.Time{1: 5 * caf.Microsecond}, [2]crashRecord{{finishRecord{329, 16, 2207873657030657532}, "1@7000:finish/1 1@7000:finish/0 1@7000:finish/1 1@7000:finish/1"}, {finishRecord{329, 16, 2207873657030657532}, "1@7000:finish/1 1@7000:finish/0 1@7000:finish/1 1@7000:finish/1"}}, func(img *caf.Image) {
		img.Finish(nil, func() {
			img.Compute(20 * caf.Microsecond)
			img.Spawn((img.Rank()+2)%img.NumImages(), func(r *caf.Image) { r.Compute(300) })
		})
	}},
	// Rank 0 has started its first round's reduction, which waits on the
	// ranks still in their bodies (until 28µs), when rank 1 is declared
	// dead.
	{"death-in-reduction", 4, map[int]caf.Time{1: 5 * caf.Microsecond}, [2]crashRecord{{finishRecord{121, 7, 8338681885179118239}, "1@7000:finish/0 1@7000:finish/0 1@7000:finish/0 1@7000:finish/0"}, {finishRecord{121, 7, 8338681885179118239}, "1@7000:finish/0 1@7000:finish/0 1@7000:finish/0 1@7000:finish/0"}}, func(img *caf.Image) {
		img.Finish(nil, func() {
			img.Compute(caf.Time(1+9*img.Rank()) * caf.Microsecond)
		})
	}},
	// Rank 1's death sends the survivors to the poll protocol, which a
	// 40µs function on rank 3 keeps polling; rank 2 dies mid-round.
	{"death-in-poll", 4, map[int]caf.Time{1: 5 * caf.Microsecond, 2: 20 * caf.Microsecond}, [2]crashRecord{{finishRecord{242, 21, 10879308329108504788}, "1@7000:finish/0 1@7000:finish/0 2@22000:finish/0 1@7000:finish/0"}, {finishRecord{241, 21, 4324609291952363788}, "1@7000:finish/0 1@7000:finish/0 2@22000:finish/0 1@7000:finish/0"}}, func(img *caf.Image) {
		img.Finish(nil, func() {
			if img.Rank() == 0 {
				img.Spawn(3, func(r *caf.Image) { r.Compute(40 * caf.Microsecond) })
			}
		})
	}},
	// Rank 2 is declared dead at 12µs, after the survivors' first
	// balanced poll round: the restarted round may not confirm it.
	{"death-after-balanced-round", 4, map[int]caf.Time{1: 5 * caf.Microsecond, 2: 10 * caf.Microsecond}, [2]crashRecord{{finishRecord{82, 8, 16566345311147585608}, "- 1@7000:finish/0 - 1@7000:finish/0"}, {finishRecord{126, 13, 12289586130087499077}, "1@7000:finish/0 1@7000:finish/0 2@12000:finish/0 1@7000:finish/0"}}, func(img *caf.Image) {
		img.Finish(nil, func() {})
	}},
	// Rank 1 is parked in its own End, behind a 20µs function on rank 2,
	// when it is itself declared dead.
	{"own-declaration", 3, map[int]caf.Time{1: 5 * caf.Microsecond}, [2]crashRecord{{finishRecord{102, 12, 16390628672669360147}, "1@7000:finish/0 1@7000:finish/0 1@7000:finish/0"}, {finishRecord{106, 12, 7625881637887323114}, "1@7000:finish/0 1@7000:finish/0 1@7000:finish/0"}}, func(img *caf.Image) {
		img.Finish(nil, func() {
			if img.Rank() == 0 {
				img.Spawn(2, func(r *caf.Image) { r.Compute(20 * caf.Microsecond) })
			}
		})
	}},
	// Rank 0 is the only survivor of a two-image team: its first poll
	// round completes at once, and the pace follows in the first test.
	{"sole-survivor", 2, map[int]caf.Time{1: 5 * caf.Microsecond}, [2]crashRecord{{finishRecord{6, 2, 1843755097563240127}, "1@7000:finish/0 1@7000:finish/0"}, {finishRecord{6, 2, 1843755097563240127}, "1@7000:finish/0 1@7000:finish/0"}}, func(img *caf.Image) {
		img.Finish(nil, func() { img.Compute(10 * caf.Microsecond) })
	}},
}
