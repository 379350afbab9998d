package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"caf2go/internal/fabric"
	"caf2go/internal/failure"
	"caf2go/internal/sim"
)

// resilientMachine wires a failure detector into the test harness the
// same way the caf layer does: declarations charge the finish plane,
// abandon the dead NIC's traffic, and wake every parked proc so blocked
// waits re-evaluate their conditions.
func resilientMachine(t testing.TB, n int, seed int64, fcfg fabric.Config, hb sim.Time) (*machine, *failure.Detector) {
	t.Helper()
	m := newMachineFabric(t, n, seed, Config{WaitQuiescent: true}, fcfg)
	var crash map[int]sim.Time
	if fcfg.Faults != nil {
		crash = fcfg.Faults.Crash
	}
	det := failure.New(m.eng, n, failure.Config{Enabled: true, Heartbeat: hb}, crash)
	m.k.SetDetector(det)
	m.pl.SetDetector(det)
	det.Subscribe(func(rank int, at sim.Time) {
		m.pl.OnDeath(rank)
		m.k.Fabric().AbandonForDead(rank)
		m.eng.WakeAllParked()
	})
	return m, det
}

// pollBound is the degraded protocol's round bound: polls are paced at
// one per heartbeat, so between the declaration and the run's end at
// most (end-declared)/heartbeat rounds fit, plus slack for the initial
// unpaced round, the Mattern-style double collect, and one restart per
// declaration (one here).
func pollBound(end, declared, hb sim.Time) int {
	return int((end-declared)/hb) + 4
}

// TestPropertyResilientFinishBoundedRounds is the resilience property
// test: for random spawn forests with one image hard-crashing at a
// random time, the finish plane must always terminate (no deadlock),
// every non-nil error must blame the crashed rank, and the survivor
// poll protocol must conclude within a bounded number of rounds.
func TestPropertyResilientFinishBoundedRounds(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 131))
			n := rng.Intn(9) + 4
			crashRank := rng.Intn(n)
			crashAt := sim.Time(rng.Intn(290)+5) * sim.Microsecond
			fcfg := fabric.DefaultConfig()
			fcfg.Faults = &fabric.FaultPlan{
				Seed:  seed,
				Crash: map[int]sim.Time{crashRank: crashAt},
			}
			const hb = 5 * sim.Microsecond
			m, det := resilientMachine(t, n, seed, fcfg, hb)

			ferrs := make([]*failure.ImageFailedError, n)
			states := make([]*State, n)
			for i := 0; i < n; i++ {
				img := m.k.Image(i)
				img.Go("main", func(p *sim.Proc) {
					s := m.pl.Begin(img, m.w)
					states[img.Rank()] = s
					fan := rng.Intn(3) + 1
					for f := 0; f < fan; f++ {
						m.spawn(img, rng.Intn(n), s.Ref(), buildChain(m, rng, 1+rng.Intn(3)))
					}
					_, ferrs[img.Rank()] = m.pl.End(p, img, s)
				})
			}
			// The property under test: the run drains. Without the
			// resilient protocol this deadlocks for every seed whose
			// forest outlives the crash.
			if err := m.eng.Run(); err != nil {
				t.Fatalf("resilient finish did not terminate: %v", err)
			}
			for i, fe := range ferrs {
				if fe != nil && fe.Rank != crashRank {
					t.Errorf("image %d blames rank %d, crashed rank %d: %v", i, fe.Rank, crashRank, fe)
				}
			}
			declared, ok := det.DeadAt(crashRank)
			if !ok {
				t.Fatalf("rank %d crashed at %v but was never declared dead", crashRank, crashAt)
			}
			bound := pollBound(m.eng.Now(), declared, hb)
			for i, s := range states {
				if s == nil {
					t.Fatalf("image %d never began its finish", i)
				}
				if s.pollRound > bound {
					t.Errorf("image %d used %d survivor poll rounds, bound is %d (hot-spinning?)",
						i, s.pollRound, bound)
				}
			}
			// Every spawn the fabric gave up on must have been charged
			// off, or the counters could only have balanced by luck.
			if m.completed < m.spawned && m.pl.Stats().LostActivities == 0 {
				t.Errorf("%d of %d spawns never ran but no activity was charged as lost",
					m.spawned-m.completed, m.spawned)
			}
		})
	}
}

// TestPropertyResilientFinishBoundedRoundsGOMAXPROCS re-runs the
// bounded-rounds property forests at GOMAXPROCS 1 and 8 and pins
// same-seed bit-identity: the crash, its declaration time, every image's
// error, the poll-round counts, the charge-off stats, and the event count
// must all match exactly.
func TestPropertyResilientFinishBoundedRoundsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type outcome struct {
		end       sim.Time
		events    uint64
		declared  sim.Time
		errs      []string
		rounds    []int
		spawned   int
		completed int
		lost      int64
	}
	runForest := func(t *testing.T, seed int64, procs int) outcome {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		rng := rand.New(rand.NewSource(seed * 131))
		n := rng.Intn(9) + 4
		crashRank := rng.Intn(n)
		crashAt := sim.Time(rng.Intn(290)+5) * sim.Microsecond
		fcfg := fabric.DefaultConfig()
		fcfg.Faults = &fabric.FaultPlan{
			Seed:  seed,
			Crash: map[int]sim.Time{crashRank: crashAt},
		}
		const hb = 5 * sim.Microsecond
		m, det := resilientMachine(t, n, seed, fcfg, hb)

		ferrs := make([]*failure.ImageFailedError, n)
		states := make([]*State, n)
		for i := 0; i < n; i++ {
			img := m.k.Image(i)
			img.Go("main", func(p *sim.Proc) {
				s := m.pl.Begin(img, m.w)
				states[img.Rank()] = s
				fan := rng.Intn(3) + 1
				for f := 0; f < fan; f++ {
					m.spawn(img, rng.Intn(n), s.Ref(), buildChain(m, rng, 1+rng.Intn(3)))
				}
				_, ferrs[img.Rank()] = m.pl.End(p, img, s)
			})
		}
		if err := m.eng.Run(); err != nil {
			t.Fatalf("procs=%d: resilient finish did not terminate: %v", procs, err)
		}
		out := outcome{
			end:       m.eng.Now(),
			events:    m.eng.EventsRun(),
			spawned:   m.spawned,
			completed: m.completed,
			lost:      m.pl.Stats().LostActivities,
		}
		out.declared, _ = det.DeadAt(crashRank)
		for _, fe := range ferrs {
			if fe == nil {
				out.errs = append(out.errs, "")
			} else {
				out.errs = append(out.errs, fe.Error())
			}
		}
		for _, s := range states {
			out.rounds = append(out.rounds, s.pollRound)
		}
		return out
	}
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ref := runForest(t, seed, 1)
			got := runForest(t, seed, 8)
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("GOMAXPROCS 8 forest diverged from GOMAXPROCS 1:\n got: %+v\nwant: %+v", got, ref)
			}
		})
	}
}

// TestResilientFinishCleanWhenCrashIsLate pins the boundary case: a
// crash declared only after the finish has fully terminated must not
// retroactively fail it — every image's End returns nil error and zero
// activities are lost.
func TestResilientFinishCleanWhenCrashIsLate(t *testing.T) {
	const n = 6
	fcfg := fabric.DefaultConfig()
	fcfg.Faults = &fabric.FaultPlan{
		Seed:  3,
		Crash: map[int]sim.Time{1: 50 * sim.Millisecond}, // long after the forest drains
	}
	m, _ := resilientMachine(t, n, 3, fcfg, 5*sim.Microsecond)
	rng := rand.New(rand.NewSource(3))
	ferrs := make([]*failure.ImageFailedError, n)
	for i := 0; i < n; i++ {
		img := m.k.Image(i)
		img.Go("main", func(p *sim.Proc) {
			s := m.pl.Begin(img, m.w)
			m.spawn(img, rng.Intn(n), s.Ref(), buildChain(m, rng, 2))
			_, ferrs[img.Rank()] = m.pl.End(p, img, s)
		})
	}
	if err := m.eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, fe := range ferrs {
		if fe != nil {
			t.Errorf("image %d failed a finish that terminated before the crash: %v", i, fe)
		}
	}
	if m.completed != m.spawned {
		t.Errorf("completed %d of %d spawns with a post-drain crash", m.completed, m.spawned)
	}
	if lost := m.pl.Stats().LostActivities; lost != 0 {
		t.Errorf("charged %d activities lost for a post-drain crash", lost)
	}
}
