package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"caf2go/internal/collect"
	"caf2go/internal/fabric"
	"caf2go/internal/rt"
	"caf2go/internal/sim"
	"caf2go/internal/team"
)

const tagSpawn uint16 = 200

// machine is a test harness: a kernel with a finish plane and a minimal
// function-shipping mechanism (the real one lives in the caf package).
type machine struct {
	eng  *sim.Engine
	k    *rt.Kernel
	comm *collect.Comm
	pl   *Plane
	w    *team.Team

	spawned    int
	completed  int
	lastDoneAt sim.Time
}

type shipped func(img *rt.ImageKernel, p *sim.Proc, ref Ref)

func newMachine(t testing.TB, n int, seed int64, cfg Config) *machine {
	t.Helper()
	return newMachineFabric(t, n, seed, cfg, fabric.DefaultConfig())
}

// newMachineFabric is newMachine with an explicit fabric cost model, for
// exercising the finish plane over jittered or faulty delivery.
func newMachineFabric(t testing.TB, n int, seed int64, cfg Config, fcfg fabric.Config) *machine {
	t.Helper()
	return newMachineTree(t, n, seed, cfg, fcfg, collect.Binomial)
}

// newMachineTree is newMachineFabric with the collectives on the given
// tree shape.
func newMachineTree(t testing.TB, n int, seed int64, cfg Config, fcfg fabric.Config, tree collect.Tree) *machine {
	t.Helper()
	eng := sim.NewEngine(seed)
	k := rt.NewKernel(eng, n, fcfg)
	m := &machine{eng: eng, k: k, comm: collect.NewWithTree(k, tree), w: team.World(n)}
	m.pl = NewPlane(k, m.comm, cfg)
	k.RegisterHandler(tagSpawn, func(d *rt.Delivery) {
		d.Detach()
		fn := d.Payload.(shipped)
		d.Img.Go("spawned", func(p *sim.Proc) {
			ref := d.Track()
			fn(d.Img, p, Ref{ID: ref.ID})
			m.completed++
			m.lastDoneAt = p.Now()
			d.Complete()
		})
	})
	return m
}

// spawn ships fn to image dst inside the finish identified by ref.
func (m *machine) spawn(src *rt.ImageKernel, dst int, ref Ref, fn shipped) {
	m.spawned++
	src.Send(dst, tagSpawn, fn, rt.SendOpts{Finish: ref.ID, Class: fabric.AMMedium, Bytes: 64})
}

// runFinish runs body inside a finish block on every image and returns
// (earliest End-return time, rounds used on image 0).
func (m *machine) runFinish(t testing.TB, body func(img *rt.ImageKernel, p *sim.Proc, ref Ref)) (sim.Time, int) {
	t.Helper()
	earliest := sim.Forever
	rounds := 0
	for i := 0; i < m.k.NumImages(); i++ {
		img := m.k.Image(i)
		img.Go("main", func(p *sim.Proc) {
			s := m.pl.Begin(img, m.w)
			body(img, p, s.Ref())
			r, _ := m.pl.End(p, img, s)
			if p.Now() < earliest {
				earliest = p.Now()
			}
			if img.Rank() == 0 {
				rounds = r
			}
		})
	}
	if err := m.eng.Run(); err != nil {
		t.Fatal(err)
	}
	return earliest, rounds
}

func TestEmptyFinishOneRound(t *testing.T) {
	m := newMachine(t, 8, 1, Config{WaitQuiescent: true})
	_, rounds := m.runFinish(t, func(img *rt.ImageKernel, p *sim.Proc, ref Ref) {})
	if rounds != 1 {
		t.Errorf("empty finish used %d rounds, want 1 (Theorem 1, L=0)", rounds)
	}
}

func TestSimpleSpawnsDetected(t *testing.T) {
	m := newMachine(t, 8, 1, Config{WaitQuiescent: true})
	earliest, rounds := m.runFinish(t, func(img *rt.ImageKernel, p *sim.Proc, ref Ref) {
		for j := 0; j < 3; j++ {
			dst := (img.Rank() + j + 1) % 8
			m.spawn(img, dst, ref, func(ri *rt.ImageKernel, rp *sim.Proc, _ Ref) {
				rp.Sleep(100 * sim.Microsecond)
			})
		}
	})
	if m.completed != m.spawned || m.spawned != 24 {
		t.Fatalf("completed %d of %d spawns", m.completed, m.spawned)
	}
	if m.lastDoneAt > earliest {
		t.Errorf("a spawn completed at %v after the earliest End return %v — finish terminated early",
			m.lastDoneAt, earliest)
	}
	if rounds > 2 {
		t.Errorf("L=1 used %d rounds, want ≤ 2 (Theorem 1)", rounds)
	}
}

func TestTransitiveSpawnChain(t *testing.T) {
	// The Fig. 5 scenario: p ships f1 to q, f1 ships f2 to r. A barrier
	// would miss f2; finish must not.
	m := newMachine(t, 3, 1, Config{WaitQuiescent: true})
	f2ran := false
	earliest, rounds := m.runFinish(t, func(img *rt.ImageKernel, p *sim.Proc, ref Ref) {
		if img.Rank() != 0 {
			return
		}
		m.spawn(img, 1, ref, func(q *rt.ImageKernel, qp *sim.Proc, qref Ref) {
			qp.Sleep(1 * sim.Millisecond)
			m.spawn(q, 2, qref, func(r *rt.ImageKernel, rp *sim.Proc, _ Ref) {
				rp.Sleep(2 * sim.Millisecond)
				f2ran = true
			})
		})
	})
	if !f2ran {
		t.Fatal("f2 never ran")
	}
	if m.lastDoneAt > earliest {
		t.Errorf("f2 done at %v after earliest End at %v", m.lastDoneAt, earliest)
	}
	if rounds > 3 {
		t.Errorf("L=2 used %d rounds, want ≤ 3", rounds)
	}
}

// buildChain spawns a chain of length depth hopping across random images.
func buildChain(m *machine, rng *rand.Rand, depth int) shipped {
	return func(img *rt.ImageKernel, p *sim.Proc, ref Ref) {
		p.Sleep(sim.Time(rng.Intn(200)) * sim.Microsecond)
		if depth > 1 {
			dst := rng.Intn(m.k.NumImages())
			m.spawn(img, dst, ref, buildChain(m, rng, depth-1))
		}
	}
}

func TestTheorem1RoundBound(t *testing.T) {
	for _, l := range []int{0, 1, 2, 3, 5} {
		l := l
		t.Run(fmt.Sprintf("L=%d", l), func(t *testing.T) {
			m := newMachine(t, 16, int64(l)+7, Config{WaitQuiescent: true})
			rng := rand.New(rand.NewSource(int64(l)))
			_, rounds := m.runFinish(t, func(img *rt.ImageKernel, p *sim.Proc, ref Ref) {
				if l > 0 && img.Rank()%3 == 0 {
					dst := rng.Intn(16)
					m.spawn(img, dst, ref, buildChain(m, rng, l))
				}
			})
			if m.completed != m.spawned {
				t.Fatalf("completed %d of %d", m.completed, m.spawned)
			}
			if rounds > l+1 {
				t.Errorf("L=%d used %d rounds, Theorem 1 bound is %d", l, rounds, l+1)
			}
		})
	}
}

func TestNoWaitVariantCorrectButMoreRounds(t *testing.T) {
	// Fig. 18: without the wait-until precondition detection still works
	// but takes at least as many (in practice roughly double) reduction
	// rounds.
	run := func(cfg Config) (int, bool) {
		m := newMachine(t, 16, 3, cfg)
		rng := rand.New(rand.NewSource(9))
		_, rounds := m.runFinish(t, func(img *rt.ImageKernel, p *sim.Proc, ref Ref) {
			if img.Rank()%2 == 0 {
				m.spawn(img, rng.Intn(16), ref, buildChain(m, rng, 3))
			}
		})
		return rounds, m.completed == m.spawned
	}
	waitRounds, okWait := run(Config{WaitQuiescent: true})
	noWaitRounds, okNoWait := run(Config{WaitQuiescent: false})
	if !okWait || !okNoWait {
		t.Fatal("a variant terminated early")
	}
	if noWaitRounds < waitRounds {
		t.Errorf("no-wait used fewer rounds (%d) than wait variant (%d)", noWaitRounds, waitRounds)
	}
	if noWaitRounds == waitRounds {
		t.Logf("note: variants tied at %d rounds on this workload", waitRounds)
	}
}

func TestNestedFinish(t *testing.T) {
	m := newMachine(t, 8, 1, Config{WaitQuiescent: true})
	innerDone := 0
	outerDone := 0
	for i := 0; i < 8; i++ {
		img := m.k.Image(i)
		img.Go("main", func(p *sim.Proc) {
			outer := m.pl.Begin(img, m.w)
			m.spawn(img, (img.Rank()+1)%8, outer.Ref(), func(ri *rt.ImageKernel, rp *sim.Proc, _ Ref) {
				rp.Sleep(3 * sim.Millisecond)
				outerDone++
			})
			inner := m.pl.Begin(img, m.w)
			m.spawn(img, (img.Rank()+2)%8, inner.Ref(), func(ri *rt.ImageKernel, rp *sim.Proc, _ Ref) {
				rp.Sleep(1 * sim.Millisecond)
				innerDone++
			})
			m.pl.End(p, img, inner)
			if innerDone != 8 {
				t.Errorf("image %d: inner finish closed with %d/8 inner spawns done", img.Rank(), innerDone)
			}
			m.pl.End(p, img, outer)
		})
	}
	if err := m.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if outerDone != 8 || m.completed != 16 {
		t.Errorf("outer=%d completed=%d", outerDone, m.completed)
	}
}

func TestSubteamFinish(t *testing.T) {
	// finish over a subteam must only synchronize its members.
	n := 8
	eng := sim.NewEngine(1)
	k := rt.NewKernel(eng, n, fabric.DefaultConfig())
	comm := collect.New(k)
	pl := NewPlane(k, comm, Config{WaitQuiescent: true})
	w := team.World(n)
	specs := make([]team.SplitSpec, n)
	for i := 0; i < n; i++ {
		specs[i] = team.SplitSpec{World: i, Color: i % 2, Key: i}
	}
	teams, err := team.Split(w, specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	k.RegisterHandler(tagSpawn, func(d *rt.Delivery) {})
	done := 0
	for i := 0; i < n; i++ {
		img := k.Image(i)
		img.Go("main", func(p *sim.Proc) {
			tm := teams[img.Rank()%2]
			s := pl.Begin(img, tm)
			img.Send(tm.WorldRank((tm.MustRank(img.Rank())+1)%tm.Size()), tagSpawn, nil,
				rt.SendOpts{Finish: s.Ref().ID, Class: fabric.AMShort, Bytes: 8})
			pl.End(p, img, s)
			done++
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if done != n {
		t.Errorf("done = %d", done)
	}
}

func TestStateGarbageCollected(t *testing.T) {
	m := newMachine(t, 4, 1, Config{WaitQuiescent: true})
	for round := 0; round < 5; round++ {
		// fresh finish per round, sequential via engine reuse
		for i := 0; i < 4; i++ {
			img := m.k.Image(i)
			img.Go("main", func(p *sim.Proc) {
				s := m.pl.Begin(img, m.w)
				m.spawn(img, (img.Rank()+1)%4, s.Ref(), func(ri *rt.ImageKernel, rp *sim.Proc, _ Ref) {})
				m.pl.End(p, img, s)
			})
		}
		if err := m.eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if got := m.pl.ActiveStates(i); got != 0 {
			t.Errorf("image %d leaked %d finish states", i, got)
		}
	}
}

func TestBeginTwicePanics(t *testing.T) {
	m := newMachine(t, 2, 1, Config{})
	m.k.Image(0).Go("main", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("duplicate Begin did not panic")
			}
		}()
		m.pl.Begin(m.k.Image(0), m.w)
		// Matching second Begin on the same team yields a new seq — force
		// a collision by manipulating the state map directly instead.
		s := m.pl.state(0, FinishID(m.w, 1))
		_ = s
		m.pl.images[0].seqs[0].seq = 0 // rewind → next Begin recomputes id 1
		m.pl.Begin(m.k.Image(0), m.w)
	})
	_ = m.eng.Run()
	m.eng.Shutdown()
}

func TestBeginNonMemberPanics(t *testing.T) {
	m := newMachine(t, 4, 1, Config{})
	sub := team.New(5, []int{0, 1})
	defer func() {
		if recover() == nil {
			t.Error("Begin on non-member team did not panic")
		}
	}()
	m.pl.Begin(m.k.Image(3), sub)
}

func TestFinishIDDeterministic(t *testing.T) {
	w := team.World(4)
	if FinishID(w, 1) != FinishID(w, 1) {
		t.Error("FinishID not deterministic")
	}
	if FinishID(w, 1) == FinishID(w, 2) {
		t.Error("seq collision")
	}
	u := team.New(3, []int{0, 1})
	if FinishID(w, 1) == FinishID(u, 1) {
		t.Error("team collision")
	}
}

// Property: for random spawn forests, finish never terminates before all
// transitively spawned functions complete, and Theorem 1's bound holds.
func TestPropertyFinishSound(t *testing.T) {
	prop := func(seed int64, nImg, fanRaw, depthRaw uint8) bool {
		n := int(nImg%12) + 2
		fan := int(fanRaw % 4)
		depth := int(depthRaw % 4)
		m := newMachine(t, n, seed, Config{WaitQuiescent: true})
		rng := rand.New(rand.NewSource(seed))
		earliest, rounds := m.runFinish(t, func(img *rt.ImageKernel, p *sim.Proc, ref Ref) {
			for f := 0; f < fan; f++ {
				if depth > 0 {
					m.spawn(img, rng.Intn(n), ref, buildChain(m, rng, depth))
				}
			}
		})
		if m.completed != m.spawned {
			return false
		}
		if m.spawned > 0 && m.lastDoneAt > earliest {
			return false
		}
		return rounds <= depth+1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the no-wait variant is also sound (never early), merely
// costlier.
func TestPropertyNoWaitSound(t *testing.T) {
	prop := func(seed int64, nImg, depthRaw uint8) bool {
		n := int(nImg%10) + 2
		depth := int(depthRaw%3) + 1
		m := newMachine(t, n, seed, Config{WaitQuiescent: false})
		rng := rand.New(rand.NewSource(seed ^ 0x5a5a))
		earliest, _ := m.runFinish(t, func(img *rt.ImageKernel, p *sim.Proc, ref Ref) {
			if img.Rank()%2 == 0 {
				m.spawn(img, rng.Intn(n), ref, buildChain(m, rng, depth))
			}
		})
		if m.completed != m.spawned {
			return false
		}
		return m.spawned == 0 || m.lastDoneAt <= earliest
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPlaneStats(t *testing.T) {
	m := newMachine(t, 4, 1, Config{WaitQuiescent: true})
	m.runFinish(t, func(img *rt.ImageKernel, p *sim.Proc, ref Ref) {
		m.spawn(img, (img.Rank()+1)%4, ref, func(ri *rt.ImageKernel, rp *sim.Proc, _ Ref) {})
	})
	st := m.pl.Stats()
	if st.Finishes != 4 {
		t.Errorf("Finishes = %d, want 4 (one per image)", st.Finishes)
	}
	if st.TrackedSends != 4 || st.TrackedArrives != 4 {
		t.Errorf("tracked sends/arrives = %d/%d, want 4/4", st.TrackedSends, st.TrackedArrives)
	}
	if st.ReduceRounds < 4 {
		t.Errorf("ReduceRounds = %d", st.ReduceRounds)
	}
}

func TestTheorem1HoldsNested(t *testing.T) {
	// "This theorem also holds when nested finish blocks exist" — the
	// inner block's round count is bounded by its own longest chain.
	m := newMachine(t, 8, 5, Config{WaitQuiescent: true})
	innerRounds := -1
	for i := 0; i < 8; i++ {
		img := m.k.Image(i)
		img.Go("main", func(p *sim.Proc) {
			outer := m.pl.Begin(img, m.w)
			// Outer chain of length 3.
			if img.Rank() == 0 {
				m.spawn(img, 1, outer.Ref(), buildChain(m, rand.New(rand.NewSource(1)), 3))
			}
			inner := m.pl.Begin(img, m.w)
			// Inner chain of length 1 only.
			m.spawn(img, (img.Rank()+1)%8, inner.Ref(), func(ri *rt.ImageKernel, rp *sim.Proc, _ Ref) {
				rp.Sleep(50 * sim.Microsecond)
			})
			r, _ := m.pl.End(p, img, inner)
			if img.Rank() == 0 {
				innerRounds = r
			}
			m.pl.End(p, img, outer)
		})
	}
	if err := m.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if m.completed != m.spawned {
		t.Fatalf("completed %d of %d", m.completed, m.spawned)
	}
	if innerRounds > 2 {
		t.Errorf("inner finish (L=1) used %d rounds, bound is 2", innerRounds)
	}
}

func TestCriticalPathLogP(t *testing.T) {
	// O((L+1) log p): detection time for an empty finish must grow far
	// slower than linearly in p.
	timeFor := func(n int) sim.Time {
		m := newMachine(t, n, 1, Config{WaitQuiescent: true})
		var dur sim.Time
		for i := 0; i < n; i++ {
			img := m.k.Image(i)
			img.Go("main", func(p *sim.Proc) {
				s := m.pl.Begin(img, m.w)
				start := p.Now()
				m.pl.End(p, img, s)
				if img.Rank() == 0 {
					dur = p.Now() - start
				}
			})
		}
		if err := m.eng.Run(); err != nil {
			t.Fatal(err)
		}
		return dur
	}
	t16, t256 := timeFor(16), timeFor(256)
	// p grew 16x; log p grew 2x. Allow 4x slack.
	if t256 > 4*t16 {
		t.Errorf("finish detection not log-scaling: %v at 16 vs %v at 256", t16, t256)
	}
}

// finishEvery starts a main on every image that enters and leaves a
// finish over the world once per gap, forever: an empty one, or with
// spawn one that ships an empty function to the right neighbour. Each
// RunUntil(Now()+gap) then runs one finish per image, on a plane, a
// communicator and mains that the earlier finishes warmed.
func (m *machine) finishEvery(spawn bool) (gap sim.Time) {
	gap = sim.Millisecond
	n := m.k.NumImages()
	for i := 0; i < n; i++ {
		img := m.k.Image(i)
		img.Go("main", func(p *sim.Proc) {
			for {
				p.Sleep(gap)
				s := m.pl.Begin(img, m.w)
				if spawn {
					m.spawn(img, (i+1)%n, s.Ref(), func(*rt.ImageKernel, *sim.Proc, Ref) {})
				}
				m.pl.End(p, img, s)
			}
		})
	}
	return gap
}

// An empty finish allocates nothing per image but its state: the round's
// contribution is on the stack, its result is read off the reduction's
// recycled instance, and its completion time is stored in the state. It
// was 3 objects, the state plus the copy of the reduced vector and the
// one-entry RoundAt, while a blocking loop ran the round.
func TestPoolEmptyFinishRoundAllocs(t *testing.T) {
	if sim.GoRace || sim.QuarantinePools {
		t.Skip("allocation counts are pinned without -race, pools on")
	}
	const images = 64
	m := newMachine(t, images, 1, Config{WaitQuiescent: true})
	gap := m.finishEvery(false)
	defer m.eng.Shutdown()
	run := func() {
		if err := m.eng.RunUntil(m.eng.Now() + gap); err != nil {
			t.Fatal(err)
		}
	}
	run()
	run()
	perImage := testing.AllocsPerRun(20, run) / images
	t.Logf("%.2f objects per image per finish", perImage)
	if perImage > 1 {
		t.Errorf("%.2f objects per image per finish, want ≤ 1", perImage)
	}
}

// BenchmarkFinishRounds prices one finish on 64 images (an op is one
// finish on every image), warmed: an empty one, the shape of the
// core.finish_empty64 probe, and one that ships an empty function to the
// right neighbour from each image.
func BenchmarkFinishRounds(b *testing.B) {
	for _, spawn := range []bool{false, true} {
		name := "empty"
		if spawn {
			name = "spawn"
		}
		b.Run(name, func(b *testing.B) {
			m := newMachine(b, 64, 1, Config{WaitQuiescent: true})
			gap := m.finishEvery(spawn)
			defer m.eng.Shutdown()
			run := func() {
				if err := m.eng.RunUntil(m.eng.Now() + gap); err != nil {
					b.Fatal(err)
				}
			}
			run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.StopTimer()
		})
	}
}

// benchTreeShape runs b.N finishes over 128 images whose collectives use
// one tree shape, image 0 shipping an empty function to image 1 in each,
// and reports the virtual time per finish: the binomial tree's O(log p)
// critical path against the flat star's O(p).
func benchTreeShape(b *testing.B, tree collect.Tree) {
	const images = 128
	m := newMachineTree(b, images, 1, Config{WaitQuiescent: true}, fabric.DefaultConfig(), tree)
	n := b.N
	for i := 0; i < images; i++ {
		img := m.k.Image(i)
		img.Go("main", func(p *sim.Proc) {
			for j := 0; j < n; j++ {
				s := m.pl.Begin(img, m.w)
				if i == 0 {
					m.spawn(img, 1, s.Ref(), func(*rt.ImageKernel, *sim.Proc, Ref) {})
				}
				m.pl.End(p, img, s)
			}
		})
	}
	if err := m.eng.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(m.eng.Now().Seconds()/float64(n), "vsec/op")
}

func BenchmarkAblationBinomialTree(b *testing.B) { benchTreeShape(b, collect.Binomial) }
func BenchmarkAblationFlatTree(b *testing.B)     { benchTreeShape(b, collect.Flat) }
