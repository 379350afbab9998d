package core

import (
	"fmt"
	"math/rand"
	"testing"

	"caf2go/internal/fabric"
	"caf2go/internal/rt"
	"caf2go/internal/sim"
)

// TestTheorem1PropertyRandomForests is the property-based check of
// Theorem 1: for randomized, seed-swept spawn forests the detection loop
// uses at most L+1 allreduce rounds (L = longest transitive spawn chain)
// and never terminates before the last transitively spawned function —
// under both FIFO and jittered (reordering) delivery. Jitter is a fault
// plan's, the one thing that reorders a channel.
func TestTheorem1PropertyRandomForests(t *testing.T) {
	jittered := fabric.DefaultConfig()
	jittered.Faults = &fabric.FaultPlan{Jitter: 10 * sim.Microsecond}

	fabrics := []struct {
		name string
		cfg  fabric.Config
	}{
		{"fifo", fabric.DefaultConfig()},
		{"jitter", jittered},
	}
	for _, fc := range fabrics {
		fc := fc
		for seed := int64(1); seed <= 8; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("%s/seed=%d", fc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed * 977))
				n := rng.Intn(14) + 2
				maxDepth := rng.Intn(4) // forest depth budget 0..3
				m := newMachineFabric(t, n, seed, Config{WaitQuiescent: true}, fc.cfg)

				// L is the longest chain actually planted, not the budget.
				longest := 0
				earliest, rounds := m.runFinish(t, func(img *rt.ImageKernel, p *sim.Proc, ref Ref) {
					fan := rng.Intn(3)
					for f := 0; f < fan; f++ {
						depth := rng.Intn(maxDepth + 1)
						if depth == 0 {
							continue
						}
						if depth > longest {
							longest = depth
						}
						m.spawn(img, rng.Intn(n), ref, buildChain(m, rng, depth))
					}
				})
				if m.completed != m.spawned {
					t.Fatalf("completed %d of %d spawns", m.completed, m.spawned)
				}
				if m.spawned > 0 && m.lastDoneAt > earliest {
					t.Errorf("finish terminated early: last spawn done at %v, earliest End return %v",
						m.lastDoneAt, earliest)
				}
				if rounds > longest+1 {
					t.Errorf("L=%d used %d rounds, Theorem 1 bound is %d", longest, rounds, longest+1)
				}
			})
		}
	}
}

// TestFinishExactUnderFaults drives the finish plane over a lossy,
// duplicating, reordering fabric: the reliability layer must keep the
// message-parity counters exact — every spawn counted once, every credit
// returned once — so detection is neither early nor stuck, and every
// finish state is garbage-collected.
func TestFinishExactUnderFaults(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fcfg := fabric.DefaultConfig()
			fcfg.Faults = &fabric.FaultPlan{
				Seed:      seed,
				Drop:      0.25,
				Dup:       0.2,
				Jitter:    15 * sim.Microsecond,
				StallProb: 0.1,
				Stall:     30 * sim.Microsecond,
			}
			n := 8
			m := newMachineFabric(t, n, seed, Config{WaitQuiescent: true}, fcfg)
			rng := rand.New(rand.NewSource(seed))
			earliest, _ := m.runFinish(t, func(img *rt.ImageKernel, p *sim.Proc, ref Ref) {
				for f := 0; f < 2; f++ {
					m.spawn(img, rng.Intn(n), ref, buildChain(m, rng, 1+rng.Intn(2)))
				}
			})
			if m.completed != m.spawned {
				t.Fatalf("completed %d of %d spawns under faults", m.completed, m.spawned)
			}
			if m.lastDoneAt > earliest {
				t.Errorf("finish terminated early under faults: work done at %v, End at %v",
					m.lastDoneAt, earliest)
			}
			st := m.pl.Stats()
			if st.TrackedArrives != st.TrackedSends {
				t.Errorf("tracked arrives %d != sends %d: dedup failed to keep counters exact",
					st.TrackedArrives, st.TrackedSends)
			}
			fs := m.k.Fabric().Stats()
			if fs.Retransmits == 0 && fs.DupsDropped == 0 {
				t.Error("fault plan injected nothing — test exercised no recovery")
			}
			if fs.Abandoned != 0 {
				t.Errorf("abandoned %d messages without a crash", fs.Abandoned)
			}
			for i := 0; i < n; i++ {
				if got := m.pl.ActiveStates(i); got != 0 {
					t.Errorf("image %d leaked %d finish states (credits not all resolved exactly once)", i, got)
				}
			}
		})
	}
}

// TestLateAckAfterFoldCountsOnce pins the epoch-fold ack-forwarding
// contract the dedup work depends on: a delivery ack that returns after
// the sender's odd epoch was folded must follow the forwarding pointer
// into the even epoch and be counted there exactly once — not in the dead
// odd box, and never twice.
func TestLateAckAfterFoldCountsOnce(t *testing.T) {
	m := newMachine(t, 1, 1, Config{WaitQuiescent: true})
	img := m.k.Image(0)
	const id = int64(42)

	s := m.pl.state(0, id)
	s.presentOdd = true // the image is in an odd epoch when it sends

	stamped := m.pl.OnSend(img, id)
	if !stamped.ParityOdd {
		t.Fatal("send in an odd epoch not stamped odd")
	}
	odd := s.odd
	if odd == nil || odd.sent != 1 {
		t.Fatalf("send not counted in the odd epoch: %+v", odd)
	}

	// next_epoch's second call folds odd into even before the ack lands.
	s.fold()
	if s.even.sent != 1 {
		t.Fatalf("fold did not carry the send count: even.sent = %d", s.even.sent)
	}

	// The late ack now arrives: it must land in even via the forward
	// pointer, exactly once.
	m.pl.OnAck(img, 0, stamped)
	if s.even.delivered != 1 {
		t.Errorf("even.delivered = %d, want 1 (late ack must follow the fold)", s.even.delivered)
	}
	if odd.epoch.delivered != 0 {
		t.Errorf("odd.delivered = %d, want 0 (the folded box is dead)", odd.epoch.delivered)
	}
	if !s.even.quiescent() {
		t.Error("epoch not quiescent after the single late ack")
	}
}
