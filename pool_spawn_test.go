package caf

// Tests of the recycled record of a spawn that returns no handle (DESIGN
// §4.14): it goes back to the machine's free list once, at the later of
// its ack and the end of its function, never before its initiation, and
// never where a fault plan or a failure detector can move its last
// reference; and the Image of its function lets go of it.

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"caf2go/internal/sim"
)

// released reports, for a spawn record that has passed both its ends,
// whether it was released: on the list and zeroed with pools on, marked
// dead under quarantine.
func released(t *testing.T, m *Machine, s *spawnOp) {
	t.Helper()
	if sim.QuarantinePools {
		if s.op.rec != recDead || m.spawns.Len() != 0 {
			t.Errorf("quarantined record: rec %b, %d records pooled; want dead, 0", s.op.rec, m.spawns.Len())
		}
		return
	}
	if m.spawns.Len() != 1 || s.op.rec != 0 || s.sx != nil || s.op.m != nil {
		t.Errorf("record after both ends: %d records pooled, rec %b; want 1 zeroed record, released once",
			m.spawns.Len(), s.op.rec)
	}
}

// One spawn, its record caught from inside its function, checked at a
// point between its two ends and after both. Either end may come first:
// the ack, before an inline function with a long service (its body runs
// at the service's end) or a proc that computes past it, or the end of an
// inline function that runs at its delivery, before the ack is back.
func TestPoolSpawnRecordReleasedAfterBothEnds(t *testing.T) {
	const long = 20 * Microsecond
	cases := []struct {
		name     string
		ackFirst bool
		opts     []SpawnOpt
		body     func(r *Image)
	}{
		{"ack first, inline", true, []SpawnOpt{Inline(long)}, nil},
		{"ack first, proc", true, nil, func(r *Image) { r.Compute(long) }},
		{"function first, inline", false, []SpawnOpt{Inline(0)}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pooledAndQuarantined(t, func(t *testing.T) {
				m := NewMachine(Config{Images: 2, Seed: 1})
				var s *spawnOp
				ran, checked := false, false
				// mid checks the record between its ends: one end passed,
				// not released.
				mid := func(ackDone bool) {
					checked = true
					if s.op.rec != recPooled|recEnded || s.tok.done != ackDone || m.spawns.Len() != 0 {
						t.Errorf("between the ends: rec %b, ack done %v, %d records pooled; want %b, %v, 0",
							s.op.rec, s.tok.done, m.spawns.Len(), recPooled|recEnded, ackDone)
					}
				}
				m.Launch(func(img *Image) {
					img.Finish(nil, func() {
						if img.Rank() != 0 {
							return
						}
						img.Spawn(1, func(r *Image) {
							s, ran = r.spawn, true
							if c.body != nil {
								c.body(r)
							}
							if c.ackFirst {
								mid(true)
								return
							}
							if s.op.rec != recPooled || s.tok.done {
								t.Errorf("record in its function before the ack: rec %b, ack done %v; want %b, false",
									s.op.rec, s.tok.done, recPooled)
							}
							m.eng.At(r.Now()+Nanosecond, func() { mid(false) })
						}, c.opts...)
					})
				})
				if _, err := m.RunToCompletion(); err != nil {
					t.Fatal(err)
				}
				if !ran || !checked {
					t.Fatalf("function ran %v, record checked between its ends %v", ran, checked)
				}
				released(t, m, s)
			})
		})
	}
}

// A spawn's record is released at the second of its two ends under a
// failure detector and a fault plan too: a duplicate delivered after the
// ack is dropped before dispatch, a send the fabric abandons never
// reaches its ack, and a function a declaration unwinds never reaches its
// end, so neither is released. The free list fills in the pooled run, and
// the quarantined run lets nothing through: a use of a released record
// would panic.
func TestQuarantineSpawnUnderDetectorOrFaultsRecycles(t *testing.T) {
	detector := FailureDetectorConfig{Enabled: true, Heartbeat: Microsecond}
	for name, cfg := range map[string]Config{
		"none":     {Images: 3, Seed: 1},
		"detector": {Images: 3, Seed: 1, FailureDetector: detector},
		"aborted": {Images: 3, Seed: 1, FailureDetector: detector,
			Fabric: FabricConfig{Faults: &FaultPlan{Seed: 1, Crash: map[int]Time{1: 5 * Microsecond}}}},
		"dup": {Images: 3, Seed: 1, Fabric: FabricConfig{Faults: &FaultPlan{Seed: 1, Dup: 1.0, Jitter: 5 * Microsecond}}},
	} {
		t.Run(name, func(t *testing.T) {
			pooledAndQuarantined(t, func(t *testing.T) {
				m := NewMachine(cfg)
				ran := 0
				m.Launch(func(img *Image) {
					if img.Rank() != 0 {
						img.Compute(100 * Microsecond)
						return
					}
					// Rank 1 dies at 5 µs in the "aborted" run, with
					// spawns to it in flight.
					for i := 0; i < 64; i++ {
						img.Spawn(1+i%2, func(*Image) { ran++ }, Inline(Microsecond))
						img.Spawn(1+i%2, func(r *Image) { ran++; r.Compute(Microsecond) })
						img.Compute(200 * Nanosecond)
					}
				})
				_, err := m.RunToCompletion()
				var ferr *ImageFailedError
				if name == "aborted" {
					if !m.ImageDead(1) || (err != nil && !errors.As(err, &ferr)) {
						t.Fatalf("image 1 declared dead %v, err %v", m.ImageDead(1), err)
					}
				} else if err != nil {
					t.Fatal(err)
				}
				if ran == 0 {
					t.Fatal("no shipped function ran")
				}
				if !sim.QuarantinePools && m.spawns.Len() == 0 {
					t.Error("no spawn record pooled")
				}
			})
		})
	}
}

// The Image of a proc's function is its own record and may be kept past
// the function's return, by a continuation that reads it later. The
// spawn record is not: it was recycled, and a later spawn to the image
// carries another payload in it while its function runs. The kept Image
// reads no payload, during the later functions or after them.
func TestPoolKeptProcImageReadsNoLaterPayload(t *testing.T) {
	pooledAndQuarantined(t, func(t *testing.T) {
		var kept *Image
		var inFn, inCont, during, after []byte
		later := 0
		_, err := Run(Config{Images: 2, Seed: 1}, func(img *Image) {
			img.Finish(nil, func() {
				if img.Rank() != 0 {
					return
				}
				img.Spawn(1, func(r *Image) {
					kept, inFn = r, r.Payload()
					// The continuation fires after this function has
					// returned, when the spawn to image 0 has run.
					r.SpawnHandle(0, func(*Image) {}).OnGlobalCompletion(func() { inCont = r.Payload() })
				}, WithPayload([]byte("first")))
			})
			img.Finish(nil, func() {
				for i := 0; i < 8 && img.Rank() == 0; i++ {
					img.Spawn(1, func(r *Image) {
						later += len(r.Payload())
						during = append(during, kept.Payload()...)
					}, WithPayload([]byte("later")))
				}
			})
			if img.Rank() == 0 {
				after = kept.Payload()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(inFn, []byte("first")) || later != 8*len("later") {
			t.Fatalf("payloads read inside the functions: %q, %d bytes of later ones", inFn, later)
		}
		if inCont != nil || during != nil || after != nil {
			t.Errorf("kept Image read payload %q in a continuation, %q during later spawns and %q after them, want none",
				inCont, during, after)
		}
	})
}

// A spawn that relaxed mode defers sits in the cofence tracker's buffer,
// which holds its record, until a synchronization point initiates it. The
// record is not released before then: the spawns after it take other
// records, and each buffered spawn ships its own function.
func TestPoolDeferredSpawnIsNotReleasedBeforeItsInitiation(t *testing.T) {
	pooledAndQuarantined(t, func(t *testing.T) {
		const spawns = 6
		m := NewMachine(Config{Images: 2, Seed: 1, Relaxed: true, MaxDelayed: 8})
		sum, delayed := 0, 0
		m.Launch(func(img *Image) {
			img.Finish(nil, func() {
				if img.Rank() != 0 {
					return
				}
				for round := 0; round < 2; round++ {
					for i := 0; i < spawns; i++ {
						v := 1 << (round*spawns + i)
						img.Spawn(1, func(*Image) { sum += v }, Inline(0))
					}
					delayed = max(delayed, img.ct.Delayed())
					img.Compute(50 * Microsecond) // past any ack, were they sent
					if got := m.spawns.Len(); round == 0 && got != 0 {
						t.Errorf("%d records released with every spawn still buffered", got)
					}
					img.Cofence(AllowNone, AllowNone) // a synchronization point: initiates them
					img.Compute(50 * Microsecond)
				}
			})
		})
		if _, err := m.RunToCompletion(); err != nil {
			t.Fatal(err)
		}
		if delayed != spawns {
			t.Fatalf("%d spawns buffered, want %d", delayed, spawns)
		}
		if want := 1<<(2*spawns) - 1; sum != want {
			t.Errorf("the functions summed to %b, want %b: a buffered spawn shipped another's function", sum, want)
		}
	})
}

// An inline function that leaves a copy unfenced keeps its record, and so
// its Image; the spawn record behind it is recycled, and the next spawn
// to the image takes it. A parking call on the kept Image, made while
// that next function runs, still panics with an InlineParkError, and the
// error names no function: not the next one.
func TestInlineKeptImageParkNamesNoLaterFunction(t *testing.T) {
	var kept *Image
	var got any
	_, err := Run(Config{Images: 2, Seed: 1}, func(img *Image) {
		ca := NewCoarray[int](img, nil, 2)
		img.Finish(nil, func() {
			if img.Rank() == 0 {
				img.Spawn(1, func(r *Image) {
					kept = r
					CopyAsync(r, ca.Sec(0, 1, 2), Local([]int{1}))
				}, Inline(0))
			}
		})
		img.Finish(nil, func() {
			if img.Rank() == 0 {
				img.Spawn(1, func(*Image) {
					defer func() { got = recover() }()
					kept.Compute(Microsecond)
				}, Inline(0))
			}
		})
	})
	if err != nil || kept == nil {
		t.Fatalf("run: %v, kept %v", err, kept)
	}
	perr, ok := got.(*InlineParkError)
	if !ok || perr.Op != "Compute" || strings.Contains(perr.Fn, "func") {
		t.Errorf("Compute on a kept inline Image: panic %v, want an InlineParkError naming no function", got)
	}
}
