package caf_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	caf "caf2go"
)

func run(t testing.TB, n int, main func(img *caf.Image)) caf.Report {
	t.Helper()
	rep, err := caf.Run(caf.Config{Images: n, Seed: 1}, main)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestHelloRanks(t *testing.T) {
	seen := make([]bool, 8)
	run(t, 8, func(img *caf.Image) {
		if img.NumImages() != 8 {
			t.Errorf("NumImages = %d", img.NumImages())
		}
		seen[img.Rank()] = true
		if img.World().Size() != 8 {
			t.Errorf("world size = %d", img.World().Size())
		}
	})
	for i, s := range seen {
		if !s {
			t.Errorf("image %d never ran", i)
		}
	}
}

func TestCoarrayPutGetRoundTrip(t *testing.T) {
	run(t, 4, func(img *caf.Image) {
		ca := caf.NewCoarray[int64](img, nil, 16)
		local := ca.Local(img)
		for i := range local {
			local[i] = int64(img.Rank()*100 + i)
		}
		img.Barrier(nil)
		// Blocking get from the right neighbour.
		nbr := (img.Rank() + 1) % 4
		got := caf.Get(img, ca.Sec(nbr, 3, 6))
		for i, v := range got {
			if want := int64(nbr*100 + 3 + i); v != want {
				t.Errorf("image %d got %d, want %d", img.Rank(), v, want)
			}
		}
		// Blocking put into the left neighbour's tail.
		lft := (img.Rank() + 3) % 4
		caf.Put(img, ca.Sec(lft, 14, 16), []int64{int64(img.Rank()), int64(img.Rank())})
		img.Barrier(nil)
		if local[14] != int64((img.Rank()+1)%4) {
			t.Errorf("image %d: put from right neighbour missing: %d", img.Rank(), local[14])
		}
	})
}

func TestCopyAsyncPutWithCofence(t *testing.T) {
	run(t, 2, func(img *caf.Image) {
		ca := caf.NewCoarray[int32](img, nil, 8)
		if img.Rank() == 0 {
			src := []int32{1, 2, 3, 4, 5, 6, 7, 8}
			caf.CopyAsync(img, ca.At(1), caf.Local(src))
			// cofence: local data completion — src reusable, but data may
			// not have LANDED remotely yet.
			img.Cofence(caf.AllowNone, caf.AllowNone)
			for i := range src {
				src[i] = -1 // legal now
			}
		}
		img.Barrier(nil)
		if img.Rank() == 1 {
			local := ca.Local(img)
			for i, v := range local {
				if v != int32(i+1) {
					t.Errorf("dst[%d] = %d, want %d", i, v, i+1)
				}
			}
		}
	})
}

func TestCopyAsyncGet(t *testing.T) {
	run(t, 2, func(img *caf.Image) {
		ca := caf.NewCoarray[int64](img, nil, 4)
		for i := range ca.Local(img) {
			ca.Local(img)[i] = int64(10*img.Rank() + i)
		}
		img.Barrier(nil)
		if img.Rank() == 0 {
			dst := make([]int64, 4)
			caf.CopyAsync(img, caf.Local(dst), ca.At(1))
			// For a get, cofence waits until the data has arrived.
			img.Cofence(caf.AllowNone, caf.AllowNone)
			for i, v := range dst {
				if v != int64(10+i) {
					t.Errorf("get[%d] = %d", i, v)
				}
			}
		}
	})
}

func TestCopyAsyncThirdParty(t *testing.T) {
	// Image 0 initiates a copy from image 1 to image 2.
	run(t, 3, func(img *caf.Image) {
		ca := caf.NewCoarray[int64](img, nil, 4)
		if img.Rank() == 1 {
			copy(ca.Local(img), []int64{7, 8, 9, 10})
		}
		img.Barrier(nil)
		done := img.NewEvent()
		if img.Rank() == 0 {
			caf.CopyAsync(img, ca.At(2), ca.At(1), caf.DestEvent(done))
			// destE is hosted on image 0; wait for delivery at image 2.
			img.EventWait(done)
		}
		img.Barrier(nil)
		if img.Rank() == 2 {
			local := ca.Local(img)
			if local[0] != 7 || local[3] != 10 {
				t.Errorf("third-party copy missing: %v", local)
			}
		}
	})
}

func TestCopyEventsSrcBeforeDest(t *testing.T) {
	run(t, 2, func(img *caf.Image) {
		ca := caf.NewCoarray[byte](img, nil, 4096)
		if img.Rank() == 0 {
			srcE, dstE := img.NewEvent(), img.NewEvent()
			src := make([]byte, 4096)
			caf.CopyAsync(img, ca.At(1), caf.Local(src), caf.SrcEvent(srcE), caf.DestEvent(dstE))
			img.EventWait(srcE)
			tSrc := img.Now()
			img.EventWait(dstE)
			tDst := img.Now()
			if tSrc >= tDst {
				t.Errorf("srcE at %v should precede destE at %v", tSrc, tDst)
			}
		}
	})
}

func TestPredicatedCopyChain(t *testing.T) {
	// The copy fires only after the predicate event posts.
	run(t, 2, func(img *caf.Image) {
		ca := caf.NewCoarray[int64](img, nil, 1)
		pre := img.NewEvent()
		done := img.NewEvent()
		if img.Rank() == 0 {
			src := []int64{42}
			caf.CopyAsync(img, ca.At(1), caf.Local(src), caf.Pred(pre), caf.DestEvent(done))
			img.Compute(5 * caf.Millisecond)
			start := img.Now()
			img.EventNotify(pre)
			img.EventWait(done)
			if img.Now() < start {
				t.Error("copy completed before predicate posted")
			}
		}
	})
}

func TestCofenceFasterThanEventWaitForProducer(t *testing.T) {
	// The premise of Fig. 12: a producer that only needs its buffer back
	// (local data completion / cofence) finishes an iteration faster than
	// one waiting for delivery (local op completion / events).
	producer := func(useEvent bool) caf.Time {
		rep, err := caf.Run(caf.Config{Images: 2, Seed: 1}, func(img *caf.Image) {
			ca := caf.NewCoarray[byte](img, nil, 1<<16)
			if img.Rank() != 0 {
				return
			}
			src := make([]byte, 1<<16)
			for iter := 0; iter < 20; iter++ {
				if useEvent {
					ev := img.NewEvent()
					caf.CopyAsync(img, ca.At(1), caf.Local(src), caf.DestEvent(ev))
					img.EventWait(ev)
				} else {
					caf.CopyAsync(img, ca.At(1), caf.Local(src))
					img.Cofence(caf.AllowNone, caf.AllowNone)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.VirtualTime
	}
	cofenceT, eventT := producer(false), producer(true)
	if cofenceT >= eventT {
		t.Errorf("cofence producer (%v) not faster than event producer (%v)", cofenceT, eventT)
	}
}

func TestSpawnAndFinish(t *testing.T) {
	counts := make([]int, 4)
	rep := run(t, 4, func(img *caf.Image) {
		img.Finish(nil, func() {
			for j := 0; j < 3; j++ {
				target := (img.Rank() + j + 1) % 4
				img.Spawn(target, func(remote *caf.Image) {
					remote.Compute(100 * caf.Microsecond)
					counts[remote.Rank()]++
				})
			}
		})
		// Global completion: all 12 spawns (3 per image) done everywhere.
		total := 0
		for _, c := range counts {
			total += c
		}
		if total != 12 {
			t.Errorf("image %d exited finish with %d/12 spawns done", img.Rank(), total)
		}
	})
	if rep.SpawnsSent != 12 || rep.SpawnsExecuted != 12 {
		t.Errorf("report spawns = %d/%d", rep.SpawnsSent, rep.SpawnsExecuted)
	}
	if rep.FinishBlocks != 4 {
		t.Errorf("finish blocks = %d", rep.FinishBlocks)
	}
}

func TestTransitiveSpawnInheritsFinish(t *testing.T) {
	deepest := false
	run(t, 3, func(img *caf.Image) {
		img.Finish(nil, func() {
			if img.Rank() == 0 {
				img.Spawn(1, func(q *caf.Image) {
					q.Compute(caf.Millisecond)
					q.Spawn(2, func(r *caf.Image) {
						r.Compute(2 * caf.Millisecond)
						deepest = true
					})
				})
			}
		})
		if !deepest {
			t.Errorf("image %d left finish before transitive spawn completed", img.Rank())
		}
	})
}

func TestSpawnWithPayload(t *testing.T) {
	run(t, 2, func(img *caf.Image) {
		img.Finish(nil, func() {
			if img.Rank() == 0 {
				data := []byte{9, 8, 7}
				img.Spawn(1, func(remote *caf.Image) {
					p := remote.Payload()
					if len(p) != 3 || p[0] != 9 || p[2] != 7 {
						t.Errorf("payload = %v", p)
					}
				}, caf.WithPayload(data))
				data[0] = 0 // copied at initiation; remote must still see 9
			}
		})
	})
}

func TestSpawnWithEventExplicitCompletion(t *testing.T) {
	run(t, 2, func(img *caf.Image) {
		if img.Rank() == 0 {
			done := img.NewEvent()
			ran := false
			img.Spawn(1, func(remote *caf.Image) {
				remote.Compute(caf.Millisecond)
				ran = true
			}, caf.WithEvent(done))
			img.EventWait(done)
			if !ran {
				t.Error("event notified before spawn body finished")
			}
		}
	})
}

func TestEventNotifyReleaseSemantics(t *testing.T) {
	// A waiter observing the notify must observe the notifier's earlier
	// implicit remote write.
	run(t, 2, func(img *caf.Image) {
		ca := caf.NewCoarray[int64](img, nil, 1)
		flag := caf.NewCoarray[int64](img, nil, 1) // placeholder to keep allocations matched
		_ = flag
		ev := img.NewEvent() // hosted on each image; we use image 1's
		evs := img.Gather(nil, 0, ev, 16)
		var ev1 *caf.Event
		if img.Rank() == 0 {
			ev1 = evs[1].(*caf.Event)
		}
		img.Barrier(nil)
		if img.Rank() == 0 {
			src := []int64{77}
			caf.CopyAsync(img, ca.At(1), caf.Local(src)) // implicit write to image 1
			img.EventNotify(ev1)                         // release: waiter must see 77
		} else {
			img.EventWait(ev)
			if got := ca.Local(img)[0]; got != 77 {
				t.Errorf("release violated: saw %d after event wait", got)
			}
		}
	})
}

func TestTeamSplitAndSubteamCollectives(t *testing.T) {
	run(t, 8, func(img *caf.Image) {
		tm := img.TeamSplit(nil, img.Rank()%2, img.Rank())
		if tm.Size() != 4 {
			t.Errorf("subteam size = %d", tm.Size())
		}
		sum := img.Allreduce(tm, caf.Sum, []int64{int64(img.Rank())})
		want := int64(0 + 2 + 4 + 6)
		if img.Rank()%2 == 1 {
			want = 1 + 3 + 5 + 7
		}
		if sum[0] != want {
			t.Errorf("image %d: subteam sum = %d, want %d", img.Rank(), sum[0], want)
		}
		// Nested split of the subteam.
		tm2 := img.TeamSplit(tm, tm.MustRank(img.Rank())/2, 0)
		if tm2.Size() != 2 {
			t.Errorf("nested subteam size = %d", tm2.Size())
		}
	})
}

func TestAsyncBroadcastWithEvents(t *testing.T) {
	run(t, 8, func(img *caf.Image) {
		srcE, localE := img.NewEvent(), img.NewEvent()
		var val any
		if img.Rank() == 3 {
			val = "bulk"
		}
		c := img.BroadcastAsync(nil, 3, val, 256, caf.DataEvent(srcE), caf.OpEvent(localE))
		img.EventWait(srcE)
		if c.Result() != "bulk" {
			t.Errorf("image %d: result %v", img.Rank(), c.Result())
		}
		img.EventWait(localE)
		if !c.LocalOpDone() {
			t.Error("localE notified before local op completion")
		}
	})
}

func TestFinishCoversAsyncCollectives(t *testing.T) {
	run(t, 8, func(img *caf.Image) {
		var c *caf.Collective
		img.Finish(nil, func() {
			c = img.AllreduceAsync(nil, caf.Sum, []int64{1})
		})
		// Global completion of the finish implies the collective is done
		// everywhere, in particular locally.
		if !c.LocalOpDone() {
			t.Errorf("image %d: finish closed before async allreduce completed", img.Rank())
		}
		if c.Result().([]int64)[0] != 8 {
			t.Errorf("allreduce = %v", c.Result())
		}
	})
}

func TestRemoteLocks(t *testing.T) {
	run(t, 4, func(img *caf.Image) {
		ca := caf.NewCoarray[int64](img, nil, 1)
		// All images increment image 0's counter under its lock.
		for i := 0; i < 5; i++ {
			img.Lock(0, 1)
			v := caf.Get(img, ca.Sec(0, 0, 1))
			caf.Put(img, ca.Sec(0, 0, 1), []int64{v[0] + 1})
			img.Unlock(0, 1)
		}
		img.Barrier(nil)
		if img.Rank() == 0 {
			if got := ca.Local(img)[0]; got != 20 {
				t.Errorf("locked counter = %d, want 20", got)
			}
		}
	})
}

func TestRelaxedModeStillCorrect(t *testing.T) {
	rep, err := caf.Run(caf.Config{Images: 4, Seed: 1, Relaxed: true}, func(img *caf.Image) {
		ca := caf.NewCoarray[int64](img, nil, 4)
		img.Finish(nil, func() {
			src := []int64{1, 2, 3, 4}
			caf.CopyAsync(img, ca.At((img.Rank()+1)%4), caf.Local(src))
		})
		if got := ca.Local(img)[3]; got != 4 {
			t.Errorf("image %d: relaxed copy missing after finish: %d", img.Rank(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Copies != 4 {
		t.Errorf("copies = %d", rep.Copies)
	}
}

func TestDeterministicReports(t *testing.T) {
	once := func() caf.Report {
		rep, err := caf.Run(caf.Config{Images: 8, Seed: 42}, func(img *caf.Image) {
			img.Finish(nil, func() {
				for j := 0; j < 4; j++ {
					img.Spawn(img.Random().Intn(8), func(r *caf.Image) {
						r.Compute(caf.Time(r.Random().Intn(1000)) * caf.Microsecond)
					})
				}
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := once(), once()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("nondeterministic run:\n%+v\n%+v", a, b)
	}
}

func TestFinishNoWaitConfig(t *testing.T) {
	rep, err := caf.Run(caf.Config{Images: 8, Seed: 1, FinishNoWait: true}, func(img *caf.Image) {
		img.Finish(nil, func() {
			img.Spawn((img.Rank()+1)%8, func(r *caf.Image) {
				r.Compute(caf.Millisecond)
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Four-counter detection needs at least two rounds per finish.
	if rep.ReduceRounds < 16 {
		t.Errorf("no-wait rounds = %d, want ≥ 2 per image-finish", rep.ReduceRounds)
	}
}

func TestNestedFinishDifferentTeams(t *testing.T) {
	run(t, 8, func(img *caf.Image) {
		tm := img.TeamSplit(nil, img.Rank()%2, img.Rank())
		done := 0 // per-image: incremented by the fn THIS image spawned
		img.Finish(nil, func() {
			img.Finish(tm, func() {
				// Spawn within the subteam finish.
				peers := tm.Members()
				img.Spawn(peers[(tm.MustRank(img.Rank())+1)%len(peers)], func(r *caf.Image) {
					r.Compute(caf.Millisecond)
					done++
				})
			})
			// Inner finish guarantees global completion over tm: in
			// particular the function this image spawned has run.
			if done != 1 {
				t.Errorf("image %d: inner finish closed with done=%d, want 1", img.Rank(), done)
			}
		})
	})
}

func TestReportCounters(t *testing.T) {
	rep := run(t, 4, func(img *caf.Image) {
		ca := caf.NewCoarray[int64](img, nil, 8)
		img.Finish(nil, func() {
			src := make([]int64, 8)
			caf.CopyAsync(img, ca.At((img.Rank()+1)%4), caf.Local(src))
		})
	})
	if rep.Copies != 4 {
		t.Errorf("copies = %d", rep.Copies)
	}
	if rep.Msgs == 0 || rep.Bytes == 0 || rep.EventsRun == 0 {
		t.Errorf("empty traffic counters: %+v", rep)
	}
	if rep.VirtualTime <= 0 {
		t.Errorf("virtual time = %v", rep.VirtualTime)
	}
}

func TestManyImagesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep := run(t, 256, func(img *caf.Image) {
		img.Finish(nil, func() {
			img.Spawn(img.Random().Intn(256), func(r *caf.Image) {})
		})
		img.Barrier(nil)
	})
	if rep.SpawnsExecuted != 256 {
		t.Errorf("spawns executed = %d", rep.SpawnsExecuted)
	}
}

func ExampleRun() {
	rep, _ := caf.Run(caf.Config{Images: 4, Seed: 7}, func(img *caf.Image) {
		img.Finish(nil, func() {
			img.Spawn((img.Rank()+1)%4, func(remote *caf.Image) {
				remote.Compute(10 * caf.Microsecond)
			})
		})
	})
	fmt.Println(rep.SpawnsExecuted)
	// Output: 4
}

// TestPropertyFinishMixedOps: finish must cover a random mix of implicit
// spawns, asynchronous copies, and asynchronous collectives — the whole
// Fig. 4 matrix at once.
func TestPropertyFinishMixedOps(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 5, 8} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const p = 6
			spawnDone := 0
			var colls []*caf.Collective
			landed := make([][]int64, p)
			rep, err := caf.Run(caf.Config{Images: p, Seed: seed}, func(img *caf.Image) {
				ca := caf.NewCoarray[int64](img, nil, p)
				rng := img.Random()
				img.Finish(nil, func() {
					// Implicit copy to a random image's slot for me.
					src := []int64{int64(img.Rank() + 1)}
					caf.CopyAsync(img, ca.Sec(rng.Intn(p), img.Rank(), img.Rank()+1), caf.Local(src))
					// Implicit spawn chain of random depth.
					depth := rng.Intn(3)
					var chain func(r *caf.Image, d int)
					chain = func(r *caf.Image, d int) {
						r.Compute(caf.Time(rng.Intn(300)) * caf.Microsecond)
						spawnDone++
						if d > 0 {
							r.Spawn(rng.Intn(p), func(rr *caf.Image) { chain(rr, d-1) })
						}
					}
					img.Spawn(rng.Intn(p), func(r *caf.Image) { chain(r, depth) })
					// Implicit async collective.
					colls = append(colls, img.AllreduceAsync(nil, caf.Sum, []int64{1}))
				})
				landed[img.Rank()] = append([]int64(nil), ca.Local(img)...)
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.SpawnsExecuted != int64(spawnDone) || spawnDone < p {
				t.Errorf("spawns executed %d, recorded %d", rep.SpawnsExecuted, spawnDone)
			}
			for _, c := range colls {
				if !c.LocalOpDone() || c.Result().([]int64)[0] != p {
					t.Error("collective incomplete or wrong at finish exit")
				}
			}
			// Every image's copy landed somewhere before its finish exit:
			// slot k nonzero on exactly one image, with value k+1.
			for k := 0; k < p; k++ {
				found := 0
				for i := 0; i < p; i++ {
					if landed[i][k] == int64(k+1) {
						found++
					} else if landed[i][k] != 0 {
						t.Errorf("slot %d on image %d corrupted: %d", k, i, landed[i][k])
					}
				}
				if found != 1 {
					t.Errorf("copy from image %d landed %d times", k, found)
				}
			}
		})
	}
}

// However a run ends, no goroutine of its engine is left once Run has
// returned; and the errors name procs exactly as they always have,
// although the names are now joined only when an error asks for them.
func TestRunLeavesNoGoroutine(t *testing.T) {
	cases := []struct {
		name    string
		main    func(img *caf.Image)
		wantErr string
	}{
		{"clean", func(img *caf.Image) {
			img.Finish(nil, func() {
				img.Spawn((img.Rank()+1)%3, func(r *caf.Image) { r.Compute(5 * caf.Microsecond) })
			})
		}, ""},
		{"deadlock", func(img *caf.Image) {
			img.Finish(nil, func() {
				if img.Rank() == 0 {
					img.Spawn(2, func(r *caf.Image) { r.EventWait(r.NewEvent()) })
				}
			})
		}, "caf: deadlock at 8.480us: 4 blocked proc(s)\n" +
			"  image 0: img0/main#1[0] parked (collective local data)\n" +
			"  image 1: img1/main#1[1] parked (collective local data)\n" +
			"  image 2: img2/main#1[2] parked (finish quiescence); img2/spawn#2[3] parked (event wait)"},
		{"panic", func(img *caf.Image) {
			img.Barrier(nil)
			if img.Rank() == 2 {
				panic("boom")
			}
			img.Barrier(nil)
		}, `sim: proc "img2/main#1" panicked: boom`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			_, err := caf.Run(caf.Config{Images: 3, Seed: 1}, tc.main)
			if got := fmt.Sprint(err); tc.wantErr == "" && err != nil || tc.wantErr != "" && got != tc.wantErr {
				t.Errorf("Run = %v\nwant  %s", err, tc.wantErr)
			}
			// More, not different: a goroutine an earlier test ended may
			// still have been counted before.
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("%d goroutines after Run, %d before", after, before)
			}
		})
	}
}
