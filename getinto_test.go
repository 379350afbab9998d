package caf

// Tests of the blocking read's two forms: Get, which returns a slice of
// the caller's own, and GetInto, which reads into storage the caller
// already holds. A short remote read is served into its request record,
// which the coarray recycles, so neither form may leave the caller
// holding that record's storage.

import (
	"errors"
	"slices"
	"testing"

	"caf2go/internal/sim"
)

// A short remote Get's result is a copy of its record's values: later
// Gets on the same coarray take the recycled record and are served into
// it, and the first result does not change.
func TestGetResultDoesNotAliasItsRecord(t *testing.T) {
	pooledAndQuarantined(t, func(t *testing.T) {
		_, err := Run(Config{Images: 2, Seed: 1}, func(img *Image) {
			ca := NewCoarray[uint64](img, nil, 8)
			if img.Rank() == 1 {
				for i := range ca.Local(img) {
					ca.Local(img)[i] = uint64(10 + i)
				}
			}
			img.Barrier(nil)
			if img.Rank() != 0 {
				return
			}
			first := Get(img, ca.Sec(1, 0, 2))
			if !slices.Equal(first, []uint64{10, 11}) {
				t.Fatalf("Get = %v, want [10 11]", first)
			}
			for i := 2; i < 8; i++ {
				if v := Get(img, ca.Sec(1, i, i+1)); v[0] != uint64(10+i) {
					t.Fatalf("Get of element %d = %v", i, v)
				}
			}
			Get(img, ca.SecStride(1, 1, 8, 2))
			if !slices.Equal(first, []uint64{10, 11}) {
				t.Errorf("a later Get changed an earlier result: %v, want [10 11]", first)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// Get and GetInto read every kind of section: remote contiguous sections
// shorter and longer than a request record holds, a remote strided
// section, a section of the caller's own shard, a Local buffer and an
// empty section.
func TestGetIntoSections(t *testing.T) {
	pooledAndQuarantined(t, func(t *testing.T) {
		_, err := Run(Config{Images: 2, Seed: 1}, func(img *Image) {
			ca := NewCoarray[int64](img, nil, 12)
			for i := range ca.Local(img) {
				ca.Local(img)[i] = int64(img.Rank()*100 + i)
			}
			img.Barrier(nil)
			if img.Rank() != 0 {
				return
			}
			for name, c := range map[string]struct {
				sec  Sec[int64]
				want []int64
			}{
				"short":   {ca.Sec(1, 3, 5), []int64{103, 104}},
				"long":    {ca.Sec(1, 2, 9), []int64{102, 103, 104, 105, 106, 107, 108}},
				"strided": {ca.SecStride(1, 0, 12, 3), []int64{100, 103, 106, 109}},
				"owner":   {ca.SecStride(0, 1, 12, 4), []int64{1, 5, 9}},
				"local":   {Local([]int64{7, 8, 9}), []int64{7, 8, 9}},
				"empty":   {ca.Sec(1, 4, 4), nil},
			} {
				if got := Get(img, c.sec); !slices.Equal(got, c.want) {
					t.Errorf("%s: Get read %v, want %v", name, got, c.want)
				}
				got := make([]int64, c.sec.Len())
				GetInto(img, got, c.sec)
				if !slices.Equal(got, c.want) {
					t.Errorf("%s: GetInto read %v, want %v", name, got, c.want)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// A GetInto the failure declaration aborts never writes its buffer, though
// the live owner it asked serves the request after the abort: the values
// reach the buffer only at the call's return.
func TestGetIntoAbortedLeavesItsBuffer(t *testing.T) {
	const untouched = ^uint64(0)
	cfg := Config{Images: 3, Seed: 1,
		FailureDetector: FailureDetectorConfig{Enabled: true, Heartbeat: Microsecond},
		Fabric:          FabricConfig{Faults: &FaultPlan{Seed: 1, Crash: map[int]Time{1: 20 * Microsecond}}}}
	pooledAndQuarantined(t, func(t *testing.T) {
		var dsts [64][1]uint64
		for i := range dsts {
			dsts[i][0] = untouched
		}
		intos := 0
		_, err := Run(cfg, func(img *Image) {
			ca := NewCoarray[uint64](img, nil, 1)
			if img.Rank() != 0 {
				ca.Local(img)[0] = 5
				img.Compute(200 * Microsecond)
				return
			}
			// Every read goes to rank 2, which lives; rank 1's death
			// aborts the one in flight when it is declared.
			for i := range dsts {
				GetInto(img, dsts[i][:], ca.Sec(2, 0, 1))
				intos++
			}
		})
		var ferr *ImageFailedError
		if !errors.As(err, &ferr) || intos == 0 || intos == len(dsts) {
			t.Fatalf("%d of %d GetIntos returned before the abort, err %v", intos, len(dsts), err)
		}
		for i := range dsts {
			want := untouched
			if i < intos {
				want = 5
			}
			if dsts[i][0] != want {
				t.Errorf("GetInto %d of %d returned left %d in its buffer, want %d", i, intos, dsts[i][0], want)
			}
		}
	})
}

// The fabric's dedup drops a duplicated request before its handler, so
// under a fault plan each GetInto is served once and reads the value of
// its turn. A duplicate that did reach the owner after the call returned
// would serve the request record again; serving it again by hand shows
// that it reaches the record and not the buffer.
func TestGetIntoBufferOutlivesALateServe(t *testing.T) {
	t.Run("dup", func(t *testing.T) {
		cfg := Config{Images: 2, Seed: 1, Fabric: FabricConfig{Faults: &FaultPlan{Seed: 1, Dup: 1.0, Jitter: 5 * Microsecond}}}
		var dsts [32][1]uint64
		m := NewMachine(cfg)
		m.Launch(func(img *Image) {
			ca := NewCoarray[uint64](img, nil, 1)
			if img.Rank() != 0 {
				return
			}
			for i := range dsts {
				GetInto(img, dsts[i][:], ca.Sec(1, 0, 1))
				Put(img, ca.Sec(1, 0, 1), []uint64{dsts[i][0] + 1})
			}
		})
		if _, err := m.RunToCompletion(); err != nil {
			t.Fatal(err)
		}
		if m.FabricStats().Duplicated == 0 {
			t.Fatal("the fault plan duplicated nothing")
		}
		for i := range dsts {
			if dsts[i][0] != uint64(i) {
				t.Errorf("GetInto %d read %d, want %d", i, dsts[i][0], i)
			}
		}
	})
	t.Run("served again", func(t *testing.T) {
		if sim.QuarantinePools {
			t.Skip("the record is taken back off the coarray's free list")
		}
		_, err := Run(Config{Images: 2, Seed: 1}, func(img *Image) {
			ca := NewCoarray[uint64](img, nil, 2)
			if img.Rank() != 0 {
				return
			}
			sec := ca.Sec(1, 0, 2)
			Put(img, sec, []uint64{1, 2})
			var dst [2]uint64
			GetInto(img, dst[:], sec)
			req := ca.gets.Get()
			if req == nil {
				t.Fatal("GetInto released no request record")
			}
			// The duplicate: the owner's values have moved on, and it
			// serves the request the call already returned from.
			ca.shard(1)[0], ca.shard(1)[1] = 3, 4
			*req = getReq[uint64]{src: sec, bytes: 32}
			req.serve()
			if !slices.Equal(req.out, []uint64{3, 4}) {
				t.Fatalf("the late serve read %v into its record, want [3 4]", req.out)
			}
			if dst != [2]uint64{1, 2} {
				t.Errorf("a serve after GetInto returned changed its buffer to %v", dst)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
