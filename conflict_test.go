package caf_test

import (
	"strings"
	"testing"

	caf "caf2go"
)

func TestConflictDetectorFlagsOverlappingWrites(t *testing.T) {
	m := caf.NewMachine(caf.Config{Images: 3, Seed: 1, Races: true})
	m.Launch(func(img *caf.Image) {
		ca := caf.NewCoarray[int64](img, nil, 8)
		img.Barrier(nil)
		if img.Rank() == 0 || img.Rank() == 1 {
			// Both images asynchronously write overlapping ranges of
			// image 2's shard at the same time.
			src := []int64{int64(img.Rank()), 0, 0, 0}
			caf.CopyAsync(img, ca.Sec(2, 2, 6), caf.Local(src))
			img.Cofence(caf.AllowNone, caf.AllowNone)
		}
	})
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if m.Conflicts() == 0 {
		t.Fatal("overlapping concurrent writes not flagged")
	}
	log := m.ConflictLog()
	if len(log) == 0 || !strings.Contains(log[0], "race at image 2") {
		t.Errorf("conflict log = %v", log)
	}
}

func TestConflictDetectorIgnoresDisjointAndReadOnly(t *testing.T) {
	m := caf.NewMachine(caf.Config{Images: 3, Seed: 1, Races: true})
	m.Launch(func(img *caf.Image) {
		ca := caf.NewCoarray[int64](img, nil, 16)
		img.Barrier(nil)
		switch img.Rank() {
		case 0:
			// Disjoint write.
			caf.CopyAsync(img, ca.Sec(2, 0, 4), caf.Local([]int64{1, 2, 3, 4}))
		case 1:
			// Disjoint write + concurrent reads of a shared range.
			caf.CopyAsync(img, ca.Sec(2, 8, 12), caf.Local([]int64{5, 6, 7, 8}))
			dst := make([]int64, 2)
			caf.CopyAsync(img, caf.Local(dst), ca.Sec(2, 13, 15))
		case 2:
			dst := make([]int64, 2)
			caf.CopyAsync(img, caf.Local(dst), ca.Sec(2, 13, 15))
		}
		img.Cofence(caf.AllowNone, caf.AllowNone)
		img.Barrier(nil)
	})
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if m.Conflicts() != 0 {
		t.Errorf("false positives: %d conflicts: %v", m.Conflicts(), m.ConflictLog())
	}
}

func TestConflictDetectorDisabledByDefault(t *testing.T) {
	m := caf.NewMachine(caf.Config{Images: 2, Seed: 1})
	m.Launch(func(img *caf.Image) {
		ca := caf.NewCoarray[int64](img, nil, 4)
		img.Barrier(nil)
		caf.CopyAsync(img, ca.Sec(0, 0, 4), caf.Local([]int64{1, 2, 3, 4}))
		img.Cofence(caf.AllowNone, caf.AllowNone)
	})
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if m.Conflicts() != 0 || m.ConflictLog() != nil {
		t.Error("detector active although disabled")
	}
}

func TestConflictDetectorOnBlockingOps(t *testing.T) {
	// Two images hammer the same word with blocking get/put pipelines:
	// the unordered pairs must surface (the §IV-B reference-RandomAccess
	// race), while the FS-style serialization below stays clean.
	m := caf.NewMachine(caf.Config{Images: 3, Seed: 1, Races: true})
	m.Launch(func(img *caf.Image) {
		ca := caf.NewCoarray[uint64](img, nil, 1)
		img.Barrier(nil)
		if img.Rank() != 2 {
			for i := 0; i < 32; i++ {
				v := caf.Get(img, ca.Sec(2, 0, 1))
				caf.Put(img, ca.Sec(2, 0, 1), []uint64{v[0] ^ 0x9E37})
			}
		}
		img.Barrier(nil)
	})
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	racy := m.Conflicts()
	if racy == 0 {
		t.Error("blocking get/put contention produced no conflicts")
	}

	// Function-shipping the read-modify-write is conflict-free.
	m2 := caf.NewMachine(caf.Config{Images: 3, Seed: 1, Races: true})
	m2.Launch(func(img *caf.Image) {
		ca := caf.NewCoarray[uint64](img, nil, 1)
		img.Finish(nil, func() {
			if img.Rank() != 2 {
				for i := 0; i < 32; i++ {
					img.Spawn(2, func(r *caf.Image) {
						ca.Local(r)[0] ^= 0x9E37
					})
				}
			}
		})
	})
	if _, err := m2.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if m2.Conflicts() != 0 {
		t.Errorf("function-shipped updates flagged %d conflicts", m2.Conflicts())
	}
}
