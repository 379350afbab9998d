package repl

import (
	"testing"

	"caf2go/internal/failure"
	"caf2go/internal/sim"
)

// detCfg: 10µs heartbeat, 5µs lease — a crash at time T on a beat
// boundary is declared at T+5µs.
func detCfg() failure.Config {
	return failure.Config{Enabled: true, Heartbeat: 10 * sim.Microsecond, Lease: 5 * sim.Microsecond}
}

func build(t *testing.T, images int, crash map[int]sim.Time) (*sim.Engine, *failure.Detector, *Manager) {
	t.Helper()
	eng := sim.NewEngine(1)
	det := failure.New(eng, images, detCfg(), crash)
	mgr := NewManager(eng, det, images, Config{Enabled: true})
	if mgr == nil {
		t.Fatal("enabled config with live detector returned nil manager")
	}
	return eng, det, mgr
}

// TestDisabledOrDetectorlessIsNil: the zero config, or a nil detector,
// yields a nil manager whose whole query surface is inert.
func TestDisabledOrDetectorlessIsNil(t *testing.T) {
	eng := sim.NewEngine(1)
	if m := NewManager(eng, nil, 4, Config{Enabled: true}); m != nil {
		t.Error("manager built without a detector")
	}
	det := failure.New(eng, 4, detCfg(), map[int]sim.Time{1: 10})
	if m := NewManager(eng, det, 4, Config{}); m != nil {
		t.Error("manager built with replication disabled")
	}
	var m *Manager
	if m.Epoch() != 0 || m.Committed(1) || m.Survivors() != nil || (m.Stats() != Stats{}) {
		t.Error("nil manager is not inert")
	}
	m.Subscribe(func(int, sim.Time) {}) // must not panic
}

// TestSingleCrashCommitTime pins the deterministic agreement schedule:
// declaration at detection time, one collect per heartbeat, commit on
// the second consistent observation — declare + 2×heartbeat exactly.
func TestSingleCrashCommitTime(t *testing.T) {
	crash := map[int]sim.Time{2: 20 * sim.Microsecond}
	eng, det, mgr := build(t, 4, crash)

	var commits []sim.Time
	mgr.Subscribe(func(epoch int, at sim.Time) {
		if epoch != len(commits)+1 {
			t.Errorf("commit %d reported epoch %d", len(commits)+1, epoch)
		}
		commits = append(commits, at)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	declared := det.DetectionTime(crash[2]) // 25µs
	want := declared + 2*det.Heartbeat()    // 45µs
	if len(commits) != 1 || commits[0] != want {
		t.Fatalf("commits = %v, want exactly one at %v", commits, want)
	}
	if mgr.Epoch() != 1 || mgr.EpochAt() != want {
		t.Errorf("Epoch/EpochAt = %d/%v, want 1/%v", mgr.Epoch(), mgr.EpochAt(), want)
	}
	if !mgr.Committed(2) || mgr.Committed(0) {
		t.Error("committed set wrong")
	}
	if at, ok := mgr.CommittedAt(2); !ok || at != want {
		t.Errorf("CommittedAt(2) = %v,%v want %v", at, ok, want)
	}
	if s := mgr.Survivors(); s == nil || s.Size() != 3 || s.Contains(2) {
		t.Errorf("survivors = %v", s)
	}
	st := mgr.Stats()
	if st.Promotions != 1 || st.Restarts != 0 || st.AgreeRounds != 2 {
		t.Errorf("stats = %+v, want 1 promotion, 0 restarts, 2 rounds", st)
	}
}

// TestCrashMidAgreementRestarts: a second declaration landing between
// the two collects invalidates the observation; the double collect
// restarts and the eventual single commit covers both deaths.
func TestCrashMidAgreementRestarts(t *testing.T) {
	// Rank 2 declared at 25µs (collects at 35, 45); rank 3 crashes at
	// 32µs → declared at 45µs, which the detector's construction-time
	// event delivers *before* the 45µs collect — the collect observes
	// count 2 ≠ 1 and restarts.
	crash := map[int]sim.Time{
		2: 20 * sim.Microsecond,
		3: 32 * sim.Microsecond,
	}
	eng, det, mgr := build(t, 6, crash)
	var commits []sim.Time
	mgr.Subscribe(func(_ int, at sim.Time) { commits = append(commits, at) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := det.DetectionTime(crash[3]) + det.Heartbeat() // restart at 45, stable at 55
	if len(commits) != 1 || commits[0] != want {
		t.Fatalf("commits = %v, want exactly one at %v", commits, want)
	}
	if !mgr.Committed(2) || !mgr.Committed(3) {
		t.Error("single commit did not absorb both deaths")
	}
	st := mgr.Stats()
	if st.Restarts != 1 || st.Promotions != 2 || mgr.Epoch() != 1 {
		t.Errorf("stats = %+v epoch=%d, want 1 restart, 2 promotions, epoch 1", st, mgr.Epoch())
	}
}

// TestBackToBackCrashesTwoEpochs: a crash well after the first recovery
// commits runs a second, independent agreement.
func TestBackToBackCrashesTwoEpochs(t *testing.T) {
	crash := map[int]sim.Time{
		1: 20 * sim.Microsecond,
		2: 200 * sim.Microsecond,
	}
	eng, det, mgr := build(t, 4, crash)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if mgr.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", mgr.Epoch())
	}
	if want := det.DetectionTime(crash[2]) + 2*det.Heartbeat(); mgr.EpochAt() != want {
		t.Errorf("second commit at %v, want %v", mgr.EpochAt(), want)
	}
	if s := mgr.Survivors(); s.Size() != 2 || s.Contains(1) || s.Contains(2) {
		t.Errorf("survivors = %v", s.Members())
	}
	if st := mgr.Stats(); st.Promotions != 2 || st.Restarts != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestAllDeadSurvivorsNil: committing the death of every image leaves a
// nil survivor team and -1 routes, not a zero-member team or a panic.
func TestAllDeadSurvivorsNil(t *testing.T) {
	crash := map[int]sim.Time{0: 20 * sim.Microsecond, 1: 20 * sim.Microsecond}
	eng, _, mgr := build(t, 2, crash)
	tbl := NewTable(mgr, []int{0, 1})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if mgr.Survivors() != nil {
		t.Errorf("survivors = %v, want nil", mgr.Survivors())
	}
	for home := 0; home < 2; home++ {
		if got := tbl.Primary(home); got != -1 {
			t.Errorf("Primary(%d) = %d with everyone dead, want -1", home, got)
		}
	}
}

// TestTableRouting covers static placement and epoch-driven promotion.
func TestTableRouting(t *testing.T) {
	eng := sim.NewEngine(1)
	det := failure.New(eng, 8, detCfg(), map[int]sim.Time{
		1: 20 * sim.Microsecond,
		2: 200 * sim.Microsecond,
	})
	mgr := NewManager(eng, det, 8, Config{Enabled: true})
	tbl := NewTable(mgr, []int{0, 1, 2, 3})

	// Static placement: backup of chain index h is the next member.
	for h, want := range []int{1, 2, 3, 0} {
		if got := tbl.Backup(h); got != want {
			t.Errorf("Backup(%d) = %d, want %d", h, got, want)
		}
	}
	// Before any commit every home serves itself.
	for h := 0; h < 4; h++ {
		if got := tbl.Primary(h); got != h {
			t.Errorf("pre-commit Primary(%d) = %d", h, got)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Ranks 1 and 2 committed: home 0 serves itself, home 1's group
	// {1,2} is wholly dead, home 2 promotes to 3.
	wants := []int{0, -1, 3, 3}
	for h, want := range wants {
		if got := tbl.Primary(h); got != want {
			t.Errorf("post-commit Primary(%d) = %d, want %d", h, got, want)
		}
	}

	// Single-member chain: nowhere to mirror, home always serves.
	solo := NewTable(mgr, []int{0})
	if solo.Backup(0) != -1 || solo.Primary(0) != 0 {
		t.Errorf("solo chain: backup=%d primary=%d", solo.Backup(0), solo.Primary(0))
	}

	// Nil-manager table routes statically.
	static := NewTable(nil, []int{4, 5})
	if static.Primary(0) != 4 || static.Backup(0) != 5 {
		t.Errorf("static table: primary=%d backup=%d", static.Primary(0), static.Backup(0))
	}
}

// TestDeterministicReplay: identical configurations commit identical
// epochs at identical times with identical stats.
func TestDeterministicReplay(t *testing.T) {
	run := func() (int, sim.Time, Stats) {
		crash := map[int]sim.Time{
			1: 20 * sim.Microsecond,
			3: 31 * sim.Microsecond,
			5: 500 * sim.Microsecond,
		}
		eng, _, mgr := build(t, 8, crash)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return mgr.Epoch(), mgr.EpochAt(), mgr.Stats()
	}
	e1, at1, s1 := run()
	e2, at2, s2 := run()
	if e1 != e2 || at1 != at2 || s1 != s2 {
		t.Errorf("replay diverged: %d/%v/%+v vs %d/%v/%+v", e1, at1, s1, e2, at2, s2)
	}
}
