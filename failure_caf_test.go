package caf_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	caf "caf2go"
)

// crashCfg is a two-or-more-image machine where rank 1's NIC dies at
// 5µs and a tight detector declares it dead by ~8µs.
func crashCfg(n int, seed int64) caf.Config {
	return caf.Config{
		Images: n,
		Seed:   seed,
		Fabric: caf.FabricConfig{Faults: &caf.FaultPlan{
			Seed:  seed,
			Crash: map[int]caf.Time{1: 5 * caf.Microsecond},
		}},
		FailureDetector: caf.FailureDetectorConfig{
			Enabled:   true,
			Heartbeat: 1 * caf.Microsecond,
		},
	}
}

func wantImageFailed(t *testing.T, err error, dead int) *caf.ImageFailedError {
	t.Helper()
	if err == nil {
		t.Fatal("run with a crashed image reported success")
	}
	var ferr *caf.ImageFailedError
	if !errors.As(err, &ferr) {
		t.Fatalf("expected ImageFailedError, got %T: %v", err, err)
	}
	if ferr.Rank != dead {
		t.Fatalf("error blames rank %d, crashed rank %d: %v", ferr.Rank, dead, ferr)
	}
	return ferr
}

// TestCrashRankOutsideMachinePanics: a fault plan that crashes a rank
// the machine does not have is rejected when the machine is built, naming
// the rank, instead of running as if there were no fault plan.
func TestCrashRankOutsideMachinePanics(t *testing.T) {
	for _, rank := range []int{4, -1} {
		t.Run(fmt.Sprint(rank), func(t *testing.T) {
			cfg := crashCfg(4, 1)
			cfg.Fabric.Faults.Crash = map[int]caf.Time{rank: caf.Microsecond}
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "Crash") || !strings.Contains(msg, fmt.Sprintf("map[%d:", rank)) {
					t.Errorf("NewMachine panicked with %q, want the out-of-range crash rank %d named", msg, rank)
				}
			}()
			caf.NewMachine(cfg)
		})
	}
}

// TestEventWaitWokenByDeclaration: an image already parked in EventWait
// when the failure is declared must be woken and abort with a typed
// error — the notification it waits for died with the notifier.
func TestEventWaitWokenByDeclaration(t *testing.T) {
	_, err := caf.Run(crashCfg(2, 1), func(img *caf.Image) {
		if img.Rank() != 0 {
			// Rank 1 never notifies and crashes at 5µs.
			img.Compute(caf.Millisecond)
			return
		}
		e := img.NewEvent()
		img.EventWait(e) // parked well before the 8µs declaration
		t.Error("EventWait returned without a notification")
	})
	wantImageFailed(t, err, 1)
}

// TestEventWaitAfterDeclarationNotLost is the enqueue-vs-park race
// regression: the declaration fires while the waiter is still running
// (before it ever parks). Because the wait condition is evaluated
// before the first park, the standing declaration must abort the wait
// immediately — a notification-less event plus an already-declared
// death must never park forever.
func TestEventWaitAfterDeclarationNotLost(t *testing.T) {
	_, err := caf.Run(crashCfg(2, 2), func(img *caf.Image) {
		if img.Rank() != 0 {
			img.Compute(caf.Millisecond)
			return
		}
		e := img.NewEvent()
		// Stay runnable until well past the declaration, then wait: the
		// proc goes from running straight into EventWait with the death
		// already on the books.
		img.Compute(50 * caf.Microsecond)
		img.EventWait(e)
		t.Error("EventWait returned without a notification")
	})
	wantImageFailed(t, err, 1)
}

// TestLockOnDeadHostAborts: acquiring a lock hosted on a dead image
// goes through the failure-aware RPC path — the grant can never come,
// so the acquirer must abort instead of blocking forever.
func TestLockOnDeadHostAborts(t *testing.T) {
	_, err := caf.Run(crashCfg(2, 3), func(img *caf.Image) {
		if img.Rank() != 0 {
			img.Compute(caf.Millisecond)
			return
		}
		img.Compute(50 * caf.Microsecond) // past the declaration
		img.Lock(1, 0)
		t.Error("Lock on a dead host was granted")
	})
	wantImageFailed(t, err, 1)
}

// TestLockWaiterWokenByDeclaration: a lock RPC in flight to a host that
// then dies must wake and abort when the death is declared.
func TestLockWaiterWokenByDeclaration(t *testing.T) {
	_, err := caf.Run(crashCfg(2, 4), func(img *caf.Image) {
		if img.Rank() != 0 {
			img.Compute(caf.Millisecond)
			return
		}
		// Rank 1 dies at 5µs holding nothing; the RPC is issued at
		// t≈0, delivered before the crash, and the grant is returned —
		// or lost with the NIC. Either way rank 0 must not hang: it is
		// granted the lock or aborted by the declaration.
		img.Lock(1, 0)
		// Granted before the crash: the second acquisition can only
		// abort (the unlock below never reaches the dead host).
		img.Unlock(1, 0)
		img.Compute(50 * caf.Microsecond)
		img.Lock(1, 0)
		t.Error("re-acquiring a lock on a dead host succeeded")
	})
	wantImageFailed(t, err, 1)
}
