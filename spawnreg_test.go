package caf_test

import (
	"testing"

	caf "caf2go"
	"caf2go/internal/path"
)

func TestSpawnNamedCopiesArguments(t *testing.T) {
	m := caf.NewMachine(caf.Config{Images: 2, Seed: 1})
	got := make(chan struct{}, 1) // never used concurrently; just a flag
	var seen []any
	m.RegisterRemote("collect", func(img *caf.Image, args []any) {
		seen = args
		select {
		case got <- struct{}{}:
		default:
		}
	})
	m.Launch(func(img *caf.Image) {
		data := []int64{1, 2, 3}
		img.Finish(nil, func() {
			if img.Rank() != 0 {
				return
			}
			img.SpawnNamed(1, "collect", []any{int64(7), "hello", data})
			// Mutate after initiation: the remote must see the copy.
			data[0] = 999
		})
	})
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("args = %v", seen)
	}
	if seen[0] != int64(7) || seen[1] != "hello" {
		t.Errorf("scalar args = %v %v", seen[0], seen[1])
	}
	s := seen[2].([]int64)
	if s[0] != 1 || s[1] != 2 || s[2] != 3 {
		t.Errorf("slice arg not copied at initiation: %v", s)
	}
}

func TestSpawnNamedTrackedByFinish(t *testing.T) {
	m := caf.NewMachine(caf.Config{Images: 4, Seed: 1})
	done := 0
	m.RegisterRemote("work", func(img *caf.Image, args []any) {
		img.Compute(caf.Time(args[0].(int)) * caf.Microsecond)
		done++
	})
	m.Launch(func(img *caf.Image) {
		img.Finish(nil, func() {
			img.SpawnNamed((img.Rank()+1)%4, "work", []any{500})
		})
		if done != 4 {
			t.Errorf("image %d left finish with %d/4 named spawns done", img.Rank(), done)
		}
	})
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
}

func TestSpawnNamedWithEvent(t *testing.T) {
	m := caf.NewMachine(caf.Config{Images: 2, Seed: 1})
	ran := false
	m.RegisterRemote("slow", func(img *caf.Image, args []any) {
		img.Compute(caf.Millisecond)
		ran = true
	})
	m.Launch(func(img *caf.Image) {
		if img.Rank() != 0 {
			return
		}
		ev := img.NewEvent()
		img.SpawnNamed(1, "slow", nil, caf.WithEvent(ev))
		img.EventWait(ev)
		if !ran {
			t.Error("event before execution completed")
		}
	})
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
}

func TestSpawnNamedChargesEncodedBytes(t *testing.T) {
	bytesFor := func(payload int) uint64 {
		m := caf.NewMachine(caf.Config{Images: 2, Seed: 1})
		m.RegisterRemote("sink", func(img *caf.Image, args []any) {})
		m.Launch(func(img *caf.Image) {
			img.Finish(nil, func() {
				if img.Rank() != 0 {
					return
				}
				img.SpawnNamed(1, "sink", []any{make([]byte, payload)})
			})
		})
		rep, err := m.RunToCompletion()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Bytes
	}
	small, large := bytesFor(8), bytesFor(4096)
	if large < small+4000 {
		t.Errorf("encoded payload not charged to the wire: %d vs %d bytes", small, large)
	}
}

func TestSpawnNamedUnregisteredPanics(t *testing.T) {
	m := caf.NewMachine(caf.Config{Images: 2, Seed: 1})
	m.Launch(func(img *caf.Image) {
		if img.Rank() != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("unregistered spawn did not panic")
			}
		}()
		img.SpawnNamed(1, "ghost", nil)
	})
	_, _ = m.RunToCompletion()
	m.Shutdown()
}

func TestRegisterRemoteDuplicatePanics(t *testing.T) {
	m := caf.NewMachine(caf.Config{Images: 1, Seed: 1})
	m.RegisterRemote("f", func(img *caf.Image, args []any) {})
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	m.RegisterRemote("f", func(img *caf.Image, args []any) {})
}

// A registered function runs under the traced request that shipped it, as
// a closure does: the reply it spawns is a span of that request, parented
// to the named spawn's own span. (The named path used to drop the request
// context on the wire, so everything a registered handler initiated fell
// off the request's causal DAG.)
func TestSpawnNamedKeepsTracedRequest(t *testing.T) {
	m := caf.NewMachine(caf.Config{Images: 2, Seed: 1, PathTracing: true})
	replied := false
	m.RegisterRemote("serve", func(img *caf.Image, args []any) {
		img.Spawn(0, func(*caf.Image) { replied = true }, caf.WithBytes(24))
	})
	m.Launch(func(img *caf.Image) {
		img.Finish(nil, func() {
			if img.Rank() != 0 {
				return
			}
			m.PathTracker().Begin(0, 0, img.Now(), img.Now())
			prev := img.PathScope(path.ReqCtx(0))
			img.SpawnNamed(1, "serve", []any{int64(1)})
			img.PathScope(prev)
		})
	})
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if !replied {
		t.Fatal("the reply never ran")
	}
	reqs := m.PathTracker().Export().Reqs
	if len(reqs) != 1 || len(reqs[0].Spans) != 2 {
		t.Fatalf("traced request has %+v, want one request with the named spawn's and the reply's spans", reqs)
	}
	ship, reply := reqs[0].Spans[0], reqs[0].Spans[1]
	if ship.Kind != "spawn:serve" || ship.Img != 0 || ship.Peer != 1 || ship.Parent != 0 {
		t.Errorf("named spawn's span = %+v", ship)
	}
	if reply.Kind != "spawn" || reply.Img != 1 || reply.Peer != 0 || reply.Parent != ship.ID {
		t.Errorf("reply's span = %+v, want a spawn from image 1 under span %d", reply, ship.ID)
	}
	for _, sp := range reqs[0].Spans {
		for stage, at := range sp.T {
			if at < 0 {
				t.Errorf("span %d (%s) never reached stage %d", sp.ID, sp.Kind, stage)
			}
		}
	}
}
