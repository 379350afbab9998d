package rt

import (
	"fmt"
	"testing"

	"caf2go/internal/fabric"
	"caf2go/internal/sim"
)

const (
	tagPing uint16 = 10
	tagEcho uint16 = 11
	tagWork uint16 = 12
)

func newTestKernel(n int) (*sim.Engine, *Kernel) {
	eng := sim.NewEngine(1)
	return eng, NewKernel(eng, n, fabric.DefaultConfig())
}

func TestOneWaySend(t *testing.T) {
	eng, k := newTestKernel(2)
	var got any
	var onImg int
	k.RegisterHandler(tagPing, func(d *Delivery) {
		got = d.Payload
		onImg = d.Img.Rank()
		if d.Src != 0 {
			t.Errorf("src = %d", d.Src)
		}
		if d.CanReply() {
			t.Error("one-way send should not allow reply")
		}
	})
	k.Image(0).Send(1, tagPing, "payload", SendOpts{Class: fabric.AMMedium, Bytes: 16})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "payload" || onImg != 1 {
		t.Fatalf("got %v on image %d", got, onImg)
	}
}

func TestCallRoundTrip(t *testing.T) {
	eng, k := newTestKernel(2)
	k.RegisterHandler(tagEcho, func(d *Delivery) {
		d.Reply(fmt.Sprintf("echo:%v", d.Payload), 8)
	})
	var reply any
	k.Image(0).Go("caller", func(p *sim.Proc) {
		reply = k.Image(0).Call(p, 1, tagEcho, "hi", SendOpts{Class: fabric.AMShort, Bytes: 4})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if reply != "echo:hi" {
		t.Fatalf("reply = %v", reply)
	}
}

func TestCallFromDetachedProcReply(t *testing.T) {
	// The callee defers the reply to a spawned proc (models a shipped
	// function that computes before responding).
	eng, k := newTestKernel(2)
	k.RegisterHandler(tagWork, func(d *Delivery) {
		d.Detach()
		d.Img.Go("worker", func(p *sim.Proc) {
			p.Sleep(50 * sim.Microsecond)
			d.Reply(42, 8)
			d.Complete()
		})
	})
	var reply any
	var elapsed sim.Time
	k.Image(0).Go("caller", func(p *sim.Proc) {
		start := p.Now()
		reply = k.Image(0).Call(p, 1, tagWork, nil, SendOpts{})
		elapsed = p.Now() - start
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if reply != 42 {
		t.Fatalf("reply = %v", reply)
	}
	if elapsed < 50*sim.Microsecond {
		t.Errorf("call returned in %v, before worker finished", elapsed)
	}
}

func TestConcurrentCallsCorrelate(t *testing.T) {
	eng, k := newTestKernel(3)
	k.RegisterHandler(tagEcho, func(d *Delivery) {
		d.Detach()
		v := d.Payload.(int)
		// Delay inversely so replies come back out of order.
		d.Img.Engine().After(sim.Time(1000-v)*sim.Microsecond, func() {
			d.Reply(v*10, 8)
			d.Complete()
		})
	})
	results := make([]any, 4)
	for i := 0; i < 4; i++ {
		i := i
		k.Image(0).Go("caller", func(p *sim.Proc) {
			results[i] = k.Image(0).Call(p, 1+i%2, tagEcho, i, SendOpts{})
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r != i*10 {
			t.Errorf("call %d got %v, want %d", i, r, i*10)
		}
	}
}

type recordingTracker struct {
	log []string
}

// stamped is what recordingTracker.OnSend makes of finish block id.
func stamped(id int64) Track {
	return Track{ID: id, ParityOdd: true}
}

func (r *recordingTracker) OnSend(src *ImageKernel, finish int64) Track {
	r.log = append(r.log, fmt.Sprintf("send@%d", src.Rank()))
	return stamped(finish)
}
func (r *recordingTracker) OnReceive(dst *ImageKernel, ctx Track) TrackBox {
	r.log = append(r.log, fmt.Sprintf("recv@%d:%d+stamped=%v", dst.Rank(), ctx.ID, ctx.ParityOdd))
	return nil
}
func (r *recordingTracker) OnComplete(dst *ImageKernel, src int, ctx Track, _ TrackBox) {
	r.log = append(r.log, fmt.Sprintf("complete@%d<-%d", dst.Rank(), src))
}
func (r *recordingTracker) OnAck(src *ImageKernel, dst int, ctx Track) {
	r.log = append(r.log, fmt.Sprintf("ack@%d->%d", src.Rank(), dst))
}
func (r *recordingTracker) OnAbandoned(src *ImageKernel, ctx Track) {
	r.log = append(r.log, fmt.Sprintf("abandon@%d", src.Rank()))
}

func TestTrackerLifecycle(t *testing.T) {
	eng, k := newTestKernel(2)
	tr := &recordingTracker{}
	k.SetTracker(tr)
	k.RegisterHandler(tagPing, func(d *Delivery) {
		if d.Track() != stamped(7) {
			t.Errorf("handler saw track %v", d.Track())
		}
	})
	k.Image(0).Send(1, tagPing, nil, SendOpts{Finish: 7})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"send@0", "recv@1:7+stamped=true", "complete@1<-0", "ack@0->1"}
	if len(tr.log) != len(want) {
		t.Fatalf("log = %v", tr.log)
	}
	for i := range want {
		if tr.log[i] != want[i] {
			t.Fatalf("log = %v, want %v", tr.log, want)
		}
	}
}

func TestTrackerDetachedCompletion(t *testing.T) {
	eng, k := newTestKernel(2)
	tr := &recordingTracker{}
	k.SetTracker(tr)
	k.RegisterHandler(tagWork, func(d *Delivery) {
		d.Detach()
		d.Img.Go("shipped", func(p *sim.Proc) {
			p.Sleep(10 * sim.Millisecond) // longer than the ack round trip
			d.Complete()
		})
	})
	k.Image(0).Send(1, tagWork, nil, SendOpts{Finish: 9})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// With a detached long-running handler the ack (delivered) precedes
	// completion — exactly the split the finish counters rely on.
	want := []string{"send@0", "recv@1:9+stamped=true", "ack@0->1", "complete@1<-0"}
	for i := range want {
		if i >= len(tr.log) || tr.log[i] != want[i] {
			t.Fatalf("log = %v, want %v", tr.log, want)
		}
	}
}

func TestUntrackedMessagesSkipTracker(t *testing.T) {
	eng, k := newTestKernel(2)
	tr := &recordingTracker{}
	k.SetTracker(tr)
	k.RegisterHandler(tagPing, func(d *Delivery) {})
	k.Image(0).Send(1, tagPing, nil, SendOpts{})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(tr.log) != 0 {
		t.Fatalf("untracked message hit tracker: %v", tr.log)
	}
}

func TestNextIDUnique(t *testing.T) {
	_, k := newTestKernel(1)
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ {
		id := k.NextID()
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

func TestReservedTagPanics(t *testing.T) {
	_, k := newTestKernel(1)
	defer func() {
		if recover() == nil {
			t.Fatal("registering reserved tag did not panic")
		}
	}()
	k.RegisterHandler(tagReply, func(d *Delivery) {})
}

func TestDuplicateCompletePanics(t *testing.T) {
	eng, k := newTestKernel(2)
	k.RegisterHandler(tagPing, func(d *Delivery) {
		d.Detach()
		d.Complete()
		defer func() {
			if recover() == nil {
				t.Error("duplicate Complete did not panic")
			}
		}()
		d.Complete()
	})
	k.Image(0).Send(1, tagPing, nil, SendOpts{})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPerImageRngIndependentAndStable(t *testing.T) {
	_, k1 := newTestKernel(2)
	_, k2 := newTestKernel(2)
	if k1.Image(0).Rng().Int63() != k2.Image(0).Rng().Int63() {
		t.Error("image rng not stable across identical machines")
	}
	if k1.Image(0).Rng().Int63() == k1.Image(1).Rng().Int63() {
		t.Error("images 0 and 1 share a random stream (suspicious)")
	}
	// A stream is made on first use, and is a function of the seed and
	// the rank alone: a rank draws the same whether its stream is made
	// first or last, and what a stream made with the image would draw.
	const n = 4
	draws := func(k *Kernel, rank int) [3]int64 {
		r := k.Image(rank).Rng()
		return [3]int64{r.Int63(), r.Int63(), r.Int63()}
	}
	eng, up := newTestKernel(n)
	_, down := newTestKernel(n)
	var ups, downs [n][3]int64
	for i := 0; i < n; i++ {
		ups[i], downs[n-1-i] = draws(up, i), draws(down, n-1-i)
	}
	for i := 0; i < n; i++ {
		ref := eng.DeriveRand(int64(i))
		want := [3]int64{ref.Int63(), ref.Int63(), ref.Int63()}
		if ups[i] != want || downs[i] != want {
			t.Errorf("rank %d drew %v made first, %v made last, want its derived stream %v", i, ups[i], downs[i], want)
		}
	}
}

// Proc names are carried in parts and joined on demand; what comes out
// is the string Go used to format for every proc, in Name, in the
// simulator's deadlock dump and in Procs' order.
func TestProcNamesAndLiveProcs(t *testing.T) {
	eng, k := newTestKernel(4)
	img := k.Image(3)
	img.Go("short", func(*sim.Proc) {})
	stuck := img.Go("stuck", func(p *sim.Proc) { p.Park("never woken") })
	late := img.Go("spawn:update", func(p *sim.Proc) {
		p.Sleep(1)
		p.Park("never woken either")
	})
	if got, want := late.Name(), "img3/spawn:update#3"; got != want {
		t.Errorf("Name() = %q, want %q", got, want)
	}
	err := eng.Run()
	want := "sim: deadlock at 1ns: 2 blocked proc(s): " +
		"img3/spawn:update#3[2] parked (never woken either), img3/stuck#2[1] parked (never woken)"
	if err == nil || err.Error() != want {
		t.Errorf("Run = %v\nwant  %s", err, want)
	}
	if got := img.Procs(); len(got) != 2 || got[0] != stuck || got[1] != late {
		t.Errorf("Procs() = %v, want the two unfinished procs in start order", got)
	}
	if got := k.Image(0).Procs(); len(got) != 0 {
		t.Errorf("image 0 has procs %v", got)
	}
	eng.Shutdown()
}

// BenchmarkSendDispatch is the rt.am_dispatch probe of the benchmark
// harness as a go test benchmark: a one-way message whose handler
// detaches and completes it, drained every 256 sends.
func BenchmarkSendDispatch(b *testing.B) {
	eng, k := newTestKernel(2)
	k.RegisterHandler(tagPing, func(d *Delivery) {
		d.Detach()
		d.Complete()
	})
	src := k.Image(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Send(1, tagPing, nil, SendOpts{Class: fabric.AMShort, Bytes: 8})
		if i%256 == 255 {
			if err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCallReply is the rt.call_reply probe: blocking round trips
// from one proc, each answered by the handler at once.
func BenchmarkCallReply(b *testing.B) {
	eng, k := newTestKernel(2)
	k.RegisterHandler(tagEcho, func(d *Delivery) { d.Reply(nil, 8) })
	src := k.Image(0)
	n := b.N
	src.Go("caller", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			src.Call(p, 1, tagEcho, nil, SendOpts{Class: fabric.AMShort, Bytes: 8})
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}
