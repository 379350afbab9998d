package caf

// Tests of SpawnRecord: a record is shipped as a closure is, to the byte
// of every export, its Ship runs once per spawn whatever the fabric and
// the pools do, a record may ship itself again from inside its Ship, and
// a request and its reply as one record allocate nothing. A record is
// CAF 2.0's named procedure with its arguments, so the tests of the
// named spawn, under finish, with an event and under a traced request,
// ship records too.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"caf2go/internal/path"
)

// shipVia ships r to target: as the closure r.Ship through Spawn, or as
// the record through SpawnRecord.
type shipVia func(img *Image, target int, r Shipper, opts ...SpawnOpt)

func viaClosure(img *Image, target int, r Shipper, opts ...SpawnOpt) {
	img.Spawn(target, r.Ship, opts...)
}

func viaRecord(img *Image, target int, r Shipper, opts ...SpawnOpt) {
	img.SpawnRecord(target, r, opts...)
}

// hop adds its payload's length plus one to its image's slot and, while
// hops are left, ships itself on to the next image in the other vehicle:
// a chain of nested spawns, each a re-ship of the record from inside its
// own Ship.
type hop struct {
	via  shipVia
	ca   *Coarray[int64]
	left int
	proc bool // runs as a proc, and computes; else Inline
}

func (h *hop) Ship(img *Image) {
	h.ca.Local(img)[0] += int64(len(img.Payload())) + 1
	if h.proc {
		img.Compute(Microsecond)
	}
	if h.left == 0 {
		return
	}
	h.left--
	h.proc = !h.proc
	opts := []SpawnOpt{WithBytes(40), Inline(300 * Nanosecond)}
	if h.proc {
		opts = opts[:1]
	}
	h.via(img, (img.Rank()+1)%img.NumImages(), h, opts...)
}

// hopProgram is one program: under a finish, a proc chain with a
// payload, an inline chain, a cofence, and an explicitly completed chain
// whose event the image waits for after the finish. Each image leaves its
// slot in sums.
func hopProgram(via shipVia, sums []int64) func(img *Image) {
	return func(img *Image) {
		ca := NewCoarray[int64](img, nil, 1)
		ev := img.NewEvent()
		n := img.NumImages()
		img.Finish(nil, func() {
			me := img.Rank()
			via(img, (me+1)%n, &hop{via: via, ca: ca, left: 3, proc: true}, WithPayload(make([]byte, me+1)))
			via(img, (me+2)%n, &hop{via: via, ca: ca, left: 2}, WithBytes(24), Inline(200*Nanosecond))
			img.Cofence(AllowNone, AllowNone)
			via(img, (me+3)%n, &hop{via: via, ca: ca, left: 1, proc: true}, WithEvent(ev))
		})
		img.EventWait(ev)
		img.Barrier(nil)
		sums[img.Rank()] = ca.Local(img)[0]
	}
}

// runExports runs hopProgram on cfg and returns everything the run
// exports: the Report, the fabric's counters, the profile, the Chrome
// trace, the Prometheus text and the slots.
func runExports(t *testing.T, cfg Config, via shipVia) string {
	t.Helper()
	m := NewMachine(cfg)
	slots := make([]int64, cfg.Images)
	m.Launch(hopProgram(via, slots))
	rep, err := m.RunToCompletion()
	if err != nil {
		t.Fatal(err)
	}
	rep.Metrics = nil // a pointer: the Prometheus text below is its contents
	var out bytes.Buffer
	fmt.Fprintf(&out, "report %+v\nfabric %+v\n", rep, m.FabricStats())
	if err := m.WriteProfile(&out); err != nil {
		t.Fatal(err)
	}
	if err := m.Trace().WriteChromeTrace(&out); err != nil {
		t.Fatal(err)
	}
	if err := m.Metrics().Snapshot().WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "slots %v\n", slots)
	return out.String()
}

// A program shipped as records exports what it does shipped as closures,
// byte for byte, eager and relaxed: the runtime tells the two apart
// nowhere but in the call.
func TestSpawnRecordMatchesSpawn(t *testing.T) {
	for _, relaxed := range []bool{false, true} {
		t.Run(fmt.Sprintf("relaxed=%v", relaxed), func(t *testing.T) {
			cfg := Config{Images: 4, Seed: 5, Relaxed: relaxed, MaxDelayed: 4,
				Metrics: true, TraceCapacity: 1 << 12, PathTracing: true}
			closures := runExports(t, cfg, viaClosure)
			records := runExports(t, cfg, viaRecord)
			if closures != records {
				t.Errorf("records export differently from closures:\nclosures:\n%.2000s\nrecords:\n%.2000s", closures, records)
			}
			if !bytes.Contains([]byte(records), []byte(`"spawn-exec"`)) {
				t.Error("no spawn-exec span in the records' trace")
			}
		})
	}
}

// counted checks its Ship against the spawns of it: each Ship is one more
// than the last, never a second for one spawn. A request ships itself
// back to its client, image 0, as its reply.
type counted struct {
	t             *testing.T
	shipped, ran  int
	inline, reply bool
}

func (c *counted) ship(img *Image, target int) {
	c.shipped++
	if c.inline {
		img.SpawnRecord(target, c, WithBytes(16), Inline(200*Nanosecond))
	} else {
		img.SpawnRecord(target, c, WithBytes(16))
	}
}

func (c *counted) Ship(img *Image) {
	if c.ran != c.shipped-1 {
		c.t.Errorf("Ship called %d times for %d spawns", c.ran+1, c.shipped)
	}
	c.ran++
	if !c.inline {
		img.Compute(200 * Nanosecond)
	}
	if !c.reply {
		c.reply = true
		c.ship(img, 0)
	}
}

// Ship runs once per spawn of a record, and a record re-shipped from
// inside its Ship runs again: pooled and quarantined, on a fabric that
// duplicates every message, and with a failure detector and a crash that
// abandons spawns in flight.
func TestSpawnRecordShipsOncePerSpawn(t *testing.T) {
	detector := FailureDetectorConfig{Enabled: true, Heartbeat: Microsecond}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{Images: 3, Seed: 1}},
		{"dup", Config{Images: 3, Seed: 1, Fabric: FabricConfig{Faults: &FaultPlan{Seed: 1, Dup: 1.0, Jitter: 5 * Microsecond}}}},
		{"crash", Config{Images: 3, Seed: 1, FailureDetector: detector,
			Fabric: FabricConfig{Faults: &FaultPlan{Seed: 1, Crash: map[int]Time{1: 5 * Microsecond}}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pooledAndQuarantined(t, func(t *testing.T) {
				var recs []*counted
				m := NewMachine(c.cfg)
				m.Launch(func(img *Image) {
					if img.Rank() != 0 {
						img.Compute(100 * Microsecond)
						return
					}
					for i := 0; i < 64; i++ {
						r := &counted{t: t, inline: i%2 == 0}
						recs = append(recs, r)
						r.ship(img, 1+i%2)
						img.Compute(200 * Nanosecond)
					}
					img.Compute(50 * Microsecond)
				})
				_, err := m.RunToCompletion()
				var ferr *ImageFailedError
				if err != nil && (c.name != "crash" || !errors.As(err, &ferr)) {
					t.Fatal(err)
				}
				lost := 0
				for _, r := range recs {
					if r.ran != r.shipped {
						lost++
					}
				}
				if c.name == "dup" && m.FabricStats().DupsDropped == 0 {
					t.Error("no message was duplicated")
				}
				if c.name != "crash" && lost != 0 {
					t.Errorf("%d of %d requests lost a Ship with no crash", lost, len(recs))
				}
				if c.name == "crash" && (lost == 0 || lost == len(recs)) {
					t.Errorf("%d of %d requests lost a Ship to the crash: want some", lost, len(recs))
				}
			})
		})
	}
}

// parker is a record that parks.
type parker struct{}

func (parker) Ship(img *Image) { img.Compute(Microsecond) }

// A record declared Inline that parks is named by its type.
func TestInlineParkingRecordNamesItsType(t *testing.T) {
	r := inlinePanic(t, nil, nil, func(img *Image) { img.SpawnRecord(1, parker{}, Inline(0)) })
	perr, ok := r.(*InlineParkError)
	if want := reflect.TypeOf(parker{}).String(); !ok || perr.Fn != want || perr.Op != "Compute" {
		t.Errorf("a parking record panicked with %v, want InlineParkError{%s, Compute}", r, want)
	}
}

// echo is the KV service's request and reply as one record: the request
// computes its value on the server and ships itself back as its reply.
type echo struct {
	key, v  int
	replies *int
}

type echoReply echo

func (e *echo) Ship(srv *Image) {
	e.v = 2 * e.key
	srv.SpawnRecord(0, (*echoReply)(e), WithBytes(24), Inline(0))
}

func (e *echoReply) Ship(*Image) { *e.replies += e.v - 2*e.key + 1 }

// A request and its reply shipped as one record, both inline, allocate
// nothing: the spawn records, the inline vehicles and the messages are
// recycled, and the record is the caller's.
func TestPoolSpawnRecordReplyPairDoesNotAllocate(t *testing.T) {
	skipUnlessPinned(t)
	var allocs float64
	replies := 0
	_, err := Run(Config{Images: 2, Seed: 1}, func(img *Image) {
		img.Finish(nil, func() {
			if img.Rank() != 0 {
				return
			}
			e := &echo{replies: &replies}
			request := func() {
				e.key++
				img.SpawnRecord(1, e, WithBytes(16), Inline(Microsecond))
				img.Compute(20 * Microsecond) // past the reply's ack
			}
			request()
			allocs = testing.AllocsPerRun(200, request)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if replies != 202 {
		t.Fatalf("%d replies ran, want 202", replies)
	}
	if allocs != 0 {
		t.Errorf("allocations per request + reply record = %v, want 0", allocs)
	}
}

// work is a named procedure as a record: it computes for its argument's
// microseconds and counts itself done.
type work struct {
	us   int
	done *int
}

func (w work) Ship(img *Image) {
	img.Compute(Time(w.us) * Microsecond)
	*w.done++
}

// A named procedure's spawn is tracked by the enclosing finish.
func TestSpawnNamedTrackedByFinish(t *testing.T) {
	m := NewMachine(Config{Images: 4, Seed: 1})
	done := 0
	m.Launch(func(img *Image) {
		img.Finish(nil, func() {
			img.SpawnRecord((img.Rank()+1)%4, work{us: 500, done: &done})
		})
		if done != 4 {
			t.Errorf("image %d left finish with %d/4 named spawns done", img.Rank(), done)
		}
	})
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
}

// WithEvent notifies a named procedure's event once it has executed.
func TestSpawnNamedWithEvent(t *testing.T) {
	m := NewMachine(Config{Images: 2, Seed: 1})
	ran := 0
	m.Launch(func(img *Image) {
		if img.Rank() != 0 {
			return
		}
		ev := img.NewEvent()
		img.SpawnRecord(1, work{us: 1000, done: &ran}, WithEvent(ev))
		img.EventWait(ev)
		if ran != 1 {
			t.Error("event before execution completed")
		}
	})
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
}

// serve is a named procedure that replies to its caller.
type serve struct{ replied *bool }

func (s serve) Ship(img *Image) {
	img.Spawn(0, func(*Image) { *s.replied = true }, WithBytes(24))
}

// A named procedure runs under the traced request that shipped it, as a
// closure does: the reply it spawns is a span of that request, parented
// to the named spawn's own span.
func TestSpawnNamedKeepsTracedRequest(t *testing.T) {
	m := NewMachine(Config{Images: 2, Seed: 1, PathTracing: true})
	replied := false
	m.Launch(func(img *Image) {
		img.Finish(nil, func() {
			if img.Rank() != 0 {
				return
			}
			m.PathTracker().Begin(0, 0, img.Now(), img.Now())
			prev := img.PathScope(path.ReqCtx(0))
			img.SpawnRecord(1, serve{&replied})
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
	if ship.Kind != "spawn" || ship.Img != 0 || ship.Peer != 1 || ship.Parent != 0 {
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
