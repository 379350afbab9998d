package caf_test

import (
	"bytes"
	"fmt"
	"testing"

	caf "caf2go"
)

// eventWorld is what the images of one event-contract run share: three
// events per image, each image's shard of an 8-word coarray and a log of
// what each image saw after its waits.
type eventWorld struct {
	evs   [][3]*caf.Event
	shard [][]int64
	log   [][]string
}

// eventSetup gives every image its events and its shard, and publishes
// them to the others behind a barrier.
func eventSetup(img *caf.Image, w *eventWorld) *caf.Coarray[int64] {
	me := img.Rank()
	ca := caf.NewCoarray[int64](img, nil, 8)
	w.shard[me] = ca.Local(img)
	for i := range w.evs[me] {
		w.evs[me][i] = img.NewEvent()
	}
	img.Barrier(nil)
	return ca
}

// eventSrc is image me's 8-word source buffer.
func eventSrc(me int) []int64 {
	src := make([]int64, 8)
	for i := range src {
		src[i] = int64(100*(me+1) + i)
	}
	return src
}

var eventPrograms = []struct {
	name string
	main func(img *caf.Image, w *eventWorld)
}{
	// Each image notifies its own event (a local notify) and its right
	// neighbor's (a remote one), then waits for both posts on its own.
	{"notify-wait", func(img *caf.Image, w *eventWorld) {
		eventSetup(img, w)
		me, n := img.Rank(), img.NumImages()
		img.Compute(caf.Time(200*me) * caf.Nanosecond)
		img.EventNotify(w.evs[me][0])
		img.EventNotify(w.evs[(me+1)%n][0])
		img.EventWait(w.evs[me][0])
		img.EventWait(w.evs[me][0])
		w.log[me] = append(w.log[me], fmt.Sprint("waited ", img.Now()))
	}},
	// Notifies behind outstanding puts: two puts to the right neighbor
	// and a notify of its event, a third put and a second notify, then a
	// local notify behind the third put. Each image reads its shard
	// after each wait: a remote notify's post is never seen before the
	// puts issued ahead of it.
	{"release", func(img *caf.Image, w *eventWorld) {
		ca := eventSetup(img, w)
		me, n := img.Rank(), img.NumImages()
		right := (me + 1) % n
		src := eventSrc(me)
		caf.CopyAsync(img, ca.Sec(right, 0, 4), caf.Local(src[0:4]))
		caf.CopyAsync(img, ca.Sec(right, 4, 6), caf.Local(src[4:6]))
		img.EventNotify(w.evs[right][0])
		caf.CopyAsync(img, ca.Sec(right, 6, 8), caf.Local(src[6:8]))
		img.EventNotify(w.evs[right][0])
		img.EventNotify(w.evs[me][1])
		for i := 0; i < 2; i++ {
			img.EventWait(w.evs[me][0])
			w.log[me] = append(w.log[me], fmt.Sprint(img.Now(), w.shard[me]))
		}
		img.EventWait(w.evs[me][1])
		w.log[me] = append(w.log[me], fmt.Sprint("own ", img.Now()))
	}},
	// Copies gated on the initiator's own event: a put posted before it
	// is issued, a put and a get posted after (one post by the image
	// itself, one by its left neighbor's remote notify).
	{"pred-local", func(img *caf.Image, w *eventWorld) {
		ca := eventSetup(img, w)
		me, n := img.Rank(), img.NumImages()
		right, left := (me+1)%n, (me+n-1)%n
		src := eventSrc(me)
		buf := make([]int64, 2)
		e := w.evs[me][0]
		img.Finish(nil, func() {
			img.EventNotify(e)
			caf.CopyAsync(img, ca.Sec(right, 0, 2), caf.Local(src[0:2]), caf.Pred(e))
			caf.CopyAsync(img, ca.Sec(right, 2, 4), caf.Local(src[2:4]), caf.Pred(e))
			caf.CopyAsync(img, caf.Local(buf), ca.Sec(left, 6, 8), caf.Pred(e))
			img.Compute(300 * caf.Nanosecond)
			img.EventNotify(e)
			img.Compute(caf.Microsecond)
			img.EventNotify(w.evs[right][0])
		})
		w.log[me] = append(w.log[me], fmt.Sprint(img.Now(), buf))
	}},
	// Copies gated on an event two images away: its owner posts it
	// early, before the chain message lands, and the owner's left
	// neighbor posts it again later, after the second copy queued there.
	{"pred-remote", func(img *caf.Image, w *eventWorld) {
		ca := eventSetup(img, w)
		me, n := img.Rank(), img.NumImages()
		right := (me + 1) % n
		src := eventSrc(me)
		img.Finish(nil, func() {
			img.EventNotify(w.evs[me][0])
			caf.CopyAsync(img, ca.Sec(right, 0, 2), caf.Local(src[0:2]), caf.Pred(w.evs[(me+2)%n][0]))
			caf.CopyAsync(img, ca.Sec(right, 2, 4), caf.Local(src[2:4]), caf.Pred(w.evs[(me+2)%n][0]))
			img.Compute(2 * caf.Microsecond)
			img.EventNotify(w.evs[right][0])
		})
		w.log[me] = append(w.log[me], fmt.Sprint(img.Now()))
	}},
	// Two chains of three copies, each hop gated on the destination
	// event of the one before. Rank 0 drives a third-party chain 0→1→2→3
	// whose predicates live on the hop's source image; rank 2 drives
	// 2→3→0→1 on predicates it hosts itself. The last hop's owner waits.
	// Both chains' second hops post rank 2's event 1, on which both last
	// hops wait, one queued by rank 2 itself and one by a chain message
	// from rank 0: the FIFO decides which post starts which, and under
	// Races the detector reports rank 2's last hop reading image 0's
	// [4,8) unordered with the write of its own chain's second hop.
	{"pred-chain", func(img *caf.Image, w *eventWorld) {
		ca := eventSetup(img, w)
		me, n := img.Rank(), img.NumImages()
		hops := func(first, lo, hi int, ev func(hop int) *caf.Event) {
			for h := 0; h < 3; h++ {
				from, to := (first+h)%n, (first+h+1)%n
				opts := []caf.CopyOpt{caf.DestEvent(ev(h))}
				if h > 0 {
					opts = append(opts, caf.Pred(ev(h-1)))
				}
				caf.CopyAsync(img, ca.Sec(to, lo, hi), ca.Sec(from, lo, hi), opts...)
			}
		}
		copy(w.shard[me], eventSrc(me))
		img.Barrier(nil)
		switch me {
		case 0:
			hops(0, 0, 4, func(h int) *caf.Event { return w.evs[h+1][1] })
		case 2:
			hops(2, 4, 8, func(h int) *caf.Event { return w.evs[2][h] })
		}
		switch me {
		case 3:
			img.EventWait(w.evs[3][1])
		case 2:
			img.EventWait(w.evs[2][2])
		}
		w.log[me] = append(w.log[me], fmt.Sprint(img.Now(), w.shard[me]))
		img.Barrier(nil)
	}},
	// Source and destination events on a put, a get and a third-party
	// copy, all hosted on the initiator; each is waited for three times.
	{"src-dest", func(img *caf.Image, w *eventWorld) {
		ca := eventSetup(img, w)
		me, n := img.Rank(), img.NumImages()
		right, left := (me+1)%n, (me+n-1)%n
		src := eventSrc(me)
		buf := make([]int64, 2)
		srcE, destE := w.evs[me][0], w.evs[me][1]
		ev := []caf.CopyOpt{caf.SrcEvent(srcE), caf.DestEvent(destE)}
		caf.CopyAsync(img, ca.Sec(right, 0, 2), caf.Local(src[0:2]), ev...)
		caf.CopyAsync(img, caf.Local(buf), ca.Sec(left, 6, 8), ev...)
		caf.CopyAsync(img, ca.Sec(right, 4, 6), ca.Sec(left, 6, 8), ev...)
		for i := 0; i < 3; i++ {
			img.EventWait(srcE)
			w.log[me] = append(w.log[me], fmt.Sprint("src ", img.Now()))
		}
		for i := 0; i < 3; i++ {
			img.EventWait(destE)
			w.log[me] = append(w.log[me], fmt.Sprint("dest ", img.Now()))
		}
		w.log[me] = append(w.log[me], fmt.Sprint(buf))
		img.Barrier(nil)
	}},
}

// eventModes are the runtime variants every event program runs under.
var eventModes = []struct {
	name string
	set  func(*caf.Config)
}{
	{"eager", func(*caf.Config) {}},
	{"relaxed-1", func(c *caf.Config) { c.Relaxed, c.MaxDelayed = true, 1 }},
	{"coalesced", func(c *caf.Config) { c.Fabric.Coalescing = caf.Coalescing{MaxMsgs: 4} }},
	{"races", func(c *caf.Config) { c.Races = true }},
}

// eventRecord is the comparable part of one run of the event contract:
// the events it ran, the switches to a proc's stack, the conflicts the
// race detector reported, each image's exit time, and FNV-64a digests of
// the final coarray shards with the images' logs and of the Chrome trace.
type eventRecord struct {
	EventsRun uint64
	Resumes   uint64
	Conflicts int64
	Exits     string
	Data      uint64
	Chrome    uint64
}

// The event contract: local and remote notifies and waits, notifies that
// wait on outstanding puts, copies gated on local and remote predicate
// events posted before and after them, chains of predicated copies and
// source and destination events, eager, relaxed, coalesced and under the
// race detector, run the events, resume the procs, leave the data and
// write the traces recorded on the code that released a notify and a
// predicated copy through closures.
func TestEventContractReports(t *testing.T) {
	want := map[string]eventRecord{
		"notify-wait/eager":     {70, 19, 0, "[[16.976us] [13.028us] [14.744us] [15.160us]]", 0x5b1f3b3d1117aab, 0x1ab109bf047ac257},
		"notify-wait/relaxed-1": {70, 19, 0, "[[16.976us] [13.028us] [14.744us] [15.160us]]", 0x5b1f3b3d1117aab, 0x1ab109bf047ac257},
		"notify-wait/coalesced": {70, 19, 0, "[[16.976us] [13.028us] [14.744us] [15.160us]]", 0x5b1f3b3d1117aab, 0x1ab109bf047ac257},
		"notify-wait/races":     {70, 19, 0, "[[16.976us] [13.028us] [14.744us] [15.160us]]", 0x5b1f3b3d1117aab, 0x1ab109bf047ac257},
		"release/eager":         {132, 20, 0, "[[20.324us] [16.944us] [18.492us] [18.776us]]", 0xcddcdb913a5d4235, 0x3254f9db31855f9b},
		"release/relaxed-1":     {132, 20, 0, "[[20.324us] [16.944us] [18.492us] [18.776us]]", 0xcddcdb913a5d4235, 0x5e0e8e96b9078703},
		"release/coalesced":     {124, 20, 0, "[[20.056us] [16.644us] [18.224us] [18.476us]]", 0xee282b02bf462bb3, 0x716a2951bf50446e},
		"release/races":         {132, 20, 0, "[[20.324us] [16.944us] [18.492us] [18.776us]]", 0xcddcdb913a5d4235, 0x3254f9db31855f9b},
		"pred-local/eager":      {182, 24, 0, "[[32.800us] [34.624us] [34.648us] [36.472us]]", 0xc3a6d85ecbcfd064, 0x7659e4dcb5054557},
		"pred-local/relaxed-1":  {182, 24, 0, "[[32.800us] [34.624us] [34.648us] [36.472us]]", 0xc3a6d85ecbcfd064, 0x2c413d192487f69d},
		"pred-local/coalesced":  {198, 24, 0, "[[52.816us] [54.640us] [54.664us] [56.488us]]", 0xbe5a2e08d53d10d0, 0xa6e3179d401bebee},
		"pred-local/races":      {182, 24, 0, "[[32.800us] [34.624us] [34.648us] [36.472us]]", 0xc3a6d85ecbcfd064, 0x7659e4dcb5054557},
		"pred-remote/eager":     {170, 20, 0, "[[20.916us] [22.740us] [22.764us] [24.588us]]", 0xb2236ae63aa2c228, 0x8501f8b672509290},
		"pred-remote/relaxed-1": {170, 20, 0, "[[20.916us] [22.740us] [22.764us] [24.588us]]", 0xb2236ae63aa2c228, 0x8501f8b672509290},
		"pred-remote/coalesced": {158, 20, 0, "[[20.516us] [22.680us] [22.428us] [24.592us]]", 0x1ea2ed7681ec351f, 0xce7e8b4ac7ed9e0f},
		"pred-remote/races":     {170, 20, 0, "[[20.916us] [22.740us] [22.764us] [24.588us]]", 0xb2236ae63aa2c228, 0x8501f8b672509290},
		"pred-chain/eager":      {153, 22, 0, "[[38.580us] [40.396us] [40.412us] [42.228us]]", 0x8313af449dfcd3b0, 0x3a64038b5baa9a96},
		"pred-chain/relaxed-1":  {153, 22, 0, "[[38.580us] [40.396us] [40.412us] [42.228us]]", 0x8313af449dfcd3b0, 0x3a64038b5baa9a96},
		"pred-chain/coalesced":  {163, 22, 0, "[[70.428us] [72.244us] [72.260us] [74.076us]]", 0x55af8bddab58cd93, 0xd5320e7a0c17770c},
		"pred-chain/races":      {153, 22, 1, "[[38.580us] [40.396us] [40.412us] [42.228us]]", 0x8313af449dfcd3b0, 0x3a64038b5baa9a96},
		"src-dest/eager":        {202, 32, 0, "[[24.320us] [26.136us] [26.152us] [27.968us]]", 0x66c237a4c6c0afe8, 0xaf1d018cdad2b998},
		"src-dest/relaxed-1":    {202, 32, 0, "[[24.320us] [26.136us] [26.152us] [27.968us]]", 0x66c237a4c6c0afe8, 0xaf1d018cdad2b998},
		"src-dest/coalesced":    {208, 34, 0, "[[24.620us] [26.436us] [26.452us] [28.268us]]", 0xe3290514ada12ee7, 0x7efad5e5dc52b98},
		"src-dest/races":        {202, 32, 0, "[[24.320us] [26.136us] [26.152us] [27.968us]]", 0x66c237a4c6c0afe8, 0xaf1d018cdad2b998},
	}
	for _, p := range eventPrograms {
		for _, mode := range eventModes {
			name := p.name + "/" + mode.name
			t.Run(name, func(t *testing.T) {
				cfg := caf.Config{Images: 4, Seed: 1, TraceCapacity: 1 << 16}
				mode.set(&cfg)
				w := &eventWorld{evs: make([][3]*caf.Event, 4), shard: make([][]int64, 4), log: make([][]string, 4)}
				m, rep, seen, errs := runRecorded(t, cfg, func(img *caf.Image) { p.main(img, w) }, nil)
				if errs != "" {
					t.Fatalf("image errors: %s", errs)
				}
				var chrome bytes.Buffer
				if err := m.Trace().WriteChromeTrace(&chrome); err != nil {
					t.Fatal(err)
				}
				got := eventRecord{rep.EventsRun, m.Engine().Resumes(), m.Conflicts(), fmt.Sprint(seen),
					digest(fmt.Append(nil, w.shard, w.log)), digest(chrome.Bytes())}
				if w, ok := want[name]; !ok || got != w {
					t.Errorf("got  %#v\nwant %#v", got, w)
				}
			})
		}
	}
}
